#include "core/benefit_cost.h"

#include <limits>

namespace qec::core {

double ValueOf(double benefit, double cost) {
  if (cost > 0.0) return benefit / cost;
  return benefit > 0.0 ? std::numeric_limits<double>::infinity() : 0.0;
}

AdditionEvaluator::AdditionEvaluator(const ExpansionContext& context)
    : ctx_(context),
      retrieved_(context.universe->AcquireScratch()),
      cluster_range_(context.cluster.NonzeroWordRange()),
      others_range_(context.others.NonzeroWordRange()) {
  Reset();
}

// The early-exit kill check runs first: a killing addition skips both
// weighted passes.
BenefitCost AdditionEvaluator::Evaluate(TermId k) const {
  const ResultUniverse& universe = *ctx_.universe;
  const DynamicBitset& docs_k = universe.DocsWithTerm(k);
  BenefitCost bc;
  if (retrieves_cluster_ &&
      !retrieved_->Intersects(docs_k, ctx_.cluster, cluster_scan_)) {
    bc.kills_cluster = true;
    return bc;
  }
  bc.benefit = universe.WeightOfAndNotAnd(*retrieved_, docs_k, ctx_.others,
                                          others_scan_);
  bc.cost = universe.WeightOfAndNotAnd(*retrieved_, docs_k, ctx_.cluster,
                                       cluster_scan_);
  return bc;
}

void AdditionEvaluator::Reset() {
  ctx_.universe->RetrieveInto(ctx_.user_query, &*retrieved_);
  RefreshRanges();
}

void AdditionEvaluator::Add(TermId k) {
  *retrieved_ &= ctx_.universe->DocsWithTerm(k);
  RefreshRanges();
}

void AdditionEvaluator::Assign(const DynamicBitset& retrieved) {
  *retrieved_ = retrieved;
  RefreshRanges();
}

void AdditionEvaluator::RefreshRanges() {
  retrieves_cluster_ = retrieved_->Intersects(ctx_.cluster);
  retrieved_range_ = retrieved_->NonzeroWordRange();
  cluster_scan_ = WordRange::Intersect(retrieved_range_, cluster_range_);
  others_scan_ = WordRange::Intersect(retrieved_range_, others_range_);
}

}  // namespace qec::core
