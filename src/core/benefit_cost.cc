#include "core/benefit_cost.h"

#include <limits>

namespace qec::core {

double ValueOf(double benefit, double cost) {
  if (cost > 0.0) return benefit / cost;
  return benefit > 0.0 ? std::numeric_limits<double>::infinity() : 0.0;
}

AdditionEvaluator::AdditionEvaluator(const ExpansionContext& context)
    : ctx_(context),
      retrieved_(context.universe->AcquireScratch()) {
  Reset();
}

// The early-exit kill check runs first: a killing addition skips both
// weighted passes.
BenefitCost AdditionEvaluator::Evaluate(TermId k) const {
  const ResultUniverse& universe = *ctx_.universe;
  const DynamicBitset& docs_k = universe.DocsWithTerm(k);
  BenefitCost bc;
  if (retrieves_cluster_ &&
      !retrieved_->Intersects(docs_k, ctx_.cluster)) {
    bc.kills_cluster = true;
    return bc;
  }
  bc.benefit = universe.WeightOfAndNotAnd(*retrieved_, docs_k, ctx_.others);
  bc.cost = universe.WeightOfAndNotAnd(*retrieved_, docs_k, ctx_.cluster);
  return bc;
}

void AdditionEvaluator::Reset() {
  ctx_.universe->RetrieveInto(ctx_.user_query, &*retrieved_);
  Refresh();
}

void AdditionEvaluator::Add(TermId k) {
  *retrieved_ &= ctx_.universe->DocsWithTerm(k);
  Refresh();
}

void AdditionEvaluator::Assign(const DynamicBitset& retrieved) {
  *retrieved_ = retrieved;
  Refresh();
}

void AdditionEvaluator::Refresh() {
  retrieves_cluster_ = retrieved_->Intersects(ctx_.cluster);
}

}  // namespace qec::core
