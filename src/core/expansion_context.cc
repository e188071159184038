#include "core/expansion_context.h"

#include <algorithm>

#include "common/logging.h"
#include "core/benefit_cost.h"

namespace qec::core {

ExpansionContext MakeContext(const ResultUniverse& universe,
                             std::vector<TermId> user_query,
                             DynamicBitset cluster,
                             std::vector<TermId> candidates) {
  QEC_CHECK_EQ(cluster.size(), universe.size());
  ExpansionContext ctx;
  ctx.universe = &universe;
  ctx.user_query = std::move(user_query);
  ctx.others = universe.FullSet();
  ctx.others.AndNot(cluster);
  ctx.cluster = std::move(cluster);
  ctx.candidates = std::move(candidates);
  return ctx;
}

std::vector<TermExplain> ExplainAddedTerms(
    const ExpansionContext& context, const std::vector<TermId>& final_query) {
  std::vector<TermExplain> out;
  AdditionEvaluator eval(context);
  for (TermId k : final_query) {
    if (std::find(context.user_query.begin(), context.user_query.end(), k) !=
        context.user_query.end()) {
      continue;
    }
    const BenefitCost bc = eval.Evaluate(k);
    TermExplain row;
    row.term = k;
    row.benefit = bc.benefit;
    row.cost = bc.cost;
    row.value = ValueOf(bc.benefit, bc.cost);
    out.push_back(row);
    // Apply the addition so the next term is scored against R(prefix + k).
    eval.Add(k);
  }
  return out;
}

QueryQuality EvaluateAgainstCluster(const ExpansionContext& context,
                                    const std::vector<TermId>& query) {
  DynamicBitset retrieved = context.universe->Retrieve(query);
  return EvaluateQuery(*context.universe, retrieved, context.cluster);
}

}  // namespace qec::core
