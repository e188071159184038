#include "core/or_expander.h"

#include <algorithm>
#include <vector>

#include "common/logging.h"
#include "core/benefit_cost.h"

namespace qec::core {

namespace {

/// Mutable OR-refinement state. Maintains per-result coverage counts so
/// the "uniquely covered by k" delta of a removal is O(|docs_with(k)|).
class OrState {
 public:
  OrState(const ExpansionContext& ctx, const OrIskrOptions& options)
      : ctx_(ctx),
        options_(options),
        covered_(ctx.universe->EmptySet()),
        coverage_count_(ctx.universe->size(), 0) {}

  ExpansionResult Run() {
    while (iterations_ < options_.max_iterations) {
      auto [term, is_removal, value] = BestMove();
      if (value <= 1.0) break;
      ++iterations_;
      if (is_removal) {
        ApplyRemoval(term);
      } else {
        ApplyAddition(term);
      }
    }
    ExpansionResult result;
    result.query = query_;
    result.quality = EvaluateQuery(*ctx_.universe, covered_, ctx_.cluster);
    result.iterations = iterations_;
    result.value_recomputations = recomputations_;
    return result;
  }

 private:
  bool InQuery(TermId k) const {
    return std::find(query_.begin(), query_.end(), k) != query_.end();
  }

  // Addition delta: results newly covered by k.
  DynamicBitset AddDelta(TermId k) const {
    DynamicBitset delta = ctx_.universe->DocsWithTerm(k);
    delta.AndNot(covered_);
    return delta;
  }

  // Removal delta: results covered by k and by no other query keyword.
  DynamicBitset RemoveDelta(TermId k) const {
    DynamicBitset delta = ctx_.universe->EmptySet();
    ctx_.universe->DocsWithTerm(k).ForEachSetBit([&](size_t i) {
      if (coverage_count_[i] == 1) delta.Set(i);
    });
    return delta;
  }

  std::tuple<TermId, bool, double> BestMove() {
    TermId best = kInvalidTermId;
    bool best_removal = false;
    double best_value = 0.0;
    for (TermId k : ctx_.candidates) {
      if (InQuery(k)) continue;
      ++recomputations_;
      DynamicBitset delta = AddDelta(k);
      DynamicBitset in_c = delta;
      in_c &= ctx_.cluster;
      DynamicBitset in_u = delta;
      in_u &= ctx_.others;
      double v = ValueOf(ctx_.universe->TotalWeight(in_c),
                         ctx_.universe->TotalWeight(in_u));
      if (v > best_value || (v == best_value && best != kInvalidTermId &&
                             !best_removal && k < best)) {
        best_value = v;
        best = k;
        best_removal = false;
      }
    }
    if (options_.allow_removal) {
      for (TermId k : query_) {
        ++recomputations_;
        DynamicBitset delta = RemoveDelta(k);
        DynamicBitset in_u = delta;
        in_u &= ctx_.others;
        DynamicBitset in_c = delta;
        in_c &= ctx_.cluster;
        double v = ValueOf(ctx_.universe->TotalWeight(in_u),
                           ctx_.universe->TotalWeight(in_c));
        if (v > best_value) {
          best_value = v;
          best = k;
          best_removal = true;
        }
      }
    }
    return {best, best_removal, best_value};
  }

  void ApplyAddition(TermId k) {
    query_.push_back(k);
    ctx_.universe->DocsWithTerm(k).ForEachSetBit([&](size_t i) {
      coverage_count_[i]++;
      covered_.Set(i);
    });
  }

  void ApplyRemoval(TermId k) {
    query_.erase(std::find(query_.begin(), query_.end(), k));
    ctx_.universe->DocsWithTerm(k).ForEachSetBit([&](size_t i) {
      if (--coverage_count_[i] == 0) covered_.Reset(i);
    });
  }

  const ExpansionContext& ctx_;
  const OrIskrOptions& options_;
  std::vector<TermId> query_;
  DynamicBitset covered_;
  std::vector<int> coverage_count_;
  size_t iterations_ = 0;
  size_t recomputations_ = 0;
};

}  // namespace

OrIskrExpander::OrIskrExpander(OrIskrOptions options) : options_(options) {}

ExpansionResult OrIskrExpander::Expand(const ExpansionContext& context) const {
  QEC_CHECK(context.universe != nullptr);
  OrState state(context, options_);
  return state.Run();
}

}  // namespace qec::core
