#include "core/iskr.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/logging.h"
#include "common/sweep_pool.h"
#include "core/benefit_cost.h"
#include "obs/metrics.h"

namespace qec::core {

namespace {

/// ISKR's ranking of an entry: a cluster-killing addition can never help.
double RankValue(const BenefitCost& e) {
  return e.kills_cluster ? 0.0 : ValueOf(e.benefit, e.cost);
}

/// The addition entry of one candidate keyword (ctx.candidates[i] owns
/// slots_[i]). `evals` counts its evaluations; being per slot, it needs no
/// synchronization when a sweep fans out.
struct Slot {
  BenefitCost add;
  uint32_t evals = 0;
  bool in_query = false;
};

/// Mutable ISKR state over one expansion context. R(q) lives in the shared
/// AdditionEvaluator, which computes every addition entry; the removal
/// entries and two step-scoped scratches leased from the universe arena
/// (delta results and R(q\k)) are ISKR's own. No evaluation allocates.
class IskrState {
 public:
  IskrState(const ExpansionContext& ctx, const IskrOptions& options,
            const SweepOptions& sweep, std::vector<IskrStep>* trace)
      : ctx_(ctx),
        options_(options),
        sweep_(sweep),
        trace_(trace),
        eval_(ctx),
        delta_(ctx.universe->AcquireScratch()),
        without_(ctx.universe->AcquireScratch()),
        slots_(ctx.candidates.size()) {
    query_.reserve(16);
    query_.assign(ctx.user_query.begin(), ctx.user_query.end());
    removal_entries_.reserve(16);
    RefreshAdditions(nullptr);
  }

  ExpansionResult Run() {
    while (iterations_ < options_.max_iterations) {
      const Move move = BestMove();
      if (move.value <= 1.0) break;
      ++iterations_;
      IskrStep step;
      step.keyword = ctx_.candidates[move.slot];
      step.is_removal = move.is_removal;
      step.value = move.value;
      step.benefit = move.entry->benefit;
      step.cost = move.entry->cost;
      if (move.is_removal) {
        ++removals_;
        ApplyRemoval(move.slot);
      } else {
        ++additions_;
        ApplyAddition(move.slot);
      }
      if (trace_ != nullptr) {
        step.f_measure_after =
            EvaluateQuery(*ctx_.universe, eval_.retrieved(), ctx_.cluster)
                .f_measure;
        trace_->push_back(step);
      }
    }
    size_t recomputations = removal_evals_;
    for (const Slot& slot : slots_) recomputations += slot.evals;
    ExpansionResult result;
    result.query = query_;
    result.quality =
        EvaluateQuery(*ctx_.universe, eval_.retrieved(), ctx_.cluster);
    result.iterations = iterations_;
    result.value_recomputations = recomputations;
    result.iskr_stats.steps = iterations_;
    result.iskr_stats.additions = additions_;
    result.iskr_stats.removals = removals_;
    result.iskr_stats.candidates_evaluated = recomputations;
    QEC_COUNTER_INC("iskr/runs");
    QEC_COUNTER_ADD("iskr/steps", iterations_);
    QEC_COUNTER_ADD("iskr/additions", additions_);
    QEC_COUNTER_ADD("iskr/removals", removals_);
    QEC_COUNTER_ADD("iskr/benefit_cost_evals", recomputations);
    return result;
  }

 private:
  struct Move {
    size_t slot = 0;
    bool is_removal = false;
    double value = 0.0;
    const BenefitCost* entry = nullptr;
  };

  // Removal: D(k) = R(q\k) \ R(q); benefit = S(C ∩ D), cost = S(U ∩ D).
  BenefitCost ComputeRemoveEntry(TermId k) {
    ctx_.universe->RetrieveWithoutInto(query_, k, &*without_);
    BenefitCost e;
    e.benefit = ctx_.universe->WeightOfAndNotAnd(*without_, eval_.retrieved(),
                                                 ctx_.cluster);
    e.cost = ctx_.universe->WeightOfAndNotAnd(*without_, eval_.retrieved(),
                                              ctx_.others);
    ++removal_evals_;
    return e;
  }

  // The best refinement step: highest value, ties to the smaller TermId.
  // The rule is a total order, so the scan order does not matter.
  Move BestMove() const {
    Move best;
    TermId best_term = kInvalidTermId;
    auto consider = [&](size_t slot, bool removal, const BenefitCost& e) {
      const TermId term = ctx_.candidates[slot];
      const double v = RankValue(e);
      if (v > best.value ||
          (v == best.value && best_term != kInvalidTermId &&
           term < best_term)) {
        best = Move{slot, removal, v, &e};
        best_term = term;
      }
    };
    for (size_t i = 0; i < slots_.size(); ++i) {
      if (!slots_[i].in_query) consider(i, false, slots_[i].add);
    }
    if (options_.allow_removal) {
      for (const auto& [slot, e] : removal_entries_) consider(slot, true, e);
    }
    return best;
  }

  void ApplyAddition(size_t slot) {
    const TermId k = ctx_.candidates[slot];
    // Delta results: eliminated from R(q) by adding k.
    *delta_ = eval_.retrieved();
    delta_->AndNot(ctx_.universe->DocsWithTerm(k));
    eval_.Add(k);
    query_.push_back(k);
    slots_[slot].in_query = true;
    RefreshAffected();
    // The new member's removal entry is always fresh.
    removal_entries_.emplace_back(slot, ComputeRemoveEntry(k));
  }

  void ApplyRemoval(size_t slot) {
    const TermId k = ctx_.candidates[slot];
    ctx_.universe->RetrieveWithoutInto(query_, k, &*without_);
    *delta_ = *without_;
    delta_->AndNot(eval_.retrieved());
    eval_.Assign(*without_);
    query_.erase(std::find(query_.begin(), query_.end(), k));
    removal_entries_.erase(std::find_if(
        removal_entries_.begin(), removal_entries_.end(),
        [slot](const auto& entry) { return entry.first == slot; }));
    RefreshAffected();
    slots_[slot].in_query = false;
    slots_[slot].add = eval_.Evaluate(k);
    ++slots_[slot].evals;
  }

  // Evaluates the addition entry of every keyword outside q that does not
  // appear in all `delta` results (every keyword when `delta` is null).
  // Each slot is written by exactly one ParallelFor worker, so any
  // SweepOptions::threads is byte-identical to the serial loop.
  void RefreshAdditions(const DynamicBitset* delta) {
    common::ParallelFor(sweep_.threads, slots_.size(), [&](size_t i) {
      Slot& slot = slots_[i];
      if (slot.in_query) return;
      const TermId k = ctx_.candidates[i];
      if (delta != nullptr &&
          delta->IsSubsetOf(ctx_.universe->DocsWithTerm(k))) {
        return;
      }
      slot.add = eval_.Evaluate(k);
      ++slot.evals;
    });
  }

  // Recomputes exactly the addition keywords that do not appear in all
  // delta results: for every other keyword the delta results change
  // nothing (Sec. 3, "Identifying Keywords with Affected Values"). The
  // rule is exact for additions only — a removal entry's delta results
  // D(k) = R(q\k) \ R(q) lie *outside* R(q), so refining q can change them
  // even when k appears in every delta result (e.g. the walkthrough's
  // removal of "job" after adding store and location). Removal entries are
  // few (|q| keywords) and share the without_ scratch, so they are simply
  // recomputed serially every step.
  void RefreshAffected() {
    if (!delta_->None()) RefreshAdditions(&*delta_);
    for (auto& [slot, e] : removal_entries_) {
      e = ComputeRemoveEntry(ctx_.candidates[slot]);
    }
  }

  const ExpansionContext& ctx_;
  const IskrOptions& options_;
  const SweepOptions& sweep_;
  std::vector<IskrStep>* trace_;
  std::vector<TermId> query_;
  AdditionEvaluator eval_;
  ResultUniverse::ScratchBitset delta_;
  ResultUniverse::ScratchBitset without_;
  std::vector<Slot> slots_;
  /// (slot, removal entry) of every added keyword, in query order.
  std::vector<std::pair<size_t, BenefitCost>> removal_entries_;
  size_t iterations_ = 0;
  size_t removal_evals_ = 0;
  size_t additions_ = 0;
  size_t removals_ = 0;
};

}  // namespace

IskrExpander::IskrExpander(IskrOptions options, SweepOptions sweep)
    : options_(options), sweep_(sweep) {}

ExpansionResult IskrExpander::Expand(const ExpansionContext& context) const {
  return ExpandWithTrace(context, nullptr);
}

ExpansionResult IskrExpander::ExpandWithTrace(
    const ExpansionContext& context, std::vector<IskrStep>* trace) const {
  QEC_CHECK(context.universe != nullptr);
  IskrState state(context, options_, sweep_, trace);
  return state.Run();
}

}  // namespace qec::core
