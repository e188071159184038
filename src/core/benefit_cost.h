#ifndef QEC_CORE_BENEFIT_COST_H_
#define QEC_CORE_BENEFIT_COST_H_

#include "common/dynamic_bitset.h"
#include "common/types.h"
#include "core/expansion_context.h"
#include "core/result_universe.h"

namespace qec::core {

/// The value of a keyword (Sec. 3): benefit / cost. cost = 0 with positive
/// benefit is a free improvement (+∞); benefit = cost = 0 is worth 0.
double ValueOf(double benefit, double cost);

/// What adding keyword k to q would do (Sec. 3, ranked the same way by
/// PEBC in Sec. 4), with E(k) the results lacking k:
///   benefit = S(R(q) ∩ U ∩ E(k)), cost = S(R(q) ∩ C ∩ E(k)).
struct BenefitCost {
  double benefit = 0.0;
  double cost = 0.0;
  /// True when the addition would eliminate every cluster result still
  /// retrieved (R(q) ∩ C ≠ ∅ and R(q) ∩ C ∩ D(k) = ∅). The ratio may
  /// exceed 1, but recall — and hence F-measure — would drop to exactly 0,
  /// so ISKR scores the move 0 and PEBC never selects it. Such a move is
  /// worthless to every caller, so its benefit and cost are left 0.
  bool kills_cluster = false;
};

/// Owns R(q) for one ExpansionContext and evaluates keyword additions
/// against it: the single home of the addition benefit/cost formula,
/// shared by ISKR, PEBC and ExplainAddedTerms.
///
/// Every evaluation runs on the fused weighted kernels over the whole
/// universe. R(q) is leased from the universe's scratch arena.
class AdditionEvaluator {
 public:
  /// Starts at R(context.user_query).
  explicit AdditionEvaluator(const ExpansionContext& context);

  /// The evaluation of adding `k` to the current q. Thread-safe: reads
  /// only, so candidate sweeps may call it concurrently.
  BenefitCost Evaluate(TermId k) const;

  /// R(q) back to R(user query).
  void Reset();
  /// R(q) ∩= D(k): the effect of adding `k`.
  void Add(TermId k);
  /// R(q) = `retrieved` (a removal, or undoing an addition).
  void Assign(const DynamicBitset& retrieved);

  const DynamicBitset& retrieved() const { return *retrieved_; }

 private:
  void Refresh();

  const ExpansionContext& ctx_;
  ResultUniverse::ScratchBitset retrieved_;
  /// R(q) ∩ C ≠ ∅, refreshed whenever R(q) changes.
  bool retrieves_cluster_ = false;
};

}  // namespace qec::core

#endif  // QEC_CORE_BENEFIT_COST_H_
