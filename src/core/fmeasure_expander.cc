#include "core/fmeasure_expander.h"

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/sweep_pool.h"

namespace qec::core {

FMeasureExpander::FMeasureExpander(FMeasureOptions options, SweepOptions sweep)
    : options_(options), sweep_(sweep) {}

ExpansionResult FMeasureExpander::Expand(
    const ExpansionContext& context) const {
  QEC_CHECK(context.universe != nullptr);
  const ResultUniverse& universe = *context.universe;

  std::vector<TermId> query;
  query.reserve(16);
  query.assign(context.user_query.begin(), context.user_query.end());
  // All working sets are arena leases: repeated expansions over one
  // universe run allocation-free once the arena is warm.
  auto retrieved = universe.AcquireScratch();
  auto best_retrieved = universe.AcquireScratch();
  auto base = universe.AcquireScratch();
  auto r = universe.AcquireScratch();
  universe.RetrieveInto(query, &*retrieved);
  double current_f =
      EvaluateQuery(universe, *retrieved, context.cluster).f_measure;
  const double s_cluster = universe.TotalWeight(context.cluster);

  size_t iterations = 0;
  size_t recomputations = 0;
  // Per-candidate sweep buffers, reused across iterations. uint8_t (not
  // vector<bool>) so concurrent workers can write distinct elements.
  std::vector<double> candidate_f;
  std::vector<uint8_t> evaluated;

  while (iterations < options_.max_iterations) {
    TermId best = kInvalidTermId;
    bool best_is_removal = false;
    double best_f = current_f;
    *best_retrieved = *retrieved;

    // Additions: every candidate not yet in the query. Each value is a
    // full evaluation of q ∪ {k} — the naive recomputation the paper
    // charges this method with (Sec. 3: "the value of every keyword needs
    // to be dynamically computed, and updated after every change to q"),
    // and the reason it is orders of magnitude slower than ISKR's
    // incremental maintenance (Fig. 6). R(q) is loop-invariant across the
    // candidate sweep, so it is retrieved once and each candidate costs two
    // fused passes: S(R ∩ D(k) ∩ C) and S(R ∩ D(k)). They visit the bits
    // of R(q ∪ {k}) in the same ascending order EvaluateQuery would, so
    // the F-measure is bit-identical. Each candidate writes only its own
    // slot, merged below in candidate-index order, so any
    // SweepOptions::threads is byte-identical to serial.
    universe.RetrieveInto(query, &*base);
    const size_t n = context.candidates.size();
    candidate_f.assign(n, -1.0);
    evaluated.assign(n, 0);
    common::ParallelFor(sweep_.threads, n, [&](size_t i) {
      const TermId k = context.candidates[i];
      // A linear scan: the query holds a handful of terms, and the sweep
      // workers only read it.
      if (std::ranges::find(query, k) != query.end()) return;
      evaluated[i] = 1;
      const DynamicBitset& docs_k = universe.DocsWithTerm(k);
      candidate_f[i] =
          QualityFromWeights(
              universe.WeightOfAndAnd(*base, docs_k, context.cluster),
              universe.WeightOfAnd(*base, docs_k), s_cluster)
              .f_measure;
    });
    for (size_t i = 0; i < n; ++i) {
      if (evaluated[i] == 0) continue;
      ++recomputations;
      TermId k = context.candidates[i];
      double f = candidate_f[i];
      if (f > best_f || (f == best_f && best != kInvalidTermId && k < best &&
                         !best_is_removal)) {
        best_f = f;
        best = k;
        best_is_removal = false;
      }
    }
    if (best != kInvalidTermId && !best_is_removal) {
      *best_retrieved = *base;
      *best_retrieved &= universe.DocsWithTerm(best);
    }
    if (options_.allow_removal) {
      // Removals: every previously added keyword.
      for (TermId k : query) {
        if (std::ranges::find(context.user_query, k) !=
            context.user_query.end()) {
          continue;
        }
        ++recomputations;
        universe.RetrieveWithoutInto(query, k, &*r);
        double f = EvaluateQuery(universe, *r, context.cluster).f_measure;
        if (f > best_f) {
          best_f = f;
          best = k;
          best_is_removal = true;
          *best_retrieved = *r;
        }
      }
    }

    if (best == kInvalidTermId || best_f <= current_f) break;
    ++iterations;
    current_f = best_f;
    *retrieved = *best_retrieved;
    if (best_is_removal) {
      query.erase(std::find(query.begin(), query.end(), best));
    } else {
      query.push_back(best);
    }
  }

  ExpansionResult result;
  result.query = std::move(query);
  result.quality = EvaluateQuery(universe, *retrieved, context.cluster);
  result.iterations = iterations;
  result.value_recomputations = recomputations;
  return result;
}

}  // namespace qec::core
