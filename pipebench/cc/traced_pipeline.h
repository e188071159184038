// QueryExpander's pipeline decomposed into the public calls of each layer,
// with a span around every call. The decomposition repeats the engine's
// steps in the engine's order (same k-means seed, same auto-k tie rule),
// so it returns the same clustering, expanded queries and set score as
// ExpandText / ExpandClustered; the self-tests and every traced run check
// that.
#ifndef PIPEBENCH_TRACED_PIPELINE_H_
#define PIPEBENCH_TRACED_PIPELINE_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "bench_util.h"
#include "cluster/kmeans.h"
#include "common/status.h"
#include "core/query_expander.h"
#include "core/result_universe.h"
#include "index/inverted_index.h"

namespace pipebench {

/// Span names, one per layer call. The driver's per-layer metrics carry
/// the same names.
inline constexpr char kSpanRequest[] = "request";
inline constexpr char kSpanAnalyze[] = "text.analyze";
inline constexpr char kSpanSearch[] = "index.search";
inline constexpr char kSpanUniverse[] = "core.universe.build";
inline constexpr char kSpanVectorize[] = "cluster.vectorize";
inline constexpr char kSpanKMeans[] = "cluster.kmeans";
inline constexpr char kSpanSilhouette[] = "cluster.silhouette";
inline constexpr char kSpanCandidates[] = "core.candidates.select";
inline constexpr char kSpanExpandIskr[] = "core.expand.iskr";
inline constexpr char kSpanExpandPebc[] = "core.expand.pebc";
inline constexpr char kSpanExpandFMeasure[] = "core.expand.fmeasure";
inline constexpr char kSpanAssemble[] = "core.assemble";

/// The expansion span name of `algorithm`.
const char* ExpandSpanName(qec::core::ExpansionAlgorithm algorithm);

/// Work counters of traced expansions, summed over requests.
struct LayerCounts {
  uint64_t results = 0;
  uint64_t universe_words = 0;
  uint64_t k_tried = 0;
  uint64_t k_chosen = 0;
  uint64_t silhouette_pairs = 0;
  uint64_t candidates = 0;
  /// Benefit/cost evaluations (ISKR, PEBC) or delta-F recomputations
  /// (F-measure).
  uint64_t candidates_evaluated = 0;
  uint64_t iskr_steps = 0;
  uint64_t pebc_samples = 0;
  uint64_t memo_hits = 0;
  uint64_t memo_misses = 0;
  uint64_t scratch_reuses = 0;
  uint64_t scratch_allocs = 0;

  void Add(const LayerCounts& other);
};

/// One traced ExpandText.
struct TracedExpansion {
  qec::core::ExpansionOutcome outcome;
  qec::cluster::Clustering clustering;
  LayerCounts counts;
};

/// QueryExpander(index, options).ExpandText(query) as analyze -> search
/// -> universe -> vectorize -> k-means per k -> silhouette per k ->
/// candidates -> per-cluster expansion -> assembly. Covers the engine's
/// default path (TF-IDF AND retrieval, k-means, no interleaving,
/// minimization or explain rows); other options are InvalidArgument.
/// Fails like ExpandText on queries without known terms or results.
qec::Result<TracedExpansion> TracedExpandText(
    const qec::index::InvertedIndex& index,
    const qec::core::QueryExpanderOptions& options, std::string_view query,
    SpanRecorder* spans, uint64_t request);

/// QueryExpander(index, options).ExpandClustered(...) as candidates ->
/// per-cluster expansion -> assembly. Adds its work counters, including
/// the universe's memo and scratch-arena activity during the call, to
/// `counts`.
qec::core::ExpansionOutcome TracedExpandClustered(
    const qec::index::InvertedIndex& index,
    const qec::core::QueryExpanderOptions& options,
    const std::vector<qec::TermId>& user_terms,
    const qec::core::ResultUniverse& universe,
    const qec::cluster::Clustering& clustering, SpanRecorder* spans,
    uint64_t request, LayerCounts* counts);

}  // namespace pipebench

#endif  // PIPEBENCH_TRACED_PIPELINE_H_
