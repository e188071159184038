#ifndef QEC_CORE_QUERY_EXPANDER_H_
#define QEC_CORE_QUERY_EXPANDER_H_

#include <string>
#include <string_view>
#include <vector>

#include "cluster/kmeans.h"
#include "common/status.h"
#include "core/candidates.h"
#include "core/exact.h"
#include "core/fmeasure_expander.h"
#include "core/iskr.h"
#include "core/metrics.h"
#include "core/pebc.h"
#include "core/phases.h"
#include "core/result_universe.h"
#include "core/sweep_options.h"
#include "index/inverted_index.h"

namespace qec::core {

/// Which per-cluster expansion algorithm the engine runs.
enum class ExpansionAlgorithm { kIskr, kPebc, kFMeasure };

std::string_view AlgorithmName(ExpansionAlgorithm algorithm);

/// How the engine retrieves and ranks the user query's results.
enum class RetrievalModel {
  /// AND semantics ranked by TF-IDF — the paper's setting (Sec. 2).
  kTfIdfAnd,
  /// Vector-space cosine over OR candidates (Sec. 7 future work).
  kVsm,
  /// Okapi BM25 over OR candidates.
  kBm25,
};

/// How the engine clusters the results.
enum class ClusteringAlgorithm {
  kKMeans,
  kHac,
  /// Silhouette-based choice between k-means and HAC (Sec. 7 future work:
  /// "choosing the best clustering method dynamically").
  kDynamic,
};

/// End-to-end engine configuration.
struct QueryExpanderOptions {
  /// Expanded queries are generated from the top-K results of the user
  /// query (0 = use all results). The paper uses the top 30 on Wikipedia.
  size_t top_k_results = 30;
  /// Upper bound on clusters == maximum number of expanded queries
  /// (the paper caps both at 5).
  size_t max_clusters = 5;
  /// Use TF-IDF ranking scores as result weights in S(.); when false all
  /// results weigh 1 (the unranked setting of Sec. 2).
  bool use_ranking_weights = true;
  ExpansionAlgorithm algorithm = ExpansionAlgorithm::kIskr;
  RetrievalModel retrieval = RetrievalModel::kTfIdfAnd;
  ClusteringAlgorithm clustering = ClusteringAlgorithm::kKMeans;
  /// Interleaved clustering/expansion rounds after the initial expansion
  /// (Sec. 7 future work; applies to the ISKR algorithm only).
  size_t interleave_rounds = 0;
  /// Threads used to expand clusters concurrently (clusters are
  /// independent — Sec. 2 notes each query can be generated independently).
  /// 1 = serial, 0 = auto (hardware concurrency); explicit values are
  /// clamped to the cluster count. Results are byte-identical regardless
  /// (see ResolveThreadCount in common/threading.h for the shared
  /// semantics with the qec_server pool).
  size_t num_threads = 1;
  /// Memoize small-arity Retrieve conjunctions on the per-request universe
  /// (ResultUniverse::EnableSetAlgebraCache). Identical results; the
  /// serving layer enables it by default.
  bool memoize_set_algebra = false;
  /// Drop keywords whose removal leaves the expanded query's result set
  /// unchanged (query_minimizer.h): same precision/recall, shorter
  /// suggestion.
  bool minimize_queries = false;
  /// Fill ExpandedQuery::term_details with per-term benefit/cost rows
  /// (EXPLAIN support). For ISKR these are the actual refinement steps;
  /// for PEBC/F-measure a post-hoc attribution pass. Does not change the
  /// produced queries, so it is excluded from the serving-layer options
  /// fingerprint — but explain requests bypass the expansion cache, which
  /// stores outcomes without the rows.
  bool explain_terms = false;
  CandidateOptions candidates;
  IskrOptions iskr;
  PebcOptions pebc;
  FMeasureOptions fmeasure;
  /// Shared benefit/cost sweep fan-out for whichever algorithm runs (the
  /// formerly triplicated sweep_threads knob; see core/sweep_options.h).
  SweepOptions sweep;
  /// Clustering knobs; .k is overridden by max_clusters. auto_k defaults
  /// on: max_clusters is the paper's upper bound, not an exact count.
  cluster::KMeansOptions kmeans = {
      .k = 5, .max_iterations = 50, .seed = 42, .auto_k = true};
};

/// One expanded query produced for one cluster.
struct ExpandedQuery {
  /// The query's terms (user query first, then added keywords).
  std::vector<TermId> terms;
  /// The same terms rendered as strings.
  std::vector<std::string> keywords;
  /// Quality against the cluster the query was generated for.
  QueryQuality quality;
  size_t cluster_index = 0;
  size_t cluster_size = 0;
  size_t iterations = 0;
  size_t value_recomputations = 0;
  /// Per-term benefit/cost rows; empty unless
  /// QueryExpanderOptions::explain_terms.
  std::vector<TermExplain> term_details;
};

/// Result of expanding one user query.
struct ExpansionOutcome {
  std::vector<ExpandedQuery> queries;
  /// Eq. 1: harmonic mean of the per-cluster F-measures.
  double set_score = 0.0;
  size_t num_results_used = 0;
  size_t num_clusters = 0;
  /// Where this request's engine time went, phase by phase.
  EnginePhases phases;
  /// Algorithm accounting aggregated over all clusters: counters are
  /// summed, PebcStats::best_target_percent is the max. Only the stats of
  /// the algorithm that actually ran are non-zero.
  IskrStats iskr_stats;
  PebcStats pebc_stats;
};

/// The QEC engine: retrieve the user query's (top-K) results, cluster them
/// with k-means over TF vectors and cosine similarity, and generate one
/// expanded query per cluster with the configured algorithm (Sec. 1-2).
class QueryExpander {
 public:
  QueryExpander(const index::InvertedIndex& index,
                QueryExpanderOptions options = {});

  /// Full pipeline from a query string. Fails with InvalidArgument when the
  /// query analyzes to no terms and NotFound when it retrieves nothing.
  Result<ExpansionOutcome> ExpandText(std::string_view user_query) const;

  /// Pipeline from pre-analyzed terms and pre-retrieved ranked results.
  Result<ExpansionOutcome> Expand(
      const std::vector<TermId>& user_terms,
      const std::vector<index::RankedResult>& results) const;

  /// Expansion only, over an existing universe and clustering. Fills only
  /// the candidates, expand and minimize phases.
  ExpansionOutcome ExpandClustered(const std::vector<TermId>& user_terms,
                                   const ResultUniverse& universe,
                                   const cluster::Clustering& clustering) const;

  const QueryExpanderOptions& options() const { return options_; }

 private:
  ExpansionResult RunAlgorithm(const ExpansionContext& context) const;

  const index::InvertedIndex* index_;
  QueryExpanderOptions options_;
};

}  // namespace qec::core

#endif  // QEC_CORE_QUERY_EXPANDER_H_
