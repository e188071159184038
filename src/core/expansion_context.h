#ifndef QEC_CORE_EXPANSION_CONTEXT_H_
#define QEC_CORE_EXPANSION_CONTEXT_H_

#include <vector>

#include "common/dynamic_bitset.h"
#include "common/types.h"
#include "core/metrics.h"
#include "core/result_universe.h"

namespace qec::core {

/// Input to a per-cluster expansion algorithm (Definition 2.2): the user
/// query, one cluster C (the ground truth), the results U in all other
/// clusters, and the candidate keywords the expanded query may add.
struct ExpansionContext {
  const ResultUniverse* universe = nullptr;
  /// The original user query terms. Every universe result contains them.
  std::vector<TermId> user_query;
  /// C: the target cluster, as a bitset over the universe.
  DynamicBitset cluster;
  /// U: results not in C (typically the complement of `cluster` within the
  /// universe, but callers may restrict it).
  DynamicBitset others;
  /// Keywords the algorithms may add to the query.
  std::vector<TermId> candidates;
};

/// Builds a context where U is the complement of C in the universe.
ExpansionContext MakeContext(const ResultUniverse& universe,
                             std::vector<TermId> user_query,
                             DynamicBitset cluster,
                             std::vector<TermId> candidates);

/// Per-run ISKR accounting (Sec. 3): what the incremental maintenance
/// actually did. Mirrors the "iskr/*" counters in the global
/// obs::MetricsRegistry; this copy is scoped to one Expand() call.
struct IskrStats {
  /// Refinement steps applied (additions + removals).
  size_t steps = 0;
  size_t additions = 0;
  size_t removals = 0;
  /// Benefit/cost entry (re)computations, including the initial pass over
  /// all candidates — the maintenance cost Sec. 5.3's speed claim hinges on.
  size_t candidates_evaluated = 0;
};

/// Per-run PEBC accounting (Sec. 4). Mirrors the "pebc/*" counters.
struct PebcStats {
  /// Sample queries built and evaluated.
  size_t samples_drawn = 0;
  /// Zoom-in rounds executed.
  size_t rounds = 0;
  /// Interval halvings (the zoom into the best adjacent sample pair).
  size_t intervals_zoomed = 0;
  /// Keyword benefit/cost evaluations the sample builds consulted, across
  /// all samples: one per candidate a sweep weighs, whether its value was
  /// computed or read from the run's per-R(q) table (pebc.cc). It is the
  /// algorithm's count, the same with or without the table, not the
  /// number of kernel passes.
  size_t candidates_evaluated = 0;
  /// Elimination target (percent of U's weight) of the winning sample.
  double best_target_percent = 0.0;
};

/// One per-term accounting row of an expansion, for EXPLAIN-style
/// diagnostics (opt-in via QueryExpanderOptions::explain_terms). For ISKR
/// the rows are the actual refinement steps (one per addition/removal, in
/// order, with the benefit/cost the step was chosen at); for PEBC and the
/// F-measure variant they are a post-hoc attribution: each added keyword's
/// benefit/cost evaluated in final-query order against the shrinking
/// retrieved set (ExplainAddedTerms).
struct TermExplain {
  TermId term = kInvalidTermId;
  /// True when the row removed the term from the query (ISKR only).
  bool is_removal = false;
  /// Weight eliminated from the other clusters (S(R ∩ U ∩ E(k))).
  double benefit = 0.0;
  /// Weight eliminated from the target cluster (S(R ∩ C ∩ E(k))).
  double cost = 0.0;
  /// benefit / cost; +inf when cost is 0 with positive benefit.
  double value = 0.0;
};

/// Post-hoc per-term benefit/cost attribution: walks `final_query`'s added
/// keywords (those not in the context's user query) in order, scoring each
/// against the retrieved set of the preceding prefix — exactly the sequence
/// of ISKR addition entries had the terms been added in that order (both
/// use AdditionEvaluator). A cluster-killing addition reports benefit =
/// cost = 0; none occurs in a query whose F-measure is above 0.
std::vector<TermExplain> ExplainAddedTerms(const ExpansionContext& context,
                                           const std::vector<TermId>& final_query);

/// Output of a per-cluster expansion algorithm.
struct ExpansionResult {
  /// The expanded query: the user query terms plus any added keywords.
  std::vector<TermId> query;
  /// Quality of `query` against the cluster.
  QueryQuality quality;
  /// Refinement iterations performed (algorithm-specific meaning).
  size_t iterations = 0;
  /// Number of keyword benefit/cost (or delta-F) recomputations — the
  /// maintenance cost the paper's efficiency comparison hinges on. Counts
  /// every evaluation the algorithm consults; PEBC's reads of its per-run
  /// table count too, so the figure is what Sec. 5.3 compares.
  size_t value_recomputations = 0;
  /// Filled by IskrExpander runs; zero otherwise.
  IskrStats iskr_stats;
  /// Filled by PebcExpander runs; zero otherwise.
  PebcStats pebc_stats;
  /// Per-term benefit/cost rows; empty unless the caller opted in
  /// (QueryExpanderOptions::explain_terms).
  std::vector<TermExplain> term_details;
};

/// Evaluates an arbitrary query against the context's cluster.
QueryQuality EvaluateAgainstCluster(const ExpansionContext& context,
                                    const std::vector<TermId>& query);

}  // namespace qec::core

#endif  // QEC_CORE_EXPANSION_CONTEXT_H_
