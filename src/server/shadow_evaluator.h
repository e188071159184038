#ifndef QEC_SERVER_SHADOW_EVALUATOR_H_
#define QEC_SERVER_SHADOW_EVALUATOR_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/random.h"
#include "core/query_expander.h"
#include "server/lru_cache.h"

namespace qec::server {

/// Configuration of the shadow A/B layer (docs/OBSERVABILITY.md).
struct ShadowEvaluatorOptions {
  /// Fraction of successful foreground expansions re-run through the
  /// shadow arm, in [0, 1]. 0 disables shadowing entirely (no RNG draw,
  /// no metrics); 1 shadows every eligible request.
  double sample_rate = 0.0;
  /// The shadow arm's expansion algorithm. Requests whose effective
  /// foreground algorithm equals this are not sampled — there is nothing
  /// to compare.
  core::ExpansionAlgorithm algorithm = core::ExpansionAlgorithm::kPebc;
  /// Seed of the sampling RNG. The decision sequence is a pure function of
  /// (seed, sample_rate), so replays reproduce exactly which requests were
  /// shadowed.
  uint64_t seed = 42;
  /// Skip shadowing a (query, options) pair among the last 512 seen: under
  /// Zipfian traffic the head queries would otherwise soak up the entire
  /// shadow budget re-measuring the same comparison.
  bool dedupe = true;
  /// Most recent comparisons kept for the admin /abtest route.
  size_t history_capacity = 64;
};

/// One scored primary-vs-shadow comparison.
struct ShadowComparison {
  uint64_t trace_id = 0;
  std::string query;
  std::string primary_algo;
  std::string shadow_algo;
  /// Set scores (Eq. 1 harmonic mean of per-cluster F) of each arm.
  double primary_score = 0.0;
  double shadow_score = 0.0;
  /// Each arm's algorithm latency, nanoseconds: the outcome's
  /// EnginePhases::expansion_ns() (the expander alone, without analyze,
  /// search, clustering or candidate selection), on a cache hit too.
  uint64_t primary_expansion_ns = 0;
  uint64_t shadow_expansion_ns = 0;
  /// "primary", "shadow", or "tie" (ArmWinner).
  std::string winner;
};

/// The second arm of a two-arm comparison: `shadow`, or the primary's
/// counterpart (ISKR for PEBC, else PEBC) when `shadow` equals `primary`.
core::ExpansionAlgorithm SecondArm(core::ExpansionAlgorithm primary,
                                   core::ExpansionAlgorithm shadow);

/// The arm with the higher set score, or "tie" within 1e-9.
std::string_view ArmWinner(double primary_score, double shadow_score);

/// Monotonic per-arm tallies since construction.
struct ShadowTallies {
  /// Requests the sampler selected (before dedupe/shedding).
  uint64_t sampled = 0;
  /// Shadow runs that completed and were scored.
  uint64_t executed = 0;
  /// Sampled requests dropped because the admission class was full (or the
  /// server was shutting down).
  uint64_t shed = 0;
  /// Sampled requests skipped because the same comparison ran recently.
  uint64_t deduped = 0;
  /// Shadow runs that failed (the expander returned an error).
  uint64_t errors = 0;
  uint64_t primary_wins = 0;
  uint64_t shadow_wins = 0;
  uint64_t ties = 0;
  double primary_score_sum = 0.0;
  double shadow_score_sum = 0.0;
  uint64_t primary_expansion_ns_sum = 0;
  uint64_t shadow_expansion_ns_sum = 0;
};

/// The quality-observability core: decides which requests to shadow
/// (seeded, deterministic), scores primary vs shadow outcomes by set
/// score, and keeps per-arm tallies + a bounded history of recent
/// comparisons. All methods are thread-safe; the evaluator never runs
/// expansions itself — QecServer owns scheduling and execution so shadows
/// ride the existing worker pool as a sheddable, low-priority class.
///
/// Metrics (obs::MetricsRegistry → Prometheus `qec_shadow_*`): counters
/// shadow/{sampled,executed,shed,deduped,errors,wins_primary,wins_shadow,
/// ties}; histograms shadow/{primary,shadow}_score_milli (set score ×
/// 1000) and shadow/{primary,shadow}_expansion_ns.
class ShadowEvaluator {
 public:
  explicit ShadowEvaluator(ShadowEvaluatorOptions options);

  /// Draws the next sampling decision. Deterministic in construction order:
  /// two evaluators with equal (seed, sample_rate) return identical
  /// decision sequences. Does not count a sample — callers that act on a
  /// `true` follow up with exactly one of RecordDeduped / RecordShed /
  /// (Compare | RecordError), each of which records the sample.
  bool ShouldSample();

  /// True when `key` was shadowed recently (and should be skipped); marks
  /// the key either way. No-op returning false when dedupe is off.
  bool SeenRecently(const std::string& key);

  /// Scores one completed shadow run against its foreground counterpart,
  /// updates tallies/metrics/history, and returns the comparison.
  ShadowComparison Compare(uint64_t trace_id, const std::string& query,
                           const std::string& primary_algo,
                           double primary_score,
                           uint64_t primary_expansion_ns,
                           double shadow_score, uint64_t shadow_expansion_ns);

  /// Counts a sampled request dropped before execution.
  void RecordShed();
  /// Counts a sampled request skipped by dedupe.
  void RecordDeduped();
  /// Counts a shadow run that failed.
  void RecordError();

  ShadowTallies tallies() const;

  /// Up to `max` most recent comparisons, newest first.
  std::vector<ShadowComparison> Recent(size_t max) const;

  /// JSON body of the admin /abtest route: options, tallies, win rates, mean
  /// per-arm scores, and up to `max` recent comparisons.
  std::string AbtestJsonLine(size_t max) const;

 private:
  ShadowEvaluatorOptions options_;

  mutable std::mutex mu_;
  Rng rng_;
  ShadowTallies tallies_;
  std::deque<ShadowComparison> history_;
  std::unique_ptr<ShardedLruCache<std::string, bool>> dedupe_;
};

}  // namespace qec::server

#endif  // QEC_SERVER_SHADOW_EVALUATOR_H_
