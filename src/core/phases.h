#ifndef QEC_CORE_PHASES_H_
#define QEC_CORE_PHASES_H_

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace qec::core {

/// The steps of one QueryExpander request, in pipeline order.
enum class Phase : uint8_t {
  kAnalyze,     // query text to term ids
  kRetrieve,    // ranked search for the user query's results
  kUniverse,    // ResultUniverse over the used results
  kVectorize,   // cluster::CosineSpace over the universe's term rows
  kCluster,     // k-means / HAC / dynamic, silhouette included
  kCandidates,  // SelectCandidates
  kExpand,      // the expansion algorithm over every cluster
  kMinimize,    // MinimizeQuery (QueryExpanderOptions::minimize_queries)
};
inline constexpr size_t kNumPhases = static_cast<size_t>(Phase::kMinimize) + 1;

/// Phase names, indexed by Phase. Each phase also feeds the
/// `engine/phase/<name>_ns` histogram.
inline constexpr std::array<std::string_view, kNumPhases> kPhaseNames = {
    "analyze", "retrieve",   "universe", "vectorize",
    "cluster", "candidates", "expand",   "minimize"};

/// Nanoseconds one request spent in each phase; 0 for a phase that did not
/// run (ExpandClustered, for one, runs only candidates, expand and
/// minimize).
struct EnginePhases {
  std::array<uint64_t, kNumPhases> ns = {};

  uint64_t& operator[](Phase phase) { return ns[static_cast<size_t>(phase)]; }
  uint64_t operator[](Phase phase) const {
    return ns[static_cast<size_t>(phase)];
  }

  /// Adds every phase of `other` (an outer call's phases to an inner
  /// call's outcome).
  EnginePhases& operator+=(const EnginePhases& other);

  /// Expand plus minimize: the expander's own time, without analyze,
  /// search, clustering or candidate selection. EXPLAIN's `expansion_ms`
  /// and shadow A/B report this.
  uint64_t expansion_ns() const {
    return (*this)[Phase::kExpand] + (*this)[Phase::kMinimize];
  }
};

/// Times one phase from construction to destruction: adds the elapsed
/// nanoseconds to the phase's slot in `phases` and records them as one
/// sample of the phase's histogram. The timing always runs;
/// QEC_DISABLE_TRACING compiles out only the histogram.
class PhaseTimer {
 public:
  PhaseTimer(EnginePhases& phases, Phase phase)
      : slot_(&phases[phase]), phase_(phase), start_(Clock::now()) {}
  ~PhaseTimer();

  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

 private:
  using Clock = std::chrono::steady_clock;

  uint64_t* slot_;
  Phase phase_;
  Clock::time_point start_;
};

}  // namespace qec::core

#endif  // QEC_CORE_PHASES_H_
