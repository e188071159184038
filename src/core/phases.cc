#include "core/phases.h"

#include "obs/metrics.h"

namespace qec::core {

namespace {

// One QEC_HISTOGRAM_RECORD site per phase: the macro caches its registry
// handle per call site.
void RecordPhase(Phase phase, uint64_t ns) {
  switch (phase) {
    case Phase::kAnalyze:
      QEC_HISTOGRAM_RECORD("engine/phase/analyze_ns", ns);
      break;
    case Phase::kRetrieve:
      QEC_HISTOGRAM_RECORD("engine/phase/retrieve_ns", ns);
      break;
    case Phase::kUniverse:
      QEC_HISTOGRAM_RECORD("engine/phase/universe_ns", ns);
      break;
    case Phase::kVectorize:
      QEC_HISTOGRAM_RECORD("engine/phase/vectorize_ns", ns);
      break;
    case Phase::kCluster:
      QEC_HISTOGRAM_RECORD("engine/phase/cluster_ns", ns);
      break;
    case Phase::kCandidates:
      QEC_HISTOGRAM_RECORD("engine/phase/candidates_ns", ns);
      break;
    case Phase::kExpand:
      QEC_HISTOGRAM_RECORD("engine/phase/expand_ns", ns);
      break;
    case Phase::kMinimize:
      QEC_HISTOGRAM_RECORD("engine/phase/minimize_ns", ns);
      break;
  }
}

}  // namespace

EnginePhases& EnginePhases::operator+=(const EnginePhases& other) {
  for (size_t i = 0; i < kNumPhases; ++i) ns[i] += other.ns[i];
  return *this;
}

PhaseTimer::~PhaseTimer() {
  const uint64_t elapsed = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start_)
          .count());
  *slot_ += elapsed;
  RecordPhase(phase_, elapsed);
}

}  // namespace qec::core
