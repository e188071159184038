#ifndef QEC_CORE_SWEEP_OPTIONS_H_
#define QEC_CORE_SWEEP_OPTIONS_H_

#include <cstddef>

namespace qec::core {

/// Shared configuration of the benefit/cost candidate sweeps. All three
/// expansion algorithms (ISKR, PEBC, F-measure) run each sweep through
/// common::ParallelFor: every candidate's value is computed whole by one
/// worker and merged in candidate-index order, so any thread count is
/// byte-identical to the serial sweep. Set once by the CLI/server wiring.
struct SweepOptions {
  /// Workers per sweep: 1 = serial (a plain inline loop), 0 = auto;
  /// values are clamped to the candidate count (ResolveThreadCount
  /// semantics, like QueryExpanderOptions::num_threads).
  size_t threads = 1;
};

}  // namespace qec::core

#endif  // QEC_CORE_SWEEP_OPTIONS_H_
