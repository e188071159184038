#ifndef QEC_OBS_TRACE_H_
#define QEC_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"

namespace qec::obs {

/// Per-name aggregation node for one span name. Obtain via GetSpanSite()
/// (one mutex-guarded lookup; cache the reference — QEC_TRACE_SPAN does).
/// Durations also feed the "span/<name>" histogram in the global
/// MetricsRegistry, which is where p50/p95/p99 come from.
class SpanSite {
 public:
  explicit SpanSite(std::string name);

  const std::string& name() const { return name_; }
  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t total_ns() const {
    return total_ns_.load(std::memory_order_relaxed);
  }
  uint64_t self_ns() const { return self_ns_.load(std::memory_order_relaxed); }

 private:
  friend class ScopedSpan;
  friend void ResetSpans();

  std::string name_;
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> total_ns_{0};
  std::atomic<uint64_t> self_ns_{0};
  Histogram* duration_hist_;  // "span/<name>" in the global registry
};

/// The process-wide site for `name`, created on first use. Never freed.
SpanSite& GetSpanSite(std::string_view name);

/// RAII timing scope. Spans nest per thread: a parent's self time excludes
/// the wall time of spans opened inside it. Use via QEC_TRACE_SPAN.
class ScopedSpan {
 public:
  explicit ScopedSpan(SpanSite& site);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanSite* site_;
  uint64_t start_ns_;
};

/// Aggregated stats of every span name, sorted by total time descending.
std::vector<SpanStats> SnapshotSpans();

/// Zeroes all span aggregates and drops recorded trace events. Open spans
/// finish against the zeroed aggregates; sites stay valid.
void ResetSpans();

/// Global metrics + span aggregates in one snapshot (the full export).
MetricsSnapshot CaptureMetrics();

/// Aligned text profile of SnapshotSpans(): count, total/self/avg ms.
std::string SpanFlatProfile();

/// When enabled, every completed span also appends one event to a bounded
/// in-memory buffer (default 65536 events; older events are kept, new ones
/// dropped once full). Off by default — aggregation is always on.
void SetTraceEventRecording(bool enabled);

/// chrome://tracing / Perfetto-loadable JSON of the recorded events. Span
/// events carry the real OS thread/process ids (CurrentOsThreadId below),
/// so worker-pool spans land on their own tracks instead of misnesting
/// under the main thread.
std::string TraceEventsJson();
void ClearTraceEvents();

/// The calling thread's OS thread id (gettid on Linux; a hash of
/// std::thread::id elsewhere). Stable for the thread's lifetime.
uint32_t CurrentOsThreadId();

/// The process id (1 when the platform offers none).
uint32_t CurrentOsProcessId();

}  // namespace qec::obs

// Opens a scoped span named `name` (a per-call-site constant). Expands to
// two declarations: place it at block scope as a statement. Compiles out
// entirely under QEC_DISABLE_TRACING.
#ifndef QEC_DISABLE_TRACING
#define QEC_TRACE_SPAN(name)                                               \
  static ::qec::obs::SpanSite& QEC_OBS_CONCAT_(qec_obs_span_site_,         \
                                               __LINE__) =                 \
      ::qec::obs::GetSpanSite(name);                                       \
  ::qec::obs::ScopedSpan QEC_OBS_CONCAT_(qec_obs_span_, __LINE__)(         \
      QEC_OBS_CONCAT_(qec_obs_span_site_, __LINE__))
#else
#define QEC_TRACE_SPAN(name) \
  do {                       \
  } while (0)
#endif

#endif  // QEC_OBS_TRACE_H_
