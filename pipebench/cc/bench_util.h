// Shared helpers of the pipeline benchmark: clocks and process counters,
// percentile selection under the tail-sample rule, an in-memory span
// recorder, exact outcome comparison, and the driver's result line.
#ifndef PIPEBENCH_BENCH_UTIL_H_
#define PIPEBENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/query_expander.h"

namespace pipebench {

/// Steady-clock nanoseconds.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// User + system CPU seconds of the whole process, all threads: the sum
/// getrusage reports, read from CLOCK_PROCESS_CPUTIME_ID at nanosecond
/// resolution.
double ProcessCpuSeconds();

/// Peak resident set size of the process image in MiB (VmHWM). Unlike
/// ru_maxrss it starts over at exec, so the launcher's memory before the
/// exec does not count.
double PeakRssMb();

/// Median of `values` (mean of the middle pair for even sizes); 0 when
/// empty.
double Median(std::vector<double> values);

/// One timed request: its latency and the index of the query behind it.
struct Sample {
  double ms = 0.0;
  uint32_t query = 0;
};

/// A reported percentile needs at least this many samples ranked above it.
inline constexpr size_t kMinTailSamples = 10;

/// Nearest-rank index of quantile `q` (0 < q <= 1) among `n` >= 1 sorted
/// samples: ceil(q * n) - 1.
size_t RankIndex(size_t n, double q);

/// Samples ranked strictly above quantile `q`'s rank.
size_t SamplesBeyond(size_t n, double q);

/// Sorts `samples` by latency (ties by query) and returns the sample at
/// quantile `q`'s rank. `samples` must not be empty.
Sample PercentileSample(std::vector<Sample>* samples, double q);

/// One traced call: layer name, steady-clock start and end, the enclosing
/// span (-1 for a root) and the request it served.
struct Span {
  const char* name = nullptr;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;
  uint64_t request = 0;
};

/// Per-name totals over a recorder's spans.
struct SpanTotals {
  /// Duration minus the time the span's direct children cover.
  double self_ns = 0.0;
  double total_ns = 0.0;
  size_t spans = 0;
  /// Distinct requests with at least one span of this name.
  size_t requests = 0;
};

/// In-memory span log of one thread. Spans nest by call order: a span
/// begun while another is open is its child. Names must be string
/// literals (the recorder keeps the pointer).
class SpanRecorder {
 public:
  int32_t Begin(const char* name, uint64_t request);
  void End(int32_t index);

  const std::vector<Span>& spans() const { return spans_; }

  /// Totals per span name. Children of one thread run one after another,
  /// so they cover exactly the sum of their durations.
  std::map<std::string, SpanTotals> Totals() const;

  /// Writes one JSON array per span and line:
  /// [name, start_ns, end_ns, parent, request]. False on I/O failure.
  bool WriteJsonLines(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

/// RAII span on a recorder.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name, uint64_t request)
      : recorder_(recorder), index_(recorder->Begin(name, request)) {}
  ~ScopedSpan() { recorder_->End(index_); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  int32_t index_;
};

/// True when two outcomes agree exactly on everything an expansion
/// determines: cluster count, results used, set score, the algorithm
/// stats, and per query its terms, keywords, quality, cluster index and
/// size and iteration counts. Timing fields are ignored.
bool SameOutcome(const qec::core::ExpansionOutcome& a,
                 const qec::core::ExpansionOutcome& b);

/// The driver's one-line JSON result.
class ResultLine {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  /// `json` must be one complete JSON value.
  void Detail(const std::string& key, const std::string& json);
  void Error(const std::string& message);
  bool has_errors() const { return !errors_.empty(); }

  /// {"correct":..,"attempted":..,"failed":..,"metrics":{..},
  ///  "detail":{..},"errors":[..]}
  std::string Render(uint64_t attempted, uint64_t failed) const;

 private:
  std::string metrics_;
  std::string details_;
  std::vector<std::string> errors_;
};

}  // namespace pipebench

#endif  // PIPEBENCH_BENCH_UTIL_H_
