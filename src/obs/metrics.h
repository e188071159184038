#ifndef QEC_OBS_METRICS_H_
#define QEC_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace qec::obs {

/// Monotonic event counter. All operations are lock-free relaxed atomics:
/// safe to increment from any thread inside hot loops.
class Counter {
 public:
  void Add(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  void Increment() { Add(1); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-write-wins double gauge (Add uses a CAS loop).
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  void Add(double delta);
  double value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { Set(0.0); }

 private:
  std::atomic<double> value_{0.0};
};

/// One exemplar: the most recent traced observation that landed in a
/// histogram bucket — the exact recorded value, the request's trace id, and
/// the wall-clock time. Exposed on `_bucket` lines in OpenMetrics format so
/// a slow bucket links straight to its flight-recorder record.
struct Exemplar {
  uint64_t trace_id = 0;  // 0 = no exemplar recorded
  uint64_t value = 0;
  uint64_t unix_ms = 0;
};

/// Fixed-bucket histogram over non-negative integer samples (typically
/// nanoseconds). Buckets are base-2 exponential: bucket 0 holds the value
/// 0 and bucket i (i >= 1) holds [2^(i-1), 2^i - 1], so Record() is a
/// bit_width plus two relaxed increments. Percentiles interpolate linearly
/// inside the containing bucket.
class Histogram {
 public:
  /// bit_width(uint64) ranges over [0, 64].
  static constexpr size_t kNumBuckets = 65;

  void Record(uint64_t value);

  /// Record() plus a bucket exemplar: the trace id (0 = skip the exemplar)
  /// and value are stored on the containing bucket, last-writer-wins. The
  /// exemplar store takes a mutex — this is for once-per-request latency
  /// sites, not inner loops (Record() stays lock-free).
  void Record(uint64_t value, uint64_t exemplar_trace_id);

  /// The most recent exemplar of bucket i (trace_id 0 when none).
  Exemplar BucketExemplar(size_t i) const;

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  /// 0 when empty.
  uint64_t min() const;
  uint64_t max() const { return max_.load(std::memory_order_relaxed); }
  uint64_t BucketCount(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  /// Inclusive upper bound of bucket i.
  static uint64_t BucketUpperBound(size_t i);

  using BucketCounts = std::array<uint64_t, kNumBuckets>;

  /// Estimated percentiles, one per q in `qs` (each in [0, 100]; 0 when
  /// empty). All of them come from one copy of the bucket counts, so they
  /// are monotone in q even while Record()s land. When `buckets` is
  /// non-null it receives that copy.
  std::vector<double> Percentiles(std::initializer_list<double> qs,
                                  BucketCounts* buckets = nullptr) const;

  /// Estimated q-th percentile (q in [0, 100]); 0 when empty.
  double Percentile(double q) const { return Percentiles({q})[0]; }

  void Reset();

 private:
  std::atomic<uint64_t> buckets_[kNumBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> min_{UINT64_MAX};
  std::atomic<uint64_t> max_{0};
  /// Guards exemplars_ so a snapshot never sees a torn (trace, value) pair;
  /// only the traced Record overload and BucketExemplar touch it.
  mutable std::mutex exemplar_mu_;
  Exemplar exemplars_[kNumBuckets] = {};
};

struct HistogramSnapshot {
  /// One bucket's exemplar keyed by the bucket's inclusive upper bound
  /// (matching the `buckets` entries).
  struct BucketExemplar {
    uint64_t upper = 0;
    Exemplar exemplar;
  };

  std::string name;
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t min = 0;
  uint64_t max = 0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  /// (inclusive upper bound, count) for non-empty buckets only.
  std::vector<std::pair<uint64_t, uint64_t>> buckets;
  /// Exemplars of the non-empty buckets that have one, in bucket order.
  std::vector<BucketExemplar> exemplars;
};

/// Point-in-time copy of every metric, exportable to JSON.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<HistogramSnapshot> histograms;

  /// {"counters": {...}, "gauges": {...}, "histograms": {...}} — see
  /// docs/OBSERVABILITY.md for the schema.
  std::string ToJson() const;
};

/// Process-wide registry of named metrics. Lookup takes a mutex — resolve
/// handles once (the QEC_COUNTER_ADD family caches them in function-local
/// statics) and use the returned pointer in hot code. Handles stay valid
/// for the process lifetime; ResetAll() zeroes values without invalidating
/// them.
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  Counter* GetCounter(std::string_view name);
  Gauge* GetGauge(std::string_view name);
  Histogram* GetHistogram(std::string_view name);

  /// Counters/gauges/histograms sorted by name.
  MetricsSnapshot Snapshot() const;

  /// Zeroes every metric (handles remain valid). Intended for tests and
  /// for benches isolating a measured region.
  void ResetAll();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

}  // namespace qec::obs

// Hot-path instrumentation macros. `name` must be a per-call-site constant:
// the registry handle is resolved once and cached in a function-local
// static. Define QEC_DISABLE_TRACING to compile them out entirely.
#ifndef QEC_DISABLE_TRACING

#define QEC_COUNTER_ADD(name, delta)                            \
  do {                                                          \
    static ::qec::obs::Counter* const qec_obs_counter_ =        \
        ::qec::obs::MetricsRegistry::Global().GetCounter(name); \
    qec_obs_counter_->Add(delta);                               \
  } while (0)

#define QEC_GAUGE_SET(name, v)                                \
  do {                                                        \
    static ::qec::obs::Gauge* const qec_obs_gauge_ =          \
        ::qec::obs::MetricsRegistry::Global().GetGauge(name); \
    qec_obs_gauge_->Set(v);                                   \
  } while (0)

#define QEC_HISTOGRAM_RECORD(name, v)                             \
  do {                                                            \
    static ::qec::obs::Histogram* const qec_obs_hist_ =           \
        ::qec::obs::MetricsRegistry::Global().GetHistogram(name); \
    qec_obs_hist_->Record(v);                                     \
  } while (0)

// Record plus a bucket exemplar carrying the request's trace id, so the
// Prometheus exposition can link a latency bucket to its flight-recorder
// record. Use only at once-per-request sites (the exemplar store locks).
#define QEC_HISTOGRAM_RECORD_TRACED(name, v, trace_id)            \
  do {                                                            \
    static ::qec::obs::Histogram* const qec_obs_hist_ =           \
        ::qec::obs::MetricsRegistry::Global().GetHistogram(name); \
    qec_obs_hist_->Record(v, trace_id);                           \
  } while (0)

#else

// (void)sizeof keeps the argument "used" without evaluating it, so call
// sites compile warning-free with instrumentation disabled.
#define QEC_COUNTER_ADD(name, delta) \
  do {                               \
    (void)sizeof(delta);             \
  } while (0)
#define QEC_GAUGE_SET(name, v) \
  do {                         \
    (void)sizeof(v);           \
  } while (0)
#define QEC_HISTOGRAM_RECORD(name, v) \
  do {                                \
    (void)sizeof(v);                  \
  } while (0)
#define QEC_HISTOGRAM_RECORD_TRACED(name, v, trace_id) \
  do {                                                 \
    (void)sizeof(v);                                   \
    (void)sizeof(trace_id);                            \
  } while (0)

#endif  // QEC_DISABLE_TRACING

#define QEC_COUNTER_INC(name) QEC_COUNTER_ADD(name, 1)

#endif  // QEC_OBS_METRICS_H_
