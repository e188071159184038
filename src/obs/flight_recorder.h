#ifndef QEC_OBS_FLIGHT_RECORDER_H_
#define QEC_OBS_FLIGHT_RECORDER_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace qec::obs {

/// Everything worth keeping about one completed request: identity, where
/// the time went, and what the expander did. Plain integers rather than the
/// core stats structs so qec_obs stays dependency-free.
struct RequestRecord {
  /// Request trace id (16-hex-digit rendering in JSON); 0 = unknown.
  uint64_t trace_id = 0;
  /// Wall-clock completion time, milliseconds since the Unix epoch.
  uint64_t unix_ms = 0;
  /// Protocol verb: "EXPAND" or "EXPLAIN". Serialized only when it is not
  /// "EXPAND", so EXPAND lines keep their bytes.
  std::string verb = "EXPAND";
  std::string query;
  std::string algo;    // "ISKR" / "PEBC" / "F-measure"
  std::string status;  // StatusCodeName: "Ok", "DeadlineExceeded", ...
  bool from_cache = false;

  /// Per-stage latency breakdown (see server/request_context.h).
  uint64_t queue_wait_ns = 0;
  uint64_t cache_lookup_ns = 0;
  uint64_t expansion_ns = 0;
  uint64_t serialize_ns = 0;
  uint64_t total_ns = 0;

  /// Expander accounting, summed over clusters (ExpansionOutcome stats).
  uint64_t iskr_steps = 0;
  uint64_t iskr_candidates_evaluated = 0;
  uint64_t pebc_samples_drawn = 0;
  uint64_t pebc_candidates_evaluated = 0;

  /// Expansion quality (Eq. 1 set score); negative = not recorded (errors,
  /// non-expansion records). Serialized only when >= 0.
  double set_score = -1.0;
  /// True when the shadow A/B sampler enqueued a shadow run for this
  /// request.
  bool shadow_sampled = false;
  /// Shadow comparison fields; empty/negative/zero until a shadow run
  /// completed and was scored (they ride the comparison record, not the
  /// original request's). Serialized only when shadow_algo is non-empty.
  std::string shadow_algo;
  double shadow_set_score = -1.0;
  std::string ab_winner;  // "primary" / "shadow" / "tie"
  uint64_t shadow_expansion_ns = 0;

  /// One-line JSON object (also the JSONL dump format).
  std::string ToJsonLine() const;
};

/// Parses one ToJsonLine() line back into a record (unknown keys are
/// ignored; missing keys keep their defaults).
Result<RequestRecord> RequestRecordFromJson(std::string_view line);

/// Fixed-size ring buffer of recently completed request records, plus an
/// optional JSONL dump file for records worth keeping forever (errors and
/// slow requests — the caller decides and calls Dump()).
///
/// Record() takes one short mutex-guarded critical section (a handful of
/// string moves into a preallocated slot); it is cheap enough to stay on
/// for every request, which is the point of a flight recorder: when a
/// request goes wrong you already have its black box.
class FlightRecorder {
 public:
  explicit FlightRecorder(size_t capacity = 256);

  void Record(RequestRecord record);

  /// Up to `max` most recent records, newest first.
  std::vector<RequestRecord> Recent(size_t max) const;

  /// Total records ever passed to Record() (ring overwrites don't forget).
  uint64_t total_recorded() const;
  size_t capacity() const { return capacity_; }
  void Clear();

  /// Configures the JSONL dump file ("" disables). Opened in append mode
  /// per Dump() call — the dump path is the cold path.
  void SetDumpPath(std::string path);
  const std::string& dump_path() const { return dump_path_; }

  /// Appends one JSONL line to the dump file. No-op (returns true) when no
  /// dump path is configured; false on I/O failure.
  bool Dump(const RequestRecord& record);

  /// Records successfully written by Dump().
  uint64_t dumped() const { return dumped_.load(std::memory_order_relaxed); }

 private:
  const size_t capacity_;

  mutable std::mutex mu_;
  std::vector<RequestRecord> ring_;
  uint64_t total_ = 0;  // next slot is total_ % capacity_

  std::mutex dump_mu_;
  std::string dump_path_;
  std::atomic<uint64_t> dumped_{0};
};

}  // namespace qec::obs

#endif  // QEC_OBS_FLIGHT_RECORDER_H_
