#ifndef QEC_SERVER_SERVER_H_
#define QEC_SERVER_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/query_expander.h"
#include "index/inverted_index.h"
#include "obs/flight_recorder.h"
#include "server/lru_cache.h"
#include "server/protocol.h"
#include "server/request_context.h"
#include "server/shadow_evaluator.h"

namespace qec::server {

/// Configuration of a QecServer.
struct ServerOptions {
  /// Worker threads executing requests. 0 = auto (hardware concurrency);
  /// same knob semantics as QueryExpanderOptions::num_threads, via
  /// ResolveThreadCount.
  size_t num_threads = 0;
  /// Bounded admission queue: Submit sheds with Status Unavailable once
  /// this many requests are waiting, instead of queueing unboundedly.
  size_t queue_capacity = 128;
  /// Default per-request deadline in milliseconds (0 = none). A request
  /// whose deadline passes while it is still queued is shed with
  /// DeadlineExceeded; execution itself is never interrupted mid-run.
  uint64_t default_deadline_ms = 0;
  /// Full-response sharded LRU cache keyed by (normalized query, k,
  /// algorithm, options fingerprint) — see docs/SERVING.md.
  bool enable_expansion_cache = true;
  size_t expansion_cache_capacity = 1024;
  /// Enable the per-request ResultUniverse set-algebra memo
  /// (QueryExpanderOptions::memoize_set_algebra) on cache misses.
  bool enable_set_algebra_cache = true;
  /// Spawn the worker pool in the constructor. Tests set this to false so
  /// they can fill the admission queue deterministically, then call
  /// Start().
  bool start_workers = true;
  /// Ring size of the always-on flight recorder (/slowlog). Every submitted
  /// request leaves a record, whether a worker ran it, the cache answered
  /// it at admission, or it was rejected; the ring keeps the most recent
  /// ones.
  size_t flight_recorder_capacity = 256;
  /// Requests whose total latency reaches this many milliseconds are
  /// auto-dumped to `slowlog_dump_path` (0, or a threshold past the range
  /// of uint64 nanoseconds = no request is slow; only failed ones dump).
  uint64_t slow_request_threshold_ms = 0;
  /// JSONL append file for flight-recorder dumps: requests that end in
  /// DeadlineExceeded/Unavailable/Corruption or exceed
  /// `slow_request_threshold_ms`. "" disables dumping (the in-memory ring
  /// stays on regardless).
  std::string slowlog_dump_path;
  /// Shadow A/B execution (docs/OBSERVABILITY.md): fraction of successful
  /// foreground EXPANDs re-run through `shadow_algorithm` off the critical
  /// path and scored against the foreground arm. 0 disables the shadow
  /// layer entirely. The sampling RNG has a fixed seed, so a replayed
  /// workload samples the same requests.
  double shadow_sample_rate = 0.0;
  core::ExpansionAlgorithm shadow_algorithm =
      core::ExpansionAlgorithm::kPebc;
  /// Bounded low-priority queue of pending shadow runs: workers drain it
  /// only when the foreground queue is empty, and sampled shadows are shed
  /// (never queued foreground work) when either queue is full.
  size_t shadow_queue_capacity = 32;
  /// Skip shadowing a (query, options) pair seen recently so Zipf-head
  /// queries don't monopolize the shadow budget.
  bool shadow_dedupe = true;
  /// Base expander configuration; per-request ServeRequest fields overlay
  /// it. Note num_threads here is the *per-expansion* cluster parallelism;
  /// the server's own parallelism comes from its worker pool, so the
  /// default of 1 avoids thread multiplication under load.
  core::QueryExpanderOptions expander;
};

/// Monotonic totals since construction (ResetAll on the global metrics
/// registry does not affect these).
struct ServerStats {
  uint64_t submitted = 0;
  uint64_t admitted = 0;
  uint64_t completed = 0;
  uint64_t shed_queue_full = 0;
  uint64_t shed_deadline = 0;
  uint64_t cancelled = 0;
  /// Requests at or over ServerOptions::slow_request_threshold_ms.
  uint64_t slow_requests = 0;
  LruCacheStats expansion_cache;
};

/// Concurrent serving layer over one immutable InvertedIndex: a worker
/// pool fed by a bounded admission queue, with graceful shedding, per-
/// request deadlines/cancellation, and an expansion-result LRU cache.
/// Every request that runs the engine (an EXPAND that misses the cache, and
/// every EXPLAIN) runs on the pool. An EXPAND that hits the cache at
/// admission is answered on the submitting thread, through the same
/// finishing code as a worker; PING and STATS are answered on the caller's
/// thread through ControlResponse. The index (and its corpus) must outlive
/// the server; because they are immutable for the server's lifetime,
/// cached responses never need invalidation — rebuild the index and
/// restart the server to pick up new documents.
///
/// Everything is instrumented through qec_obs: server/queue_depth (+peak)
/// gauges, server/{admitted,shed_queue_full,shed_deadline,cancelled}
/// counters, server/cache_{hits,misses} counters,
/// server/{queue_wait_ns,request_latency_ns} histograms, per-stage
/// server/stage/{queue_wait,cache_lookup,expansion,serialize}_ns
/// histograms with exact gt_{1,10,100}ms tail counters, and an always-on
/// flight recorder of completed requests (/slowlog; errors and slow
/// requests auto-dump to ServerOptions::slowlog_dump_path as JSONL).
class QecServer {
 public:
  explicit QecServer(const index::InvertedIndex& index,
                     ServerOptions options = {});
  ~QecServer();

  QecServer(const QecServer&) = delete;
  QecServer& operator=(const QecServer&) = delete;

  /// Completion callback of a submitted request: invoked exactly once with
  /// the final response and its rendered `json_line`, on a worker thread
  /// for executed requests, or on the submitting thread (before SubmitBatch
  /// returns) for cache hits and immediate rejections. Callbacks must not
  /// block (the network front end completes the response on its event
  /// loop: in place when called there, by a post otherwise).
  using ResponseCallback = std::function<void(ServeResponse)>;

  /// One request of a batch submission.
  struct AsyncRequest {
    ServeRequest request;
    ResponseCallback on_done;
  };

  /// Admits a pipelined burst under a single queue-lock acquisition and one
  /// worker wakeup, so co-arriving requests for one hot cluster run back to
  /// back on cache-warm state instead of interleaving with unrelated work.
  /// The only admission path, for EXPAND and EXPLAIN alike. Each EXPAND is
  /// looked up in the expansion cache before the queue lock is taken; a hit
  /// is admitted and answered on the calling thread, never queued and never
  /// shed for a full queue. A PING or STATS is rejected with
  /// InvalidArgument, and a request past a full queue or at shutdown with
  /// Unavailable. Hits and rejections invoke their callbacks before
  /// SubmitBatch returns.
  void SubmitBatch(std::vector<AsyncRequest> batch);

  /// A batch of one whose future resolves with the response.
  std::future<ServeResponse> Submit(ServeRequest request);

  /// Spawns the worker pool if it is not already running.
  void Start();

  /// Stops accepting new requests, lets the workers drain the queue, and
  /// joins them. If the pool never started, queued requests are rejected
  /// with Unavailable. Idempotent; the destructor calls it.
  void Shutdown();

  size_t queue_depth() const;
  size_t num_workers() const;
  const ServerOptions& options() const { return options_; }
  ServerStats stats() const;

  /// One-line JSON for the STATS verb (embedded in the admin /statusz
  /// route): queue state, totals, cache stats, uptime, flight-recorder
  /// counts.
  std::string StatsJsonLine() const;

  /// JSON body of the admin /slowlog route: up to `max` most recent flight-
  /// recorder records, newest first. A `max` beyond the ring capacity is
  /// clamped, and the response reports the clamp (`requested`,
  /// `clamped_to`).
  std::string SlowlogJsonLine(size_t max) const;

  /// One-line JSON for the EXPLAIN verb: runs `request` through both the
  /// primary arm (its effective options) and the second arm (SecondArm of
  /// the shadow algorithm) with per-term diagnostics, on the calling
  /// thread and bypassing the expansion cache (cached outcomes carry no
  /// per-term rows). A queued EXPLAIN's `json_line` is this line, rendered
  /// by a worker in the expansion stage.
  std::string ExplainJsonLine(const ServeRequest& request) const;

  /// JSON body of the admin /abtest route: shadow tallies + up to `max`
  /// recent comparisons. Answers even when shadowing is disabled (all
  /// tallies zero).
  std::string AbtestJsonLine(size_t max) const;

  /// The one-line response to an immediate verb — PING or STATS, both
  /// O(1) — computed on the calling thread, without the final newline (the
  /// transport's line writer adds it). Both transports (NetServer and
  /// qec_cli's stdin loop) answer through it, so they agree byte for byte.
  std::string ControlResponse(const ServeRequest& request) const;

  /// Pending shadow runs (the low-priority queue).
  size_t shadow_queue_depth() const;
  /// Zero-value tallies when shadowing is disabled.
  ShadowTallies shadow_tallies() const;
  /// Nullptr when ServerOptions::shadow_sample_rate is 0.
  const ShadowEvaluator* shadow_evaluator() const { return shadow_.get(); }

  obs::FlightRecorder& flight_recorder() { return recorder_; }
  const obs::FlightRecorder& flight_recorder() const { return recorder_; }

  /// Seconds since construction.
  double uptime_seconds() const;

 private:
  using Clock = std::chrono::steady_clock;
  /// Entries are shared and immutable, so a hit's shard lock covers only a
  /// reference-count bump; the copy a hit returns is made outside it.
  using ResponseCache =
      ShardedLruCache<std::string, std::shared_ptr<const ServeResponse>>;

  struct Pending {
    ServeRequest request;
    ResponseCallback callback;
    /// Trace id, submit time, deadline, and stage stopwatch accumulators.
    RequestContext context;
    /// The EXPAND's expansion-cache key, built by its admission lookup and
    /// reused by the worker's; empty until then.
    std::string cache_key;
  };

  /// One queued shadow run: everything needed to re-run the query through
  /// the shadow arm and score it against the foreground result, detached
  /// from the foreground request's callback and deadline.
  struct ShadowJob {
    uint64_t trace_id = 0;
    std::string query;
    std::string primary_algo;
    double primary_score = 0.0;
    uint64_t primary_expansion_ns = 0;
    /// The foreground request's effective options with the algorithm
    /// swapped to the shadow arm.
    core::QueryExpanderOptions options;
  };

  /// Stamps submission time, trace id, and deadline onto a fresh Pending.
  Pending MakePending(ServeRequest request);
  /// Resolves `pending` with an error status and its rendered line without
  /// executing it, flight-recording the rejection.
  void Reject(Pending pending, Status status);

  void WorkerLoop();
  /// Processes one dequeued request end to end and invokes its callback.
  void Process(Pending pending);
  /// Looks an EXPAND up in the expansion cache, timed as its cache_lookup
  /// stage, building pending->cache_key on first use. Returns the hit with
  /// its per-request fields cleared, or nullopt (always, when the cache is
  /// off). `count_miss` false leaves a miss uncounted: the admission probe
  /// does, so the worker's lookup counts the one miss.
  std::optional<ServeResponse> Lookup(Pending* pending, bool count_miss);
  /// Runs a dequeued EXPAND: looks it up once more (an identical request
  /// queued before it may have filled the entry since admission), else runs
  /// the expander (expansion stage) and caches the result.
  ServeResponse Expand(Pending* pending);
  /// The one finishing path, for worker-run requests and admission hits:
  /// stamps `queue_wait_ns` and the response's identity and timing,
  /// samples an EXPAND for shadowing, renders the line (serialize stage),
  /// records the histograms and the flight record, counts the request
  /// completed, and invokes its callback.
  void Finish(Pending pending, ServeResponse response, uint64_t queue_wait_ns);
  /// Samples a completed foreground EXPAND; enqueues a ShadowJob (low
  /// priority, sheddable) when selected and sets context->shadow_sampled.
  void MaybeScheduleShadow(const ServeRequest& request,
                           const ServeResponse& response,
                           RequestContext* context);
  /// Runs one shadow job on a worker thread: expands through the shadow
  /// arm (never touching the expansion cache), scores the comparison, and
  /// flight-records it.
  void RunShadow(ShadowJob job);
  /// Effective expander options for one request: base + overlays.
  core::QueryExpanderOptions EffectiveOptions(const ServeRequest& r) const;
  void UpdateQueueDepthLocked();
  /// Flight-records one finished request and dumps it to the slowlog file
  /// when it failed in a dump-worthy way or crossed the slow threshold.
  void RecordFlight(const ServeRequest& request, const ServeResponse& response,
                    const RequestContext& context, uint64_t total_ns);

  const index::InvertedIndex* index_;
  ServerOptions options_;
  /// options_.slow_request_threshold_ms in nanoseconds; UINT64_MAX when no
  /// request counts as slow.
  const uint64_t slow_threshold_ns_;
  size_t pool_size_;
  Clock::time_point start_time_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Pending> queue_;
  /// Low-priority admission class: drained only when `queue_` is empty.
  std::deque<ShadowJob> shadow_queue_;
  std::vector<std::thread> workers_;
  bool stopping_ = false;
  size_t peak_queue_depth_ = 0;

  std::unique_ptr<ResponseCache> cache_;
  std::unique_ptr<ShadowEvaluator> shadow_;
  obs::FlightRecorder recorder_;

  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> admitted_{0};
  std::atomic<uint64_t> completed_{0};
  std::atomic<uint64_t> shed_queue_full_{0};
  std::atomic<uint64_t> shed_deadline_{0};
  std::atomic<uint64_t> cancelled_{0};
  std::atomic<uint64_t> slow_requests_{0};
};

}  // namespace qec::server

#endif  // QEC_SERVER_SERVER_H_
