#include "server/server.h"

#include <limits>
#include <utility>

#include "common/simd_kernels.h"
#include "common/sweep_pool.h"
#include "common/threading.h"
#include "obs/json.h"
#include "obs/metrics.h"

namespace qec::server {

namespace {

uint64_t ToNanos(std::chrono::steady_clock::duration d) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(d).count());
}

double ToSeconds(std::chrono::steady_clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

uint64_t UnixMillisNow() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

/// Exact per-stage tail counters: histogram buckets are power-of-two wide
/// at the millisecond scale, so "how many requests crossed 10ms in
/// expansion" needs its own counters to be exact rather than estimated.
void RecordStageTails(const StageTimings& stages) {
  const uint64_t qw = stages[Stage::kQueueWait];
  if (qw > 1'000'000) QEC_COUNTER_INC("server/stage/queue_wait_gt_1ms");
  if (qw > 10'000'000) QEC_COUNTER_INC("server/stage/queue_wait_gt_10ms");
  if (qw > 100'000'000) QEC_COUNTER_INC("server/stage/queue_wait_gt_100ms");
  const uint64_t cl = stages[Stage::kCacheLookup];
  if (cl > 1'000'000) QEC_COUNTER_INC("server/stage/cache_lookup_gt_1ms");
  if (cl > 10'000'000) QEC_COUNTER_INC("server/stage/cache_lookup_gt_10ms");
  if (cl > 100'000'000) QEC_COUNTER_INC("server/stage/cache_lookup_gt_100ms");
  const uint64_t ex = stages[Stage::kExpansion];
  if (ex > 1'000'000) QEC_COUNTER_INC("server/stage/expansion_gt_1ms");
  if (ex > 10'000'000) QEC_COUNTER_INC("server/stage/expansion_gt_10ms");
  if (ex > 100'000'000) QEC_COUNTER_INC("server/stage/expansion_gt_100ms");
  const uint64_t se = stages[Stage::kSerialize];
  if (se > 1'000'000) QEC_COUNTER_INC("server/stage/serialize_gt_1ms");
  if (se > 10'000'000) QEC_COUNTER_INC("server/stage/serialize_gt_10ms");
  if (se > 100'000'000) QEC_COUNTER_INC("server/stage/serialize_gt_100ms");
}

void RecordStageHistograms(const StageTimings& stages, uint64_t trace_id) {
  // Traced records attach the request's trace id as a bucket exemplar, so
  // a slow bucket on the scrape links straight to its flight-recorder
  // record (/slowlog, or EXPLAIN by trace id).
  QEC_HISTOGRAM_RECORD_TRACED("server/stage/queue_wait_ns",
                              stages[Stage::kQueueWait], trace_id);
  QEC_HISTOGRAM_RECORD_TRACED("server/stage/cache_lookup_ns",
                              stages[Stage::kCacheLookup], trace_id);
  QEC_HISTOGRAM_RECORD_TRACED("server/stage/expansion_ns",
                              stages[Stage::kExpansion], trace_id);
  QEC_HISTOGRAM_RECORD_TRACED("server/stage/serialize_ns",
                              stages[Stage::kSerialize], trace_id);
  RecordStageTails(stages);
}

bool IsCancelled(const ServeRequest& request) {
  return request.cancel != nullptr &&
         request.cancel->load(std::memory_order_relaxed);
}

/// The slow-request threshold in nanoseconds; 0 and one past the range of
/// uint64 nanoseconds (whose product would wrap) mean no request is slow.
uint64_t SlowThresholdNs(uint64_t threshold_ms) {
  constexpr uint64_t kMaxMs = std::numeric_limits<uint64_t>::max() / 1'000'000;
  return threshold_ms != 0 && threshold_ms <= kMaxMs
             ? threshold_ms * 1'000'000
             : std::numeric_limits<uint64_t>::max();
}

}  // namespace

QecServer::QecServer(const index::InvertedIndex& index, ServerOptions options)
    : index_(&index),
      options_(std::move(options)),
      slow_threshold_ns_(SlowThresholdNs(options_.slow_request_threshold_ms)),
      start_time_(Clock::now()),
      recorder_(options_.flight_recorder_capacity) {
  pool_size_ = ResolveThreadCount(options_.num_threads,
                                  std::numeric_limits<size_t>::max());
  if (options_.enable_expansion_cache) {
    cache_ = std::make_unique<ResponseCache>(options_.expansion_cache_capacity);
  }
  if (options_.shadow_sample_rate > 0.0) {
    ShadowEvaluatorOptions shadow_options;
    shadow_options.sample_rate = options_.shadow_sample_rate;
    shadow_options.algorithm = options_.shadow_algorithm;
    shadow_options.dedupe = options_.shadow_dedupe;
    shadow_ = std::make_unique<ShadowEvaluator>(shadow_options);
  }
  recorder_.SetDumpPath(options_.slowlog_dump_path);
  if (options_.start_workers) Start();
}

QecServer::~QecServer() { Shutdown(); }

void QecServer::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (stopping_ || !workers_.empty()) return;
  workers_.reserve(pool_size_);
  for (size_t i = 0; i < pool_size_; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

void QecServer::Shutdown() {
  std::vector<std::thread> to_join;
  std::deque<Pending> to_reject;
  std::deque<ShadowJob> shadows_to_drop;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
    to_join.swap(workers_);
    // Shadows are best-effort: pending ones are dropped (shed) at shutdown
    // rather than draining, whether or not the pool ran.
    shadows_to_drop.swap(shadow_queue_);
    if (to_join.empty()) {
      // Pool never ran (or already joined): nobody will drain the queue,
      // so reject whatever is still waiting.
      to_reject.swap(queue_);
      UpdateQueueDepthLocked();
    }
  }
  cv_.notify_all();
  if (shadow_ != nullptr) {
    for (size_t i = 0; i < shadows_to_drop.size(); ++i) shadow_->RecordShed();
  }
  for (auto& pending : to_reject) {
    Reject(std::move(pending), Status::Unavailable("server shutting down"));
  }
  for (auto& worker : to_join) worker.join();
}

QecServer::Pending QecServer::MakePending(ServeRequest request) {
  submitted_.fetch_add(1, std::memory_order_relaxed);
  QEC_COUNTER_INC("server/requests");
  Pending pending;
  pending.context.submit_time = Clock::now();
  pending.context.trace_id =
      request.trace_id != 0 ? request.trace_id : GenerateTraceId();
  const uint64_t deadline_ms = request.deadline_ms != 0
                                   ? request.deadline_ms
                                   : options_.default_deadline_ms;
  // A deadline past the clock's range means no deadline; bounding it here
  // also keeps the milliseconds -> clock-tick conversion from overflowing.
  const uint64_t headroom_ms = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          Clock::time_point::max() - pending.context.submit_time)
          .count());
  pending.context.deadline =
      deadline_ms != 0 && deadline_ms < headroom_ms
          ? pending.context.submit_time + std::chrono::milliseconds(deadline_ms)
          : Clock::time_point::max();
  pending.request = std::move(request);
  return pending;
}

void QecServer::Reject(Pending pending, Status status) {
  ServeResponse response;
  response.status = std::move(status);
  response.trace_id = pending.context.trace_id;
  const uint64_t total_ns = ToNanos(Clock::now() - pending.context.submit_time);
  response.total_seconds = static_cast<double>(total_ns) / 1e9;
  response.json_line = ResponseToJsonLine(response);
  RecordFlight(pending.request, response, pending.context, total_ns);
  pending.callback(std::move(response));
}

std::future<ServeResponse> QecServer::Submit(ServeRequest request) {
  auto promise = std::make_shared<std::promise<ServeResponse>>();
  std::future<ServeResponse> future = promise->get_future();
  std::vector<AsyncRequest> batch(1);
  batch[0].request = std::move(request);
  batch[0].on_done = [promise](ServeResponse response) {
    promise->set_value(std::move(response));
  };
  SubmitBatch(std::move(batch));
  return future;
}

void QecServer::SubmitBatch(std::vector<AsyncRequest> batch) {
  std::vector<Pending> to_admit;
  to_admit.reserve(batch.size());
  // Cache hits and rejections are resolved outside the queue lock:
  // callbacks may do arbitrary work (complete a connection's slot) and must
  // never run under mu_.
  std::vector<std::pair<Pending, ServeResponse>> hits;
  std::vector<std::pair<Pending, Status>> to_reject;

  for (auto& entry : batch) {
    Pending pending = MakePending(std::move(entry.request));
    pending.callback = std::move(entry.on_done);
    if (IsImmediateVerb(pending.request.verb)) {
      to_reject.emplace_back(
          std::move(pending),
          Status::InvalidArgument(
              "only EXPAND and EXPLAIN go through the request queue"));
      continue;
    }
    // A cancelled request goes to the pool, which drops it as cancelled.
    if (pending.request.verb == ServeRequest::Verb::kExpand &&
        !IsCancelled(pending.request)) {
      std::optional<ServeResponse> hit = Lookup(&pending, /*count_miss=*/false);
      if (hit.has_value()) {
        hits.emplace_back(std::move(pending), *std::move(hit));
        continue;
      }
    }
    to_admit.push_back(std::move(pending));
  }

  size_t admitted = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      for (auto& [pending, response] : hits) {
        to_reject.emplace_back(std::move(pending),
                               Status::Unavailable("server shutting down"));
      }
      hits.clear();
    }
    admitted_.fetch_add(hits.size(), std::memory_order_relaxed);
    QEC_COUNTER_ADD("server/admitted", hits.size());
    for (auto& pending : to_admit) {
      if (stopping_) {
        to_reject.emplace_back(std::move(pending),
                               Status::Unavailable("server shutting down"));
        continue;
      }
      if (queue_.size() >= options_.queue_capacity) {
        shed_queue_full_.fetch_add(1, std::memory_order_relaxed);
        QEC_COUNTER_INC("server/shed_queue_full");
        to_reject.emplace_back(std::move(pending),
                               Status::Unavailable("admission queue full"));
        continue;
      }
      admitted_.fetch_add(1, std::memory_order_relaxed);
      QEC_COUNTER_INC("server/admitted");
      queue_.push_back(std::move(pending));
      ++admitted;
    }
    if (admitted > 0) UpdateQueueDepthLocked();
  }
  QEC_HISTOGRAM_RECORD("server/batch_admitted", admitted);
  if (admitted == 1) {
    cv_.notify_one();
  } else if (admitted > 1) {
    cv_.notify_all();
  }
  // Hits finish after the misses are handed to the pool, so the workers
  // start on them while this thread renders. A hit's queue_wait is its
  // admission time: submission until its finish, less its lookup.
  for (auto& [pending, response] : hits) {
    const uint64_t admission_ns =
        ToNanos(Clock::now() - pending.context.submit_time) -
        pending.context.stages[Stage::kCacheLookup];
    Finish(std::move(pending), std::move(response), admission_ns);
  }
  for (auto& [pending, status] : to_reject) {
    Reject(std::move(pending), std::move(status));
  }
}

void QecServer::WorkerLoop() {
  for (;;) {
    Pending pending;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] {
        return stopping_ || !queue_.empty() || !shadow_queue_.empty();
      });
      if (queue_.empty()) {
        if (stopping_) return;  // Foreground drained; shadows are dropped.
        // Foreground queue empty: drain the low-priority class. Shadows
        // only ever run in cycles a foreground request would have left
        // idle — a new Submit wakes another worker via cv_.
        ShadowJob job = std::move(shadow_queue_.front());
        shadow_queue_.pop_front();
        lock.unlock();
        RunShadow(std::move(job));
        continue;
      }
      pending = std::move(queue_.front());
      queue_.pop_front();
      UpdateQueueDepthLocked();
    }
    Process(std::move(pending));
  }
}

void QecServer::Process(Pending pending) {
  const Clock::time_point dequeue_time = Clock::now();
  const uint64_t queue_wait_ns =
      ToNanos(dequeue_time - pending.context.submit_time);

  ServeResponse response;
  const ServeRequest& request = pending.request;
  if (IsCancelled(request)) {
    cancelled_.fetch_add(1, std::memory_order_relaxed);
    QEC_COUNTER_INC("server/cancelled");
    response.status = Status::Cancelled("request cancelled before execution");
  } else if (dequeue_time > pending.context.deadline) {
    shed_deadline_.fetch_add(1, std::memory_order_relaxed);
    QEC_COUNTER_INC("server/shed_deadline");
    response.status =
        Status::DeadlineExceeded("deadline passed while request was queued");
  } else if (request.verb == ServeRequest::Verb::kExplain) {
    // Both arms and their line are one expansion stage, outside the
    // expansion cache and the shadow sampler.
    StageTimer timer(pending.context, Stage::kExpansion);
    response.json_line = ExplainJsonLine(request);
  } else {
    response = Expand(&pending);
  }
  Finish(std::move(pending), std::move(response), queue_wait_ns);
}

void QecServer::Finish(Pending pending, ServeResponse response,
                       uint64_t queue_wait_ns) {
  RequestContext& context = pending.context;
  const ServeRequest& request = pending.request;
  context.stages[Stage::kQueueWait] = queue_wait_ns;
  QEC_HISTOGRAM_RECORD("server/queue_wait_ns", queue_wait_ns);
  if (request.verb == ServeRequest::Verb::kExpand) {
    MaybeScheduleShadow(request, response, &context);
  }

  // Render the wire line here, inside the timed serialize stage, unless
  // EXPLAIN already did. The stages_ms the line itself carries therefore
  // shows serialize as 0 (a miss's outcome-tail render included); the
  // response struct, the stage histograms, and the flight recorder all get
  // the real value.
  response.trace_id = context.trace_id;
  response.queue_seconds = static_cast<double>(queue_wait_ns) / 1e9;
  response.total_seconds = ToSeconds(Clock::now() - context.submit_time);
  response.stages = context.stages;
  response.stages[Stage::kSerialize] = 0;
  {
    StageTimer timer(context, Stage::kSerialize);
    if (response.json_line.empty()) {
      response.json_line = ResponseToJsonLine(response);
    }
  }
  response.stages = context.stages;

  const Clock::time_point done = Clock::now();
  const uint64_t total_ns = ToNanos(done - context.submit_time);
  response.total_seconds = static_cast<double>(total_ns) / 1e9;
  QEC_HISTOGRAM_RECORD_TRACED("server/request_latency_ns", total_ns,
                              context.trace_id);
  RecordStageHistograms(context.stages, context.trace_id);
  if (total_ns >= slow_threshold_ns_) {
    slow_requests_.fetch_add(1, std::memory_order_relaxed);
    QEC_COUNTER_INC("server/slow_requests");
  }
  completed_.fetch_add(1, std::memory_order_relaxed);
  QEC_COUNTER_INC("server/completed");
  RecordFlight(request, response, context, total_ns);
  pending.callback(std::move(response));
}

std::optional<ServeResponse> QecServer::Lookup(Pending* pending,
                                               bool count_miss) {
  if (cache_ == nullptr) return std::nullopt;
  StageTimer timer(pending->context, Stage::kCacheLookup);
  std::string& key = pending->cache_key;
  if (key.empty()) {
    const core::QueryExpanderOptions effective =
        EffectiveOptions(pending->request);
    key = ExpansionCacheKey(NormalizeQuery(pending->request.query),
                            effective.max_clusters, effective.algorithm,
                            OptionsFingerprint(effective));
  }
  const std::optional<std::shared_ptr<const ServeResponse>> entry =
      count_miss ? cache_->Get(key) : cache_->Probe(key);
  if (!entry.has_value()) {
    if (count_miss) QEC_COUNTER_INC("server/cache_misses");
    return std::nullopt;
  }
  QEC_COUNTER_INC("server/cache_hits");
  std::optional<ServeResponse> hit(**entry);
  hit->from_cache = true;
  // Identity and timing are per-request, never per-cache-entry: drop
  // whatever the original computation left behind. rendered_tail stays: it
  // depends only on the outcome, which is exactly what the cache
  // deduplicates.
  hit->trace_id = 0;
  hit->stages = StageTimings{};
  hit->json_line.clear();
  return hit;
}

ServeResponse QecServer::Expand(Pending* pending) {
  std::optional<ServeResponse> hit = Lookup(pending, /*count_miss=*/true);
  if (hit.has_value()) return *std::move(hit);

  ServeResponse response;
  const core::QueryExpanderOptions effective =
      EffectiveOptions(pending->request);
  Result<core::ExpansionOutcome> outcome = [&] {
    StageTimer timer(pending->context, Stage::kExpansion);
    core::QueryExpander expander(*index_, effective);
    return expander.ExpandText(pending->request.query);
  }();
  if (!outcome.ok()) {
    response.status = outcome.status();
    return response;
  }
  response.outcome = *std::move(outcome);
  if (cache_ != nullptr) {
    // Only successful expansions are cached (no negative caching): errors
    // are either caller mistakes or transient, and both should re-resolve.
    // The rendered tail rides along with the entry so hits splice a string
    // instead of re-formatting the whole queries array per request; it is
    // rendering, so it times as serialize, and only the Put as lookup.
    {
      StageTimer timer(pending->context, Stage::kSerialize);
      response.rendered_tail = RenderOutcomeTail(response.outcome);
    }
    StageTimer timer(pending->context, Stage::kCacheLookup);
    cache_->Put(pending->cache_key,
                std::make_shared<const ServeResponse>(response));
  }
  return response;
}

void QecServer::MaybeScheduleShadow(const ServeRequest& request,
                                    const ServeResponse& response,
                                    RequestContext* context) {
  // Only a successful EXPAND gets here with an ok status.
  if (shadow_ == nullptr || !response.status.ok()) return;

  const core::QueryExpanderOptions effective = EffectiveOptions(request);
  // Same algorithm on both arms compares nothing — don't burn a sample.
  if (effective.algorithm == options_.shadow_algorithm) return;
  if (!shadow_->ShouldSample()) return;

  core::QueryExpanderOptions shadow_options = effective;
  shadow_options.algorithm = options_.shadow_algorithm;
  shadow_options.explain_terms = false;
  if (options_.shadow_dedupe) {
    // Key the comparison, not just the shadow run: primary algo + the
    // shadow arm's cache identity.
    std::string key = ExpansionCacheKey(
        NormalizeQuery(request.query), shadow_options.max_clusters,
        shadow_options.algorithm, OptionsFingerprint(shadow_options));
    key.push_back('\x1f');
    key += std::to_string(static_cast<int>(effective.algorithm));
    if (shadow_->SeenRecently(key)) {
      shadow_->RecordDeduped();
      return;
    }
  }

  ShadowJob job;
  job.trace_id = context->trace_id;
  job.query = request.query;
  job.primary_algo = std::string(core::AlgorithmName(effective.algorithm));
  job.primary_score = response.outcome.set_score;
  // The algorithm's own time, as the shadow arm records it: the expansion
  // stage also covers analyze, search, universe, clustering and
  // candidates, and reads 0 on a cache hit.
  job.primary_expansion_ns = response.outcome.phases.expansion_ns();
  job.options = std::move(shadow_options);

  {
    std::lock_guard<std::mutex> lock(mu_);
    // Shed rather than queue when the server is saturated: a full
    // foreground queue means every worker cycle is spoken for, and the
    // whole point of the low-priority class is that shadows never displace
    // foreground work.
    if (stopping_ || shadow_queue_.size() >= options_.shadow_queue_capacity ||
        queue_.size() >= options_.queue_capacity) {
      shadow_->RecordShed();
      return;
    }
    shadow_queue_.push_back(std::move(job));
    QEC_GAUGE_SET("shadow/queue_depth",
                  static_cast<double>(shadow_queue_.size()));
  }
  context->shadow_sampled = true;
  cv_.notify_one();
}

void QecServer::RunShadow(ShadowJob job) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    QEC_GAUGE_SET("shadow/queue_depth",
                  static_cast<double>(shadow_queue_.size()));
  }
  const Clock::time_point start = Clock::now();
  // The shadow arm runs the expander directly: it must never read or fill
  // the expansion cache (a shadow hit would measure the cache, not the
  // algorithm — and a shadow fill would poison foreground entries keyed by
  // a different algorithm's fingerprint).
  core::QueryExpander expander(*index_, job.options);
  Result<core::ExpansionOutcome> outcome = expander.ExpandText(job.query);
  const uint64_t shadow_ns = ToNanos(Clock::now() - start);
  if (!outcome.ok()) {
    shadow_->RecordError();
    return;
  }

  const ShadowComparison comparison = shadow_->Compare(
      job.trace_id, job.query, job.primary_algo, job.primary_score,
      job.primary_expansion_ns, outcome->set_score,
      outcome->phases.expansion_ns());

  // Flight-record the comparison so /slowlog interleaves quality verdicts
  // with the requests they describe (same trace id as the foreground
  // request). Work counters are the shadow arm's.
  obs::RequestRecord record;
  record.trace_id = job.trace_id;
  record.unix_ms = UnixMillisNow();
  record.query = job.query;
  record.algo = job.primary_algo;
  record.status = std::string(StatusCodeName(StatusCode::kOk));
  record.expansion_ns = job.primary_expansion_ns;
  record.total_ns = shadow_ns;
  record.iskr_steps = outcome->iskr_stats.steps;
  record.iskr_candidates_evaluated = outcome->iskr_stats.candidates_evaluated;
  record.pebc_samples_drawn = outcome->pebc_stats.samples_drawn;
  record.pebc_candidates_evaluated = outcome->pebc_stats.candidates_evaluated;
  record.set_score = comparison.primary_score;
  record.shadow_sampled = true;
  record.shadow_algo = comparison.shadow_algo;
  record.shadow_set_score = comparison.shadow_score;
  record.ab_winner = comparison.winner;
  record.shadow_expansion_ns = comparison.shadow_expansion_ns;
  recorder_.Record(record);
  // A shadow win is a foreground quality miss — dump it like an error so
  // low-quality requests are as greppable as slow ones.
  if (comparison.winner == "shadow") recorder_.Dump(record);
}

core::QueryExpanderOptions QecServer::EffectiveOptions(
    const ServeRequest& r) const {
  core::QueryExpanderOptions o = options_.expander;
  if (r.max_clusters.has_value()) o.max_clusters = *r.max_clusters;
  if (r.algorithm.has_value()) o.algorithm = *r.algorithm;
  if (r.top_k_results.has_value()) o.top_k_results = *r.top_k_results;
  if (r.minimize_queries.has_value()) o.minimize_queries = *r.minimize_queries;
  if (r.use_ranking_weights.has_value()) {
    o.use_ranking_weights = *r.use_ranking_weights;
  }
  if (r.num_threads.has_value()) o.num_threads = *r.num_threads;
  o.memoize_set_algebra = options_.enable_set_algebra_cache;
  return o;
}

void QecServer::RecordFlight(const ServeRequest& request,
                             const ServeResponse& response,
                             const RequestContext& context,
                             uint64_t total_ns) {
  obs::RequestRecord record;
  record.trace_id = context.trace_id;
  record.unix_ms = UnixMillisNow();
  const bool explain = request.verb == ServeRequest::Verb::kExplain;
  if (explain) record.verb = "EXPLAIN";
  record.query = request.query;
  // Only the algorithm is needed; skip the full EffectiveOptions copy.
  record.algo = std::string(core::AlgorithmName(
      request.algorithm.value_or(options_.expander.algorithm)));
  record.status = std::string(StatusCodeName(response.status.code()));
  record.from_cache = response.from_cache;
  record.queue_wait_ns = context.stages[Stage::kQueueWait];
  record.cache_lookup_ns = context.stages[Stage::kCacheLookup];
  record.expansion_ns = context.stages[Stage::kExpansion];
  record.serialize_ns = context.stages[Stage::kSerialize];
  record.total_ns = total_ns;
  record.iskr_steps = response.outcome.iskr_stats.steps;
  record.iskr_candidates_evaluated =
      response.outcome.iskr_stats.candidates_evaluated;
  record.pebc_samples_drawn = response.outcome.pebc_stats.samples_drawn;
  record.pebc_candidates_evaluated =
      response.outcome.pebc_stats.candidates_evaluated;
  // EXPLAIN renders both arms into its line and keeps no outcome, so its
  // set score stays unrecorded.
  if (response.status.ok() && !explain) {
    record.set_score = response.outcome.set_score;
  }
  record.shadow_sampled = context.shadow_sampled;
  recorder_.Record(record);

  const StatusCode code = response.status.code();
  const bool dump_worthy =
      code == StatusCode::kDeadlineExceeded ||
      code == StatusCode::kUnavailable || code == StatusCode::kCorruption ||
      total_ns >= slow_threshold_ns_;
  if (dump_worthy) recorder_.Dump(record);
}

void QecServer::UpdateQueueDepthLocked() {
  const size_t depth = queue_.size();
  QEC_GAUGE_SET("server/queue_depth", static_cast<double>(depth));
  if (depth > peak_queue_depth_) {
    peak_queue_depth_ = depth;
    QEC_GAUGE_SET("server/queue_depth_peak", static_cast<double>(depth));
  }
}

size_t QecServer::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

size_t QecServer::num_workers() const {
  std::lock_guard<std::mutex> lock(mu_);
  return workers_.size();
}

ServerStats QecServer::stats() const {
  ServerStats s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.admitted = admitted_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  s.shed_queue_full = shed_queue_full_.load(std::memory_order_relaxed);
  s.shed_deadline = shed_deadline_.load(std::memory_order_relaxed);
  s.cancelled = cancelled_.load(std::memory_order_relaxed);
  s.slow_requests = slow_requests_.load(std::memory_order_relaxed);
  if (cache_ != nullptr) s.expansion_cache = cache_->stats();
  return s;
}

double QecServer::uptime_seconds() const {
  return ToSeconds(Clock::now() - start_time_);
}

std::string QecServer::StatsJsonLine() const {
  using obs::json::NumberToString;
  const ServerStats s = stats();
  std::string out = "{\"status\":\"ok\"";
  out += ",\"docs\":" + std::to_string(index_->corpus().NumDocs());
  out += ",\"uptime_seconds\":" + NumberToString(uptime_seconds());
  out += ",\"queue_depth\":" + std::to_string(queue_depth());
  out += ",\"queue_capacity\":" + std::to_string(options_.queue_capacity);
  out += ",\"workers\":" + std::to_string(num_workers());
  // Bitset-kernel tier (always "scalar"; kept as a field for existing
  // readers) and persistent sweep-pool counters — steady state is zero new
  // spawns per STATS interval.
  out += ",\"kernel\":" +
         obs::json::Quote(qec::simd::ActiveTierName());
  const common::SweepPool::Stats pool =
      common::SweepPool::Instance().GetStats();
  out += ",\"sweep_pool\":{\"runs\":" + std::to_string(pool.runs);
  out += ",\"spawns\":" + std::to_string(pool.spawns);
  out += ",\"reuses\":" + std::to_string(pool.reuses);
  out += "}";
  out += ",\"submitted\":" + std::to_string(s.submitted);
  out += ",\"admitted\":" + std::to_string(s.admitted);
  out += ",\"completed\":" + std::to_string(s.completed);
  out += ",\"shed_queue_full\":" + std::to_string(s.shed_queue_full);
  out += ",\"shed_deadline\":" + std::to_string(s.shed_deadline);
  out += ",\"cancelled\":" + std::to_string(s.cancelled);
  out += ",\"slow_requests\":" + std::to_string(s.slow_requests);
  const uint64_t lookups = s.expansion_cache.hits + s.expansion_cache.misses;
  const double hit_ratio =
      lookups != 0 ? static_cast<double>(s.expansion_cache.hits) /
                         static_cast<double>(lookups)
                   : 0.0;
  out += ",\"cache\":{\"enabled\":";
  out += cache_ != nullptr ? "true" : "false";
  out += ",\"hits\":" + std::to_string(s.expansion_cache.hits);
  out += ",\"misses\":" + std::to_string(s.expansion_cache.misses);
  out += ",\"hit_ratio\":" + NumberToString(hit_ratio);
  out += ",\"evictions\":" + std::to_string(s.expansion_cache.evictions);
  out += ",\"entries\":" + std::to_string(s.expansion_cache.entries);
  out += "},\"slowlog\":{\"capacity\":" + std::to_string(recorder_.capacity());
  out += ",\"recorded\":" + std::to_string(recorder_.total_recorded());
  out += ",\"dumped\":" + std::to_string(recorder_.dumped());
  out += "},\"shadow\":{\"enabled\":";
  out += shadow_ != nullptr ? "true" : "false";
  if (shadow_ != nullptr) {
    const ShadowTallies t = shadow_->tallies();
    out += ",\"sample_rate\":" + NumberToString(options_.shadow_sample_rate);
    out += ",\"algo\":" + obs::json::Quote(std::string(core::AlgorithmName(
                              options_.shadow_algorithm)));
    out += ",\"queue_depth\":" + std::to_string(shadow_queue_depth());
    out += ",\"queue_capacity\":" +
           std::to_string(options_.shadow_queue_capacity);
    out += ",\"sampled\":" + std::to_string(t.sampled);
    out += ",\"executed\":" + std::to_string(t.executed);
    out += ",\"shed\":" + std::to_string(t.shed);
    out += ",\"deduped\":" + std::to_string(t.deduped);
    out += ",\"errors\":" + std::to_string(t.errors);
    out += ",\"primary_wins\":" + std::to_string(t.primary_wins);
    out += ",\"shadow_wins\":" + std::to_string(t.shadow_wins);
    out += ",\"ties\":" + std::to_string(t.ties);
  }
  out += "}}";
  return out;
}

std::string QecServer::SlowlogJsonLine(size_t max) const {
  // The ring can never return more than its capacity: clamp oversized
  // requests up front and say so, instead of silently behaving as if the
  // caller's count had been honored.
  const size_t capacity = recorder_.capacity();
  const bool clamped = max > capacity;
  const size_t effective = clamped ? capacity : max;
  const std::vector<obs::RequestRecord> records = recorder_.Recent(effective);
  std::string out = "{\"status\":\"ok\"";
  out += ",\"count\":" + std::to_string(records.size());
  if (clamped) {
    out += ",\"requested\":" + std::to_string(max);
    out += ",\"clamped_to\":" + std::to_string(capacity);
  }
  out += ",\"total_recorded\":" + std::to_string(recorder_.total_recorded());
  out += ",\"dumped\":" + std::to_string(recorder_.dumped());
  out += ",\"records\":[";
  for (size_t i = 0; i < records.size(); ++i) {
    if (i > 0) out += ",";
    out += records[i].ToJsonLine();
  }
  out += "]}";
  return out;
}

size_t QecServer::shadow_queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return shadow_queue_.size();
}

ShadowTallies QecServer::shadow_tallies() const {
  return shadow_ != nullptr ? shadow_->tallies() : ShadowTallies{};
}

std::string QecServer::AbtestJsonLine(size_t max) const {
  if (shadow_ == nullptr) {
    return "{\"status\":\"ok\",\"enabled\":false,\"sampled\":0,"
           "\"executed\":0,\"shed\":0,\"deduped\":0,\"errors\":0,"
           "\"primary_wins\":0,\"shadow_wins\":0,\"ties\":0,\"recent\":[]}";
  }
  return shadow_->AbtestJsonLine(max);
}

std::string QecServer::ControlResponse(const ServeRequest& request) const {
  if (request.verb == ServeRequest::Verb::kPing) {
    return "{\"status\":\"ok\",\"pong\":true}";
  }
  if (request.verb == ServeRequest::Verb::kStats) return StatsJsonLine();
  ServeResponse bad;  // EXPAND and EXPLAIN run on the worker pool
  bad.status = Status::Internal("unhandled verb");
  return ResponseToJsonLine(bad);
}

std::string QecServer::ExplainJsonLine(const ServeRequest& request) const {
  using obs::json::NumberToString;
  using obs::json::Quote;
  QEC_COUNTER_INC("server/explain");

  core::QueryExpanderOptions primary = EffectiveOptions(request);
  primary.explain_terms = true;
  core::QueryExpanderOptions secondary = primary;
  secondary.algorithm =
      SecondArm(primary.algorithm, options_.shadow_algorithm);

  // Both arms run the expander directly: EXPLAIN measures the algorithms,
  // never the cache, and cached outcomes carry no per-term rows anyway.
  auto run_arm = [&](const core::QueryExpanderOptions& arm) {
    core::QueryExpander expander(*index_, arm);
    return expander.ExpandText(request.query);
  };
  const Result<core::ExpansionOutcome> primary_outcome = run_arm(primary);
  const Result<core::ExpansionOutcome> shadow_outcome = run_arm(secondary);

  const auto& vocab = index_->corpus().analyzer().vocabulary();
  auto render_arm = [&](core::ExpansionAlgorithm algo,
                        const Result<core::ExpansionOutcome>& r) {
    std::string out = "{\"algo\":";
    out += Quote(std::string(core::AlgorithmName(algo)));
    out += ",\"status\":";
    out += Quote(StatusCodeName(r.status().code()));
    if (!r.ok()) {
      out += ",\"message\":" + Quote(r.status().message());
      out += "}";
      return out;
    }
    const core::ExpansionOutcome& o = *r;
    out += ",\"set_score\":" + NumberToString(o.set_score);
    out += ",\"clusters\":" + std::to_string(o.num_clusters);
    out += ",\"results_used\":" + std::to_string(o.num_results_used);
    out += ",\"expansion_ms\":" +
           NumberToString(o.phases.expansion_ns() / 1e6);
    out += ",\"queries\":[";
    for (size_t i = 0; i < o.queries.size(); ++i) {
      const core::ExpandedQuery& q = o.queries[i];
      if (i > 0) out += ",";
      AppendQueryFields(&out, q);
      out += ",\"terms\":[";
      for (size_t t = 0; t < q.term_details.size(); ++t) {
        const core::TermExplain& row = q.term_details[t];
        if (t > 0) out += ",";
        out += "{\"term\":" + Quote(vocab.TermString(row.term));
        out += ",\"action\":";
        out += row.is_removal ? "\"remove\"" : "\"add\"";
        out += ",\"benefit\":" + NumberToString(row.benefit);
        out += ",\"cost\":" + NumberToString(row.cost);
        // A zero-cost term has infinite value; clamp so the line stays
        // valid JSON.
        out += ",\"value\":" +
               NumberToString(row.value > 1e12 ? 1e12 : row.value);
        out += "}";
      }
      out += "]}";
    }
    out += "]}";
    return out;
  };

  std::string winner;
  if (primary_outcome.ok() && shadow_outcome.ok()) {
    winner = ArmWinner(primary_outcome->set_score, shadow_outcome->set_score);
  } else if (primary_outcome.ok()) {
    winner = "primary";
  } else if (shadow_outcome.ok()) {
    winner = "shadow";
  } else {
    winner = "none";
  }

  std::string out = "{\"status\":\"ok\"";
  out += ",\"query\":" + Quote(request.query);
  out += ",\"primary\":" + render_arm(primary.algorithm, primary_outcome);
  out += ",\"shadow\":" + render_arm(secondary.algorithm, shadow_outcome);
  out += ",\"winner\":" + Quote(winner);
  out += "}";
  return out;
}

}  // namespace qec::server
