#ifndef QEC_SERVER_PROTOCOL_H_
#define QEC_SERVER_PROTOCOL_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "common/status.h"
#include "core/query_expander.h"
#include "server/request_context.h"

namespace qec::server {

/// One parsed request of the line protocol (docs/SERVING.md). A request is
/// a single line:
///
///   EXPAND [key=value ...] [--] <query words>
///   EXPLAIN [key=value ...] [--] <query words>
///   PING
///   STATS
///
/// Recognized EXPAND options: k=N (max clusters), algo=iskr|pebc|fmeasure,
/// topk=N (results used), minimize=0|1, weights=0|1, threads=N (per-request
/// expansion threads; 0 = auto), deadline_ms=N, trace=HEX (propagate a
/// caller-assigned trace id; the server generates one otherwise). A literal
/// `--` token ends option parsing so query words containing '=' stay query
/// words. EXPLAIN accepts the same options and runs the query through both
/// the primary and the shadow arm with per-term diagnostics. Every request
/// gets exactly one response line. The operator views (`/metrics`,
/// `/slowlog`, `/abtest`, `/statusz`) are served over HTTP by the admin
/// plane (server/admin/admin_server.h), not on this protocol.
struct ServeRequest {
  enum class Verb {
    kExpand,
    kExplain,
    kPing,
    kStats,
  };

  Verb verb = Verb::kExpand;
  std::string query;

  /// Caller-propagated trace id (the `trace=` option); 0 = the server
  /// assigns a fresh one at submission.
  uint64_t trace_id = 0;

  /// Per-request overrides of the server's base expander options; unset
  /// fields inherit the server configuration.
  std::optional<size_t> max_clusters;
  std::optional<core::ExpansionAlgorithm> algorithm;
  std::optional<size_t> top_k_results;
  std::optional<bool> minimize_queries;
  std::optional<bool> use_ranking_weights;
  std::optional<size_t> num_threads;

  /// Request deadline in milliseconds from submission; 0 = use the server
  /// default (which may itself be "none").
  uint64_t deadline_ms = 0;

  /// Optional cooperative cancellation flag: set it to true and the server
  /// drops the request (Status Cancelled) if it has not started executing.
  std::shared_ptr<std::atomic<bool>> cancel;
};

/// True for PING and STATS, the O(1) verbs answered at once through
/// QecServer::ControlResponse; EXPAND and EXPLAIN run on the worker pool.
inline bool IsImmediateVerb(ServeRequest::Verb verb) {
  return verb == ServeRequest::Verb::kPing ||
         verb == ServeRequest::Verb::kStats;
}

/// Parses one request line. InvalidArgument on unknown verbs, malformed
/// options, or an EXPAND with no query words.
Result<ServeRequest> ParseRequestLine(std::string_view line);

/// Canonical cache form of a query string: ASCII-lowercased with
/// whitespace runs collapsed to single spaces and ends trimmed, so
/// "Apple  Store" and "apple store" share a cache entry. (Full analyzer
/// normalization — stemming, stopwords — happens inside the expander; two
/// queries that differ only there miss the cache but still return
/// identical results.)
std::string NormalizeQuery(std::string_view query);

/// 64-bit FNV-1a fingerprint over every expander option that can change an
/// expansion result. Two server/request configurations with equal
/// fingerprints produce interchangeable cached responses.
uint64_t OptionsFingerprint(const core::QueryExpanderOptions& options);

/// The expansion-cache key: normalized query + max clusters + algorithm +
/// options fingerprint, joined unambiguously.
std::string ExpansionCacheKey(std::string_view normalized_query,
                              size_t max_clusters,
                              core::ExpansionAlgorithm algorithm,
                              uint64_t options_fingerprint);

/// Outcome of one served request.
struct ServeResponse {
  Status status;
  /// Valid when status.ok(). A cached response carries the outcome (and
  /// its timing fields) of the original computation.
  core::ExpansionOutcome outcome;
  bool from_cache = false;
  /// Time spent queued before a worker picked the request up; for a cache
  /// hit answered at admission, its admission time (about 0).
  double queue_seconds = 0.0;
  /// Submission-to-completion wall time.
  double total_seconds = 0.0;
  /// The request's trace id, on every response from Submit/SubmitBatch
  /// (worker-run, cache hit at admission, or rejected); 0 on a line the
  /// server never saw, such as a parse error.
  uint64_t trace_id = 0;
  /// Per-stage latency breakdown. The serialize stage is measured after
  /// the JSON line is rendered, so inside `json_line` it reads 0; the
  /// stage histograms and the flight recorder carry the real value.
  StageTimings stages;
  /// The rendered response line: by the worker inside the timed serialize
  /// stage (EXPLAIN: its expansion stage), or by the admission path for a
  /// rejection. Set on every response from QecServer::Submit/SubmitBatch.
  std::string json_line;
  /// The outcome-dependent tail of the JSON line (clusters, set_score, the
  /// queries array). Invariant for a given outcome, so the expansion cache
  /// stores it once and every hit splices it in instead of re-formatting
  /// ~40 numbers per request. Empty → rendered on demand.
  std::string rendered_tail;
};

/// Renders the outcome-dependent tail of an ok response line, from
/// `,"clusters":` through the closing `}`. ResponseToJsonLine() composes
/// the volatile prefix (trace id, cached flag, timings) with this tail.
std::string RenderOutcomeTail(const core::ExpansionOutcome& outcome);

/// Appends one expanded query's `{"keywords":[...],…,"f_measure":F` to
/// `out`, unclosed: RenderOutcomeTail closes it, EXPLAIN adds `terms` first.
void AppendQueryFields(std::string* out, const core::ExpandedQuery& query);

/// Renders a response as the protocol's single-line JSON:
///   {"status":"ok","trace_id":"4fe1...","cached":false,"clusters":2,
///    "set_score":0.91,"stages_ms":{...},...}
///   {"status":"error","code":"Unavailable","trace_id":"...","message":"..."}
std::string ResponseToJsonLine(const ServeResponse& response);

}  // namespace qec::server

#endif  // QEC_SERVER_PROTOCOL_H_
