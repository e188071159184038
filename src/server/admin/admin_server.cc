#include "server/admin/admin_server.h"

#include <unistd.h>

#include <utility>

#include "common/logging.h"
#include "common/string_util.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/process_collector.h"
#include "obs/prometheus.h"

namespace qec::server::admin {

namespace {

constexpr char kTextPlain[] = "text/plain; charset=utf-8";
constexpr char kJson[] = "application/json";
/// The exposition carries `# EOF` and exemplars, i.e. OpenMetrics.
constexpr char kOpenMetrics[] =
    "application/openmetrics-text; version=1.0.0; charset=utf-8";

/// Parses a positive decimal query parameter, clamped to [min, max];
/// `fallback` when absent or malformed (ParseDouble rejects nan and inf,
/// so the result is always safe to cast to an integer).
double QueryNumber(const HttpRequest& request, std::string_view key,
                   double fallback, double min, double max) {
  double value = 0.0;
  if (!ParseDouble(request.QueryParam(key), &value) || value <= 0) {
    return fallback;
  }
  return value < min ? min : (value > max ? max : value);
}

}  // namespace

AdminServer::AdminServer(QecServer* server, net::NetServer* net_server,
                         AdminServerOptions options)
    : server_(server),
      net_server_(net_server),
      options_(std::move(options)),
      front_end_(AdminPlane()) {}

net::PlaneConfig AdminServer::AdminPlane() {
  net::PlaneConfig plane;
  plane.name = "admin";
  plane.host = options_.host;
  plane.port = options_.port;
  plane.backlog = options_.backlog;
  plane.max_connections = options_.max_connections;
  plane.drain_timeout_ms = options_.drain_timeout_ms;
  plane.busy_response =
      RenderResponse(503, kTextPlain, "admin connection limit reached\n",
                     /*keep_alive=*/false);
  plane.framer =
      HttpFramer(options_.max_header_bytes, options_.max_body_bytes,
                 [this](const HttpRequest& request) { return Route(request); });
  plane.accepted_metric = "admin/http_connections_accepted";
  plane.rejected_metric = "admin/http_rejected_over_capacity";
  plane.active_metric = "admin/http_active_connections";
  return plane;
}

AdminServer::~AdminServer() { Shutdown(); }

std::string AdminServer::Route(const HttpRequest& request) {
  const bool keep = request.keep_alive;
  const std::string& path = request.path;

  const bool known_path =
      path == "/metrics" || path == "/healthz" || path == "/readyz" ||
      path == "/statusz" || path == "/slowlog" || path == "/abtest";
  if (!known_path) {
    return RenderResponse(404, kTextPlain, "unknown route " + path + "\n",
                          keep);
  }
  // Admin routes are all read-only views; HEAD/POST/PUT/... earn a 405 so
  // a misconfigured pusher fails loudly instead of silently succeeding.
  if (request.method != "GET") {
    return RenderResponse(405, kTextPlain,
                          "method " + request.method + " not allowed\n", keep);
  }

  if (path == "/metrics") {
    QEC_COUNTER_INC("admin/scrapes");
    return RenderResponse(200, kOpenMetrics, obs::PrometheusSnapshot(), keep);
  }
  if (path == "/healthz") {
    return RenderResponse(200, kTextPlain, "ok\n", keep);
  }
  if (path == "/readyz") {
    const bool ready =
        !draining() &&
        (net_server_ == nullptr || !net_server_->stop_requested());
    return ready ? RenderResponse(200, kTextPlain, "ready\n", keep)
                 : RenderResponse(503, kTextPlain, "draining\n", keep);
  }
  if (path == "/statusz") {
    return RenderResponse(200, kJson, StatuszJson(), keep);
  }
  if (path == "/slowlog") {
    const size_t n = static_cast<size_t>(
        QueryNumber(request, "n", 16.0, 1.0, 1024.0));
    return RenderResponse(200, kJson, server_->SlowlogJsonLine(n) + "\n",
                          keep);
  }
  // /abtest
  const size_t n =
      static_cast<size_t>(QueryNumber(request, "n", 16.0, 1.0, 1024.0));
  return RenderResponse(200, kJson, server_->AbtestJsonLine(n) + "\n", keep);
}

std::string AdminServer::StatuszJson() const {
  const obs::BuildInfo build = obs::GetBuildInfo();
  const obs::ProcessStats process = obs::SampleProcessStats();
  const double uptime_seconds =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - start_time_)
          .count() /
      1000.0;

  std::string out = "{";
  out += "\"version\": " + obs::json::Quote(build.version);
  out += ", \"git\": " + obs::json::Quote(build.git);
  out += ", \"kernel\": " + obs::json::Quote(build.kernel_tier);
  out += std::string(", \"popcount\": ") + (build.popcount ? "true" : "false");
  out += std::string(", \"tracing\": ") + (build.tracing ? "true" : "false");
  out += ", \"pid\": " + std::to_string(static_cast<long>(::getpid()));
  out += ", \"uptime_seconds\": " + obs::json::NumberToString(uptime_seconds);
  out += std::string(", \"draining\": ") + (draining() ? "true" : "false");
  if (process.valid) {
    out += ", \"process\": {";
    out += "\"cpu_seconds\": " + obs::json::NumberToString(process.cpu_seconds);
    out += ", \"resident_bytes\": " + std::to_string(process.resident_bytes);
    out += ", \"virtual_bytes\": " + std::to_string(process.virtual_bytes);
    out += ", \"open_fds\": " + std::to_string(process.open_fds);
    out += "}";
  }
  // StatsJsonLine is already a JSON object (admission, cache, shadow
  // stats); embed it verbatim rather than re-modeling its schema here.
  out += ", \"server\": " + server_->StatsJsonLine();
  if (net_server_ != nullptr) {
    const net::NetServerStats net = net_server_->stats();
    out += ", \"net\": {";
    out += "\"accepted\": " + std::to_string(net.accepted);
    out += ", \"rejected_over_capacity\": " +
           std::to_string(net.rejected_over_capacity);
    out += ", \"closed\": " + std::to_string(net.closed);
    out += ", \"lines\": " + std::to_string(net.lines);
    out += ", \"expand_requests\": " + std::to_string(net.expand_requests);
    out += ", \"parse_errors\": " + std::to_string(net.parse_errors);
    out += ", \"batches\": " + std::to_string(net.batches);
    out += ", \"active_connections\": " +
           std::to_string(net.active_connections);
    out += "}";
  }
  out += "}\n";
  return out;
}

}  // namespace qec::server::admin
