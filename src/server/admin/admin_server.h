#ifndef QEC_SERVER_ADMIN_ADMIN_SERVER_H_
#define QEC_SERVER_ADMIN_ADMIN_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>

#include "common/status.h"
#include "server/admin/http.h"
#include "server/net/front_end.h"
#include "server/net/net_server.h"
#include "server/server.h"

namespace qec::server::admin {

struct AdminServerOptions {
  /// Admin plane stays on loopback unless explicitly opened up.
  std::string host = "127.0.0.1";
  /// 0 binds an ephemeral port (AdminServer::port() reports it).
  uint16_t port = 0;
  int backlog = 64;
  size_t max_header_bytes = 16 * 1024;
  size_t max_body_bytes = 64 * 1024;
  /// Scrapers and probes are few; a tight cap keeps a misconfigured LB
  /// from exhausting fds meant for the query plane.
  size_t max_connections = 64;
  uint64_t drain_timeout_ms = 2000;
};

/// The HTTP admin plane: a second net::FrontEnd on its own EventLoop and
/// thread (admin traffic never competes with query pipelining), framed by
/// HttpFramer and speaking just enough HTTP/1.1 for fleet tooling. Routes:
///
///   GET /metrics        Prometheus/OpenMetrics text with exemplars and
///                       the qec_process_* families
///   GET /healthz        liveness: 200 while the process runs
///   GET /readyz         readiness: 503 the moment drain begins (before
///                       the query listener closes), 200 otherwise
///   GET /statusz        build info, uptime, kernel tier, process, server
///                       (STATS, sweep pool included) and net stats as JSON
///   GET /slowlog?n=K    the flight recorder's K most recent records
///   GET /abtest?n=K     shadow A/B tallies
///
/// Unknown paths 404; known paths with a non-GET method 405. Every route
/// is a cheap read-only view that Route() answers synchronously on the
/// loop thread.
class AdminServer {
 public:
  /// `server` must outlive this. `net_server` may be null (stdin mode);
  /// when set, /readyz also reports 503 once the query plane is stopping.
  AdminServer(QecServer* server, net::NetServer* net_server,
              AdminServerOptions options = {});
  ~AdminServer();

  AdminServer(const AdminServer&) = delete;
  AdminServer& operator=(const AdminServer&) = delete;

  /// Creates the loop and binds the listener; port() is valid after an OK
  /// return. Start() calls it implicitly if needed.
  Status Bind() { return front_end_.Bind(); }
  uint16_t port() const { return front_end_.port(); }

  /// Bind() + a background thread running the loop until RequestStop().
  Status Start() { return front_end_.Start(); }

  /// RequestStop() + join. Idempotent; the destructor calls it.
  void Shutdown() { front_end_.Shutdown(); }

  /// Signals the loop to stop and drain. Async-signal-safe.
  void RequestStop() { front_end_.RequestStop(); }

  /// Flips /readyz to 503. Async-signal-safe: the SIGTERM handler calls
  /// this first, then stops the query plane — an LB polling /readyz sees
  /// "draining" while in-flight queries still complete.
  void SetDraining() { draining_.store(true, std::memory_order_release); }
  bool draining() const { return draining_.load(std::memory_order_acquire); }

 private:
  net::PlaneConfig AdminPlane();
  /// Routes one request to its serialized response.
  std::string Route(const HttpRequest& request);
  std::string StatuszJson() const;

  QecServer* server_;
  net::NetServer* net_server_;
  AdminServerOptions options_;

  const std::chrono::steady_clock::time_point start_time_ =
      std::chrono::steady_clock::now();

  std::atomic<bool> draining_{false};

  net::FrontEnd front_end_;
};

}  // namespace qec::server::admin

#endif  // QEC_SERVER_ADMIN_ADMIN_SERVER_H_
