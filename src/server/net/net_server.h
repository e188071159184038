#ifndef QEC_SERVER_NET_NET_SERVER_H_
#define QEC_SERVER_NET_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "common/status.h"
#include "server/net/connection.h"
#include "server/net/front_end.h"
#include "server/line_handler.h"
#include "server/server.h"

namespace qec::server::net {

struct NetServerOptions {
  /// IPv4 address to bind. The default stays on loopback; pass "0.0.0.0"
  /// to serve externally.
  std::string host = "127.0.0.1";
  /// 0 binds an ephemeral port (NetServer::port() reports it) — what the
  /// tests and the in-process benchmark use.
  uint16_t port = 0;
  int backlog = 128;
  /// Max request-line bytes; a longer frame earns one error response and
  /// the connection drains closed (the stream cannot resync past an
  /// unterminated frame).
  size_t max_line_bytes = 64 * 1024;
  /// Accepted connections beyond this are answered with one error line
  /// and closed immediately.
  size_t max_connections = 1024;
  /// Graceful-drain budget: on stop, in-flight requests get this long to
  /// complete and flush before remaining connections are force-closed.
  uint64_t drain_timeout_ms = 5000;
};

/// Monotonic totals since construction. Thread-safe snapshot.
struct NetServerStats {
  uint64_t accepted = 0;
  uint64_t rejected_over_capacity = 0;
  uint64_t closed = 0;
  uint64_t lines = 0;
  /// Lines submitted to QecServer: EXPAND and EXPLAIN (a cache hit among
  /// them is answered at admission, on the loop thread).
  uint64_t expand_requests = 0;
  /// Lines answered on the loop thread: PING and STATS.
  uint64_t immediate_requests = 0;
  uint64_t parse_errors = 0;
  uint64_t batches = 0;
  size_t active_connections = 0;
  /// Milliseconds the graceful drain took (0 until a drain ran). Also
  /// exported as the `qec_net_drain_duration_ms` gauge.
  uint64_t drain_duration_ms = 0;
};

/// The qec line protocol over TCP: a FrontEnd whose connections are framed
/// by '\n', in front of an existing QecServer (which must outlive it and
/// whose worker pool does every expansion — the loop thread only frames,
/// hands lines to the shared LineHandler, answers cache hits, and writes).
///
/// Pipelining: a connection may send any number of request lines without
/// waiting; responses come back in request order. All EXPAND and EXPLAIN
/// lines decoded from one readable burst are admitted as one batch, so a
/// burst for one hot cluster runs back to back on cache-warm state. PING
/// and STATS, and EXPANDs that hit the expansion cache, are answered on
/// the loop thread but still occupy an in-order slot, so `EXPAND…\nPING\n`
/// answers in that order.
///
/// Shutdown is a graceful drain: stop accepting, stop reading, let
/// in-flight expansions complete and flush, then close — bounded by
/// NetServerOptions::drain_timeout_ms.
class NetServer {
 public:
  NetServer(QecServer* server, NetServerOptions options = {});

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// Creates the event loop and binds the listener; port() is valid after
  /// an OK return. Run()/Start() call it implicitly if needed.
  Status Bind() { return front_end_.Bind(); }

  /// The bound port (resolves an ephemeral request to the real port).
  uint16_t port() const { return front_end_.port(); }

  /// Runs the event loop on the calling thread until RequestStop(), then
  /// drains and returns. This is what `qec_cli serve --port` blocks in.
  Status Run() { return front_end_.Run(); }

  /// Bind() + a background thread running Run(). For tests and the
  /// in-process benchmark.
  Status Start() { return front_end_.Start(); }

  /// RequestStop() + join the background thread. Idempotent; the
  /// destructor calls it.
  void Shutdown() { front_end_.Shutdown(); }

  /// Signals the loop to stop and drain. Async-signal-safe: callable
  /// straight from a SIGINT/SIGTERM handler.
  void RequestStop() { front_end_.RequestStop(); }

  /// True once RequestStop() was called — the admin plane's /readyz flips
  /// to 503 on this, before the listener actually closes.
  bool stop_requested() const { return front_end_.stop_requested(); }

  NetServerStats stats() const;
  const NetServerOptions& options() const { return options_; }

 private:
  PlaneConfig LinePlane();
  /// The line framer: every '\n'-terminated frame (CRLF tolerated) at the
  /// front of `rbuf` becomes one request; `scan_pos` is the prefix already
  /// searched, so a partial frame is not rescanned on the next read.
  /// Enforces the max-line guard on terminated and unterminated frames,
  /// then admits the burst's EXPANDs and EXPLAINs as one batch.
  void ReadLines(Connection& connection, std::string& rbuf, size_t& scan_pos);
  /// Tallies one handler event into stats() and the net/* metrics.
  void Count(LineHandler::Event event);

  NetServerOptions options_;

  std::atomic<uint64_t> lines_{0};
  std::atomic<uint64_t> expand_requests_{0};
  std::atomic<uint64_t> immediate_requests_{0};
  std::atomic<uint64_t> parse_errors_{0};
  std::atomic<uint64_t> batches_{0};
  /// Fed by the loop thread; buffers the current burst's queued lines.
  LineHandler handler_;

  /// Last member: destroyed (and its loop thread joined) first, while the
  /// state its framers use is still alive.
  FrontEnd front_end_;
};

}  // namespace qec::server::net

#endif  // QEC_SERVER_NET_NET_SERVER_H_
