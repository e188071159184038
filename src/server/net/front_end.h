#ifndef QEC_SERVER_NET_FRONT_END_H_
#define QEC_SERVER_NET_FRONT_END_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>

#include "common/status.h"
#include "obs/metrics.h"
#include "server/net/connection.h"
#include "server/net/event_loop.h"

namespace qec::server::net {

/// What one serving plane tells its FrontEnd: where to listen, its limits,
/// how to frame a connection's bytes, what to answer a connection turned
/// away, and the names its connection metrics export under.
struct PlaneConfig {
  /// Log prefix ("net", "admin").
  std::string name;
  std::string host;
  uint16_t port = 0;
  int backlog = 128;
  size_t max_connections = 0;
  uint64_t drain_timeout_ms = 0;
  /// Sent to a connection turned away (over capacity or out of fds)
  /// before it is closed.
  std::string busy_response;
  /// Copied into each new connection, so framing state captured in it
  /// starts fresh per connection.
  Connection::Framer framer;
  /// Metric names; null leaves that metric out.
  const char* accepted_metric = nullptr;
  const char* rejected_metric = nullptr;
  const char* closed_metric = nullptr;
  const char* active_metric = nullptr;
  const char* drain_duration_metric = nullptr;
};

/// Monotonic connection totals since construction. Thread-safe snapshot.
struct FrontEndStats {
  uint64_t accepted = 0;
  uint64_t rejected_over_capacity = 0;
  uint64_t closed = 0;
  size_t active_connections = 0;
  uint64_t drain_duration_ms = 0;
};

/// The TCP front end both serving planes share: a nonblocking listener
/// and an epoll loop on one thread, the table of open Connections, the
/// connection cap, and graceful drain. A plane supplies only framing,
/// routing and its busy response (PlaneConfig).
///
/// Connections beyond max_connections, and connections that arrive while
/// the process is out of file descriptors, get the busy response and are
/// closed; both count as rejected_over_capacity. A reserve descriptor
/// makes the second case possible: without it the pending connection
/// would keep the listener readable and spin the loop.
///
/// Shutdown is a graceful drain: stop accepting, stop reading, let owed
/// responses complete and flush, then close — bounded by
/// drain_timeout_ms.
class FrontEnd {
 public:
  explicit FrontEnd(PlaneConfig plane);
  ~FrontEnd();

  FrontEnd(const FrontEnd&) = delete;
  FrontEnd& operator=(const FrontEnd&) = delete;

  /// Creates the event loop and binds the listener; port() is valid after
  /// an OK return. Run()/Start() call it implicitly if needed.
  Status Bind();
  uint16_t port() const {
    return bound_port_.load(std::memory_order_acquire);
  }

  /// Runs the event loop on the calling thread until RequestStop(), then
  /// drains and returns.
  Status Run();
  /// Bind() + a background thread running Run().
  Status Start();
  /// RequestStop() + join the background thread. Idempotent.
  void Shutdown();
  /// Signals the loop to stop and drain. Async-signal-safe.
  void RequestStop();
  bool stop_requested() const {
    return stop_requested_.load(std::memory_order_acquire);
  }

  /// Null until Bind(). Shared so cross-thread completions can post into
  /// it after the plane is gone (a no-op then).
  const std::shared_ptr<EventLoop>& loop() const { return loop_; }
  FrontEndStats stats() const;

 private:
  /// Accepts every pending connection (the accept loop a level-triggered
  /// reactor needs).
  void AcceptReady();
  void OnAccept(int fd, std::string peer);
  /// Sends the busy response, closes `fd`, counts the rejection.
  void Reject(int fd);
  void OnClosed(Connection& connection);
  void PublishActive();
  void Drain();

  PlaneConfig plane_;
  obs::Counter* accepted_counter_;
  obs::Counter* rejected_counter_;
  obs::Counter* closed_counter_;
  obs::Gauge* active_gauge_;
  obs::Gauge* drain_gauge_;

  std::shared_ptr<EventLoop> loop_;
  int listen_fd_ = -1;
  /// Held open so an EMFILE accept can free one descriptor to take the
  /// pending connection and turn it away.
  int reserve_fd_ = -1;
  /// Set by the first EMFILE/ENFILE of an exhaustion episode; cleared by
  /// the next successful accept. Keeps the warning to one per episode.
  bool fds_exhausted_ = false;
  std::unordered_map<int, std::shared_ptr<Connection>> connections_;

  std::atomic<bool> stop_requested_{false};
  std::atomic<uint16_t> bound_port_{0};
  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> closed_{0};
  std::atomic<size_t> active_{0};
  std::atomic<uint64_t> drain_duration_ms_{0};
  std::thread run_thread_;
};

}  // namespace qec::server::net

#endif  // QEC_SERVER_NET_FRONT_END_H_
