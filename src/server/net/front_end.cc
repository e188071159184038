#include "server/net/front_end.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>
#include <vector>

#include "common/logging.h"

namespace qec::server::net {

namespace {

#ifndef QEC_DISABLE_TRACING
constexpr bool kMetricsEnabled = true;
#else
constexpr bool kMetricsEnabled = false;
#endif

obs::Counter* CounterNamed(const char* name) {
  if (!kMetricsEnabled || name == nullptr) return nullptr;
  return obs::MetricsRegistry::Global().GetCounter(name);
}

obs::Gauge* GaugeNamed(const char* name) {
  if (!kMetricsEnabled || name == nullptr) return nullptr;
  return obs::MetricsRegistry::Global().GetGauge(name);
}

void Bump(obs::Counter* counter) {
  if (counter != nullptr) counter->Increment();
}

void Publish(obs::Gauge* gauge, double value) {
  if (gauge != nullptr) gauge->Set(value);
}

int OpenReserveFd() { return ::open("/dev/null", O_RDONLY | O_CLOEXEC); }

/// A nonblocking listening socket on `host:port` (port 0 = ephemeral;
/// `*bound_port` reports the real one).
Result<int> Listen(const std::string& host, uint16_t port, int backlog,
                   uint16_t* bound_port) {
  struct sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("not an IPv4 address: " + host);
  }
  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  }
  const int on = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &on, sizeof(on));
  if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const Status s = Status::Unavailable("bind " + host + ":" +
                                         std::to_string(port) + ": " +
                                         std::strerror(errno));
    ::close(fd);
    return s;
  }
  if (::listen(fd, backlog) != 0) {
    const Status s =
        Status::Internal(std::string("listen: ") + std::strerror(errno));
    ::close(fd);
    return s;
  }
  struct sockaddr_in bound = {};
  socklen_t len = sizeof(bound);
  *bound_port = port;
  if (::getsockname(fd, reinterpret_cast<struct sockaddr*>(&bound), &len) ==
      0) {
    *bound_port = ntohs(bound.sin_port);
  }
  return fd;
}

}  // namespace

FrontEnd::FrontEnd(PlaneConfig plane)
    : plane_(std::move(plane)),
      accepted_counter_(CounterNamed(plane_.accepted_metric)),
      rejected_counter_(CounterNamed(plane_.rejected_metric)),
      closed_counter_(CounterNamed(plane_.closed_metric)),
      active_gauge_(GaugeNamed(plane_.active_metric)),
      drain_gauge_(GaugeNamed(plane_.drain_duration_metric)) {}

FrontEnd::~FrontEnd() {
  Shutdown();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (reserve_fd_ >= 0) ::close(reserve_fd_);
}

Status FrontEnd::Bind() {
  if (port() != 0) return Status::Ok();
  loop_ = std::make_shared<EventLoop>();
  if (!loop_->status().ok()) return loop_->status();
  uint16_t port = 0;
  auto listened = Listen(plane_.host, plane_.port, plane_.backlog, &port);
  if (!listened.ok()) return listened.status();
  listen_fd_ = listened.value();
  reserve_fd_ = OpenReserveFd();
  bound_port_.store(port, std::memory_order_release);
  const Status added =
      loop_->Add(listen_fd_, EPOLLIN, [this](uint32_t) { AcceptReady(); });
  if (!added.ok()) return added;
  QEC_LOG(Info) << plane_.name << ": listening on " << plane_.host << ":"
                << port;
  return Status::Ok();
}

Status FrontEnd::Run() {
  const Status bound = Bind();
  if (!bound.ok()) return bound;
  while (!stop_requested_.load(std::memory_order_acquire)) {
    if (loop_->RunOnce(/*timeout_ms=*/1000) < 0) {
      return Status::Internal("event loop failed");
    }
  }
  Drain();
  return Status::Ok();
}

Status FrontEnd::Start() {
  const Status bound = Bind();
  if (!bound.ok()) return bound;
  run_thread_ = std::thread([this] {
    const Status s = Run();
    if (!s.ok()) {
      QEC_LOG(Error) << plane_.name << ": serve loop exited: " << s.message();
    }
  });
  return Status::Ok();
}

void FrontEnd::RequestStop() {
  stop_requested_.store(true, std::memory_order_release);
  if (loop_) loop_->Wakeup();
}

void FrontEnd::Shutdown() {
  RequestStop();
  if (run_thread_.joinable()) run_thread_.join();
}

void FrontEnd::AcceptReady() {
  for (;;) {
    struct sockaddr_in peer = {};
    socklen_t len = sizeof(peer);
    const int fd =
        ::accept4(listen_fd_, reinterpret_cast<struct sockaddr*>(&peer), &len,
                  SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd >= 0) {
      fds_exhausted_ = false;
      // Responses are small coalesced writes on an interactive path; Nagle
      // only adds latency here.
      const int on = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &on, sizeof(on));
      char ip[INET_ADDRSTRLEN] = "?";
      ::inet_ntop(AF_INET, &peer.sin_addr, ip, sizeof(ip));
      OnAccept(fd,
               std::string(ip) + ":" + std::to_string(ntohs(peer.sin_port)));
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;  // drained
    if (errno == EINTR) continue;
    if (errno != EMFILE && errno != ENFILE) {
      // ECONNABORTED and friends: the client went away between listen and
      // accept.
      QEC_LOG(Warning) << plane_.name << ": accept failed: "
                       << std::strerror(errno);
      continue;
    }
    if (!fds_exhausted_) {
      fds_exhausted_ = true;
      QEC_LOG(Warning) << plane_.name << ": accept failed: "
                       << std::strerror(errno)
                       << "; turning connections away until fds free up";
    }
    // The pending connection keeps the listener readable, so it must be
    // taken off the backlog: free the reserve fd, accept, turn it away.
    if (reserve_fd_ < 0) return;
    ::close(reserve_fd_);
    const int turned_away = ::accept4(listen_fd_, nullptr, nullptr,
                                      SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (turned_away >= 0) Reject(turned_away);
    reserve_fd_ = OpenReserveFd();
    if (turned_away < 0) return;
  }
}

void FrontEnd::OnAccept(int fd, std::string peer) {
  if (connections_.size() >= plane_.max_connections) {
    Reject(fd);
    return;
  }
  auto connection = std::make_shared<Connection>(
      loop_.get(), fd, std::move(peer), plane_.framer,
      [this](Connection& c) { OnClosed(c); });
  const Status registered = connection->Register();
  if (!registered.ok()) {
    QEC_LOG(Warning) << plane_.name << ": register " << connection->peer()
                     << " failed: " << registered.message();
    // The fd never made it into the loop; the destructor closes it.
    return;
  }
  accepted_.fetch_add(1, std::memory_order_relaxed);
  Bump(accepted_counter_);
  connections_.emplace(fd, std::move(connection));
  PublishActive();
}

void FrontEnd::Reject(int fd) {
  rejected_.fetch_add(1, std::memory_order_relaxed);
  Bump(rejected_counter_);
  // Best-effort courtesy response; the socket buffer of a fresh connection
  // always has room for it.
  (void)::send(fd, plane_.busy_response.data(), plane_.busy_response.size(),
               MSG_NOSIGNAL);
  ::close(fd);
}

void FrontEnd::OnClosed(Connection& connection) {
  closed_.fetch_add(1, std::memory_order_relaxed);
  Bump(closed_counter_);
  connections_.erase(connection.fd());
  PublishActive();
}

void FrontEnd::PublishActive() {
  active_.store(connections_.size(), std::memory_order_relaxed);
  Publish(active_gauge_, static_cast<double>(connections_.size()));
}

void FrontEnd::Drain() {
  const auto drain_start = std::chrono::steady_clock::now();
  // 1. No new connections.
  if (listen_fd_ >= 0) {
    loop_->Remove(listen_fd_);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  // 2. Stop reading; owed responses still complete and flush. Iterate over
  //    a copy — StartDrain may Close an idle connection, which erases it
  //    from connections_.
  std::vector<std::shared_ptr<Connection>> open;
  open.reserve(connections_.size());
  for (auto& [fd, conn] : connections_) open.push_back(conn);
  for (auto& conn : open) conn->StartDrain();

  // 3. Pump the loop until every connection finished or the budget ran out.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(plane_.drain_timeout_ms);
  while (!connections_.empty()) {
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) break;
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - now);
    loop_->RunOnce(static_cast<int>(
        std::min<std::chrono::milliseconds::rep>(left.count(), 50)));
  }

  // 4. Whatever is still open missed the budget.
  if (!connections_.empty()) {
    QEC_LOG(Warning) << plane_.name << ": drain timeout, force-closing "
                     << connections_.size() << " connection(s)";
    open.clear();
    for (auto& [fd, conn] : connections_) open.push_back(conn);
    for (auto& conn : open) conn->Close();
  }
  PublishActive();
  const uint64_t drain_ms = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - drain_start)
          .count());
  drain_duration_ms_.store(drain_ms, std::memory_order_relaxed);
  Publish(drain_gauge_, static_cast<double>(drain_ms));
}

FrontEndStats FrontEnd::stats() const {
  FrontEndStats s;
  s.accepted = accepted_.load(std::memory_order_relaxed);
  s.rejected_over_capacity = rejected_.load(std::memory_order_relaxed);
  s.closed = closed_.load(std::memory_order_relaxed);
  s.active_connections = active_.load(std::memory_order_relaxed);
  s.drain_duration_ms = drain_duration_ms_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace qec::server::net
