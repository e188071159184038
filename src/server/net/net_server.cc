#include "server/net/net_server.h"

#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <utility>

#include "common/logging.h"
#include "obs/metrics.h"
#include "server/protocol.h"

namespace qec::server::net {

NetServer::NetServer(QecServer* server, NetServerOptions options)
    : server_(server), options_(std::move(options)) {}

NetServer::~NetServer() { Shutdown(); }

Status NetServer::Bind() {
  if (listener_) return Status::Ok();
  loop_ = std::make_shared<EventLoop>();
  if (!loop_->status().ok()) return loop_->status();
  auto listener = Listener::Bind(options_.host, options_.port,
                                 options_.backlog);
  if (!listener.ok()) return listener.status();
  listener_ = std::move(listener).value();
  bound_port_.store(listener_->port(), std::memory_order_release);
  const Status added =
      loop_->Add(listener_->fd(), EPOLLIN, [this](uint32_t) {
        listener_->AcceptReady(
            [this](int fd, std::string peer) { OnAccept(fd, std::move(peer)); });
      });
  if (!added.ok()) return added;
  QEC_LOG(Info) << "net: listening on " << options_.host << ":"
                << listener_->port();
  return Status::Ok();
}

uint16_t NetServer::port() const {
  return bound_port_.load(std::memory_order_acquire);
}

Status NetServer::Run() {
  const Status bound = Bind();
  if (!bound.ok()) return bound;
  running_.store(true, std::memory_order_release);
  while (!stop_requested_.load(std::memory_order_acquire)) {
    if (loop_->RunOnce(/*timeout_ms=*/1000) < 0) {
      running_.store(false, std::memory_order_release);
      return Status::Internal("event loop failed");
    }
  }
  Drain();
  running_.store(false, std::memory_order_release);
  return Status::Ok();
}

Status NetServer::Start() {
  const Status bound = Bind();
  if (!bound.ok()) return bound;
  run_thread_ = std::thread([this] {
    const Status s = Run();
    if (!s.ok()) QEC_LOG(Error) << "net: serve loop exited: " << s.message();
  });
  return Status::Ok();
}

void NetServer::RequestStop() {
  stop_requested_.store(true, std::memory_order_release);
  if (loop_) loop_->Wakeup();
}

void NetServer::Shutdown() {
  RequestStop();
  if (run_thread_.joinable()) run_thread_.join();
}

void NetServer::OnAccept(int fd, std::string peer) {
  if (connections_.size() >= options_.max_connections) {
    rejected_over_capacity_.fetch_add(1, std::memory_order_relaxed);
    QEC_COUNTER_INC("net/rejected_over_capacity");
    // Best-effort courtesy line; the socket buffer of a fresh connection
    // always has room for it.
    static constexpr char kBusy[] =
        "{\"status\":\"error\",\"code\":\"Unavailable\","
        "\"message\":\"connection limit reached\"}\n";
    (void)::send(fd, kBusy, sizeof(kBusy) - 1, MSG_NOSIGNAL);
    ::close(fd);
    return;
  }

  Connection::Callbacks callbacks;
  callbacks.on_line = [this](Connection& c, std::string_view line) {
    OnLine(c, line);
  };
  callbacks.on_batch_end = [this](Connection& c) { OnBatchEnd(c); };
  callbacks.on_closed = [this](Connection& c) { OnClosed(c); };
  auto connection = std::make_shared<Connection>(
      loop_.get(), fd, std::move(peer), options_.max_line_bytes,
      std::move(callbacks));
  const Status registered = connection->Register();
  if (!registered.ok()) {
    QEC_LOG(Warning) << "net: register " << connection->peer()
                     << " failed: " << registered.message();
    // Close() would deregister + on_closed; the fd never made it into the
    // loop, so just close it via the destructor (shared_ptr drops here).
    return;
  }
  accepted_.fetch_add(1, std::memory_order_relaxed);
  QEC_COUNTER_INC("net/connections_accepted");
  connections_.emplace(fd, std::move(connection));
  active_connections_.store(connections_.size(), std::memory_order_relaxed);
  QEC_GAUGE_SET("net/active_connections",
                static_cast<int64_t>(connections_.size()));
}

void NetServer::OnLine(Connection& connection, std::string_view line) {
  lines_.fetch_add(1, std::memory_order_relaxed);
  QEC_COUNTER_INC("net/requests");

  auto parsed = ParseRequestLine(line);
  if (!parsed.ok()) {
    parse_errors_.fetch_add(1, std::memory_order_relaxed);
    QEC_COUNTER_INC("net/parse_errors");
    ServeResponse bad;
    bad.status = parsed.status();
    const uint64_t slot = connection.OpenSlot();
    connection.CompleteSlot(slot, ResponseToJsonLine(bad));
    return;
  }
  ServeRequest request = std::move(parsed).value();

  if (request.verb != ServeRequest::Verb::kExpand) {
    // Submit any buffered EXPANDs from this burst first, so a pipelined
    // `EXPAND…\nSTATS` observes them as submitted (and the stdin transport
    // behaves identically).
    OnBatchEnd(connection);
    immediate_requests_.fetch_add(1, std::memory_order_relaxed);
    QEC_COUNTER_INC("net/immediate_requests");
    const uint64_t slot = connection.OpenSlot();
    connection.CompleteSlot(slot, server_->ControlResponse(request));
    return;
  }

  expand_requests_.fetch_add(1, std::memory_order_relaxed);
  QEC_COUNTER_INC("net/expand_requests");
  const uint64_t slot = connection.OpenSlot();
  // The completion callback runs on a worker thread. It holds the loop by
  // shared_ptr (posting into a stopped loop is a harmless no-op) and the
  // connection only weakly: if the client vanished first, the response is
  // simply dropped.
  std::weak_ptr<Connection> weak = connection.weak_from_this();
  QecServer::AsyncRequest async;
  async.request = std::move(request);
  async.on_done = [loop = loop_, weak, slot](ServeResponse response) {
    std::string out = !response.json_line.empty()
                          ? std::move(response.json_line)
                          : ResponseToJsonLine(response);
    loop->Post([weak, slot, out = std::move(out)]() mutable {
      if (auto conn = weak.lock()) conn->CompleteSlot(slot, std::move(out));
    });
  };
  batch_.push_back(std::move(async));
}

void NetServer::OnBatchEnd(Connection&) {
  if (batch_.empty()) return;
  batches_.fetch_add(1, std::memory_order_relaxed);
  QEC_COUNTER_INC("net/batches");
  server_->SubmitBatch(std::move(batch_));
  batch_.clear();
}

void NetServer::OnClosed(Connection& connection) {
  closed_.fetch_add(1, std::memory_order_relaxed);
  QEC_COUNTER_INC("net/connections_closed");
  connections_.erase(connection.fd());
  active_connections_.store(connections_.size(), std::memory_order_relaxed);
  QEC_GAUGE_SET("net/active_connections",
                static_cast<int64_t>(connections_.size()));
}

void NetServer::Drain() {
  const auto drain_start = std::chrono::steady_clock::now();
  // 1. No new connections.
  if (listener_) {
    loop_->Remove(listener_->fd());
    listener_->Close();
  }
  // 2. Stop reading; in-flight responses still complete and flush.
  //    Iterate over a copy — StartDrain may Close an idle connection,
  //    which erases it from connections_.
  std::vector<std::shared_ptr<Connection>> open;
  open.reserve(connections_.size());
  for (auto& [fd, conn] : connections_) open.push_back(conn);
  for (auto& conn : open) conn->StartDrain();

  // 3. Pump the loop until every connection finished or the budget ran out.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(options_.drain_timeout_ms);
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
    QEC_LOG(Warning) << "net: drain timeout, force-closing "
                     << connections_.size() << " connection(s)";
    open.clear();
    for (auto& [fd, conn] : connections_) open.push_back(conn);
    for (auto& conn : open) conn->Close();
  }
  QEC_GAUGE_SET("net/active_connections", 0);
  const uint64_t drain_ms = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - drain_start)
          .count());
  drain_duration_ms_.store(drain_ms, std::memory_order_relaxed);
  QEC_GAUGE_SET("net/drain_duration_ms", static_cast<double>(drain_ms));
}

NetServerStats NetServer::stats() const {
  NetServerStats s;
  s.accepted = accepted_.load(std::memory_order_relaxed);
  s.rejected_over_capacity =
      rejected_over_capacity_.load(std::memory_order_relaxed);
  s.closed = closed_.load(std::memory_order_relaxed);
  s.lines = lines_.load(std::memory_order_relaxed);
  s.expand_requests = expand_requests_.load(std::memory_order_relaxed);
  s.immediate_requests = immediate_requests_.load(std::memory_order_relaxed);
  s.parse_errors = parse_errors_.load(std::memory_order_relaxed);
  s.batches = batches_.load(std::memory_order_relaxed);
  s.active_connections = active_connections_.load(std::memory_order_relaxed);
  s.drain_duration_ms = drain_duration_ms_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace qec::server::net
