#include "server/net/net_server.h"

#include <memory>
#include <utility>

#include "obs/metrics.h"

namespace qec::server::net {

namespace {

/// One connection's responses, completed on the loop thread: in place when
/// the completion already runs there (a cache hit answered at admission),
/// else posted to it from a worker.
class ConnectionResponder final : public LineHandler::Responder {
 public:
  ConnectionResponder(Connection& connection,
                      const std::shared_ptr<EventLoop>& loop)
      : connection_(connection), loop_(loop) {}

  uint64_t Open() override { return connection_.OpenSlot(); }

  void Complete(uint64_t slot, std::string line) override {
    line += '\n';
    connection_.CompleteSlot(slot, std::move(line));
  }

  QecServer::ResponseCallback CompleteLater(uint64_t slot) override {
    // Holds the loop by shared_ptr (posting into a stopped loop is a no-op)
    // and the connection weakly: a vanished client's response is dropped.
    return [loop = loop_, weak = connection_.weak_from_this(),
            slot](ServeResponse response) {
      std::string out = std::move(response.json_line);
      out += '\n';
      auto complete = [weak, slot, out = std::move(out)]() mutable {
        if (auto conn = weak.lock()) conn->CompleteSlot(slot, std::move(out));
      };
      if (loop->InLoopThread()) {
        complete();
      } else {
        loop->Post(std::move(complete));
      }
    };
  }

 private:
  Connection& connection_;
  const std::shared_ptr<EventLoop>& loop_;
};

}  // namespace

NetServer::NetServer(QecServer* server, NetServerOptions options)
    : options_(std::move(options)),
      handler_(server, [this](LineHandler::Event event) { Count(event); }),
      front_end_(LinePlane()) {}

PlaneConfig NetServer::LinePlane() {
  PlaneConfig plane;
  plane.name = "net";
  plane.host = options_.host;
  plane.port = options_.port;
  plane.backlog = options_.backlog;
  plane.max_connections = options_.max_connections;
  plane.drain_timeout_ms = options_.drain_timeout_ms;
  plane.busy_response =
      "{\"status\":\"error\",\"code\":\"Unavailable\","
      "\"message\":\"connection limit reached\"}\n";
  plane.framer = [this, scan_pos = size_t{0}](Connection& connection,
                                              std::string& rbuf) mutable {
    ReadLines(connection, rbuf, scan_pos);
  };
  plane.accepted_metric = "net/connections_accepted";
  plane.rejected_metric = "net/rejected_over_capacity";
  plane.closed_metric = "net/connections_closed";
  plane.active_metric = "net/active_connections";
  plane.drain_duration_metric = "net/drain_duration_ms";
  return plane;
}

void NetServer::ReadLines(Connection& connection, std::string& rbuf,
                          size_t& scan_pos) {
  ConnectionResponder responder(connection, front_end_.loop());
  size_t consumed = 0;
  bool oversized = false;
  for (;;) {
    const size_t nl = rbuf.find('\n', scan_pos);
    if (nl == std::string::npos) {
      scan_pos = rbuf.size();
      break;
    }
    size_t end = nl;
    if (end > consumed && rbuf[end - 1] == '\r') --end;
    const std::string_view line(rbuf.data() + consumed, end - consumed);
    consumed = nl + 1;
    scan_pos = consumed;
    if (line.size() > options_.max_line_bytes) {
      oversized = true;
      break;
    }
    handler_.Handle(line, responder);
    if (connection.closed() || connection.draining()) break;
  }
  // An unterminated frame past the limit is rejected now: its terminator
  // can be arbitrarily far away, so buffering it is unbounded.
  if (!oversized && !connection.closed() && !connection.draining() &&
      rbuf.size() - consumed > options_.max_line_bytes) {
    oversized = true;
  }
  if (oversized) {
    // The stream cannot resync past an oversized frame: answer once and
    // drain closed.
    QEC_COUNTER_INC("net/oversized_lines");
    const uint64_t slot = connection.OpenSlot();
    connection.CompleteSlot(
        slot, "{\"status\":\"error\",\"code\":\"InvalidArgument\","
              "\"message\":\"request line exceeds " +
                  std::to_string(options_.max_line_bytes) + " bytes\"}\n");
    connection.StartDrain();
    rbuf.clear();
    scan_pos = 0;
  } else {
    rbuf.erase(0, consumed);
    scan_pos -= consumed;
  }
  if (!connection.closed()) handler_.Flush();
}

void NetServer::Count(LineHandler::Event event) {
  if (event == LineHandler::Event::kBatch) {
    batches_.fetch_add(1, std::memory_order_relaxed);
    QEC_COUNTER_INC("net/batches");
    return;
  }
  lines_.fetch_add(1, std::memory_order_relaxed);
  QEC_COUNTER_INC("net/requests");
  if (event == LineHandler::Event::kParseError) {
    parse_errors_.fetch_add(1, std::memory_order_relaxed);
    QEC_COUNTER_INC("net/parse_errors");
  } else if (event == LineHandler::Event::kControl) {
    immediate_requests_.fetch_add(1, std::memory_order_relaxed);
    QEC_COUNTER_INC("net/immediate_requests");
  } else {
    expand_requests_.fetch_add(1, std::memory_order_relaxed);
    QEC_COUNTER_INC("net/expand_requests");
  }
}

NetServerStats NetServer::stats() const {
  const FrontEndStats connections = front_end_.stats();
  NetServerStats s;
  s.accepted = connections.accepted;
  s.rejected_over_capacity = connections.rejected_over_capacity;
  s.closed = connections.closed;
  s.lines = lines_.load(std::memory_order_relaxed);
  s.expand_requests = expand_requests_.load(std::memory_order_relaxed);
  s.immediate_requests = immediate_requests_.load(std::memory_order_relaxed);
  s.parse_errors = parse_errors_.load(std::memory_order_relaxed);
  s.batches = batches_.load(std::memory_order_relaxed);
  s.active_connections = connections.active_connections;
  s.drain_duration_ms = connections.drain_duration_ms;
  return s;
}

}  // namespace qec::server::net
