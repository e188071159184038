#include "server/net/net_server.h"

#include <memory>
#include <utility>

#include "obs/metrics.h"
#include "server/protocol.h"

namespace qec::server::net {

NetServer::NetServer(QecServer* server, NetServerOptions options)
    : server_(server),
      options_(std::move(options)),
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
    if (!line.empty()) OnLine(connection, line);
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
  if (!connection.closed()) SubmitBatch();
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
    connection.CompleteSlot(slot, ResponseToJsonLine(bad) + '\n');
    return;
  }
  ServeRequest request = std::move(parsed).value();

  if (request.verb != ServeRequest::Verb::kExpand) {
    // Submit any buffered EXPANDs from this burst first, so a pipelined
    // `EXPAND…\nSTATS` observes them as submitted (and the stdin transport
    // behaves identically).
    SubmitBatch();
    immediate_requests_.fetch_add(1, std::memory_order_relaxed);
    QEC_COUNTER_INC("net/immediate_requests");
    const uint64_t slot = connection.OpenSlot();
    connection.CompleteSlot(slot, server_->ControlResponse(request) + '\n');
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
  async.on_done = [loop = front_end_.loop(), weak,
                   slot](ServeResponse response) {
    std::string out = !response.json_line.empty()
                          ? std::move(response.json_line)
                          : ResponseToJsonLine(response);
    out += '\n';
    loop->Post([weak, slot, out = std::move(out)]() mutable {
      if (auto conn = weak.lock()) conn->CompleteSlot(slot, std::move(out));
    });
  };
  batch_.push_back(std::move(async));
}

void NetServer::SubmitBatch() {
  if (batch_.empty()) return;
  batches_.fetch_add(1, std::memory_order_relaxed);
  QEC_COUNTER_INC("net/batches");
  server_->SubmitBatch(std::move(batch_));
  batch_.clear();
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
