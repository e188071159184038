#ifndef QEC_SERVER_LINE_HANDLER_H_
#define QEC_SERVER_LINE_HANDLER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "server/server.h"

namespace qec::server {

/// The line protocol's request handling (docs/SERVING.md), shared by the
/// TCP NetServer and qec_cli's stdin loop so both answer every line alike.
/// A blank or whitespace-only line is skipped. Every other line gets one
/// response slot, in request order: a parse error is answered at once;
/// PING and STATS are answered at once through QecServer::ControlResponse,
/// after the requests buffered before them are submitted (so a pipelined
/// `EXPAND…\nSTATS` observes them); an EXPAND or EXPLAIN is buffered until
/// Flush() admits the run through QecServer::SubmitBatch, so no engine work
/// runs on the feeding thread. The transport keeps its framing, its slots
/// and when to Flush(). One thread feeds a handler.
class LineHandler {
 public:
  /// A transport's ordered response stream.
  class Responder {
   public:
    virtual ~Responder() = default;
    /// Reserves the next in-order response slot.
    virtual uint64_t Open() = 0;
    /// Fills `slot` with a response line (no '\n') on the feeding thread.
    virtual void Complete(uint64_t slot, std::string line) = 0;
    /// The callback that fills `slot` with a queued request's `json_line`,
    /// from a worker thread or, for a cache hit or a rejection, from the
    /// flushing thread inside Flush().
    virtual QecServer::ResponseCallback CompleteLater(uint64_t slot) = 0;
  };

  /// What the handler did: one event per answered line, before its
  /// response is rendered, and one per submitted batch. kControl is a PING
  /// or STATS; kQueued an EXPAND or EXPLAIN buffered for the pool.
  enum class Event { kParseError, kControl, kQueued, kBatch };

  /// `observe` sees every Event, on the feeding thread.
  explicit LineHandler(
      QecServer* server, std::function<void(Event)> observe = [](Event) {})
      : server_(server), observe_(std::move(observe)) {}

  /// Handles one request line (without its terminator).
  void Handle(std::string_view line, Responder& responder);

  /// Submits the buffered requests as one batch; no-op when none are.
  void Flush();

  size_t buffered() const { return batch_.size(); }

 private:
  QecServer* server_;
  std::function<void(Event)> observe_;
  std::vector<QecServer::AsyncRequest> batch_;
};

}  // namespace qec::server

#endif  // QEC_SERVER_LINE_HANDLER_H_
