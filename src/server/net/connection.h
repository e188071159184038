#ifndef QEC_SERVER_NET_CONNECTION_H_
#define QEC_SERVER_NET_CONNECTION_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>

#include "common/status.h"
#include "server/net/event_loop.h"

namespace qec::server::net {

/// Response slots that complete in any order and are released in the
/// order they were opened: the reorder buffer behind pipelining. Not
/// thread-safe; the owner serializes access.
class SlotQueue {
 public:
  /// Reserves the next slot.
  uint64_t Open();

  /// Stores the bytes for `slot`. `close_after` ends the stream once they
  /// are released. Completions of released or dropped slots are ignored.
  void Complete(uint64_t slot, std::string bytes, bool close_after = false);

  /// Appends every completed head-of-line slot's bytes to `out`, in slot
  /// order. Returns true when a released slot carried close_after: it is
  /// the last one released, and every later slot is dropped.
  bool TakeReady(std::string* out);

  /// Drops every open slot; their later completions are ignored.
  void Clear();

  /// Slots opened but not yet released.
  size_t size() const { return slots_.size(); }
  bool empty() const { return slots_.empty(); }

 private:
  struct Slot {
    bool done = false;
    bool close_after = false;
    std::string bytes;
  };

  std::deque<Slot> slots_;
  uint64_t next_ = 0;
  /// Slot id of slots_.front().
  uint64_t base_ = 0;
};

/// One accepted TCP connection, owned by the event-loop thread. Both
/// serving planes use it; each supplies only a framer. Handles:
///
///  - nonblocking reads with EINTR/EAGAIN handling into a receive buffer
///    that the framer consumes, so a request split across arbitrarily many
///    TCP segments parses identically to one arriving whole;
///  - pipelining with in-order writeback: the framer opens one response
///    slot per request; slots complete out of order (worker pool)
///    but are written strictly in request order;
///  - write coalescing: all completed head-of-line responses are appended
///    to one output buffer and flushed with as few send() calls as the
///    socket accepts, falling back to EPOLLOUT on short writes;
///  - drain: on peer EOF, StartDrain, or a response marked close_after,
///    reading stops and the connection closes once nothing is owed.
///
/// Thread model: every method must be called on the loop thread. Other
/// threads deliver responses by posting a CompleteSlot call through the
/// EventLoop. Callers keep Connections alive via shared_ptr; event
/// handlers self-hold, so a handler that closes its own connection is
/// safe.
class Connection : public std::enable_shared_from_this<Connection> {
 public:
  /// Called after every read event with the receive buffer. Consumes every
  /// complete frame at its front (erasing it), opening one slot per
  /// request; a partial frame stays for the next event.
  using Framer = std::function<void(Connection&, std::string& rbuf)>;

  /// `on_closed` runs once the fd is closed and deregistered; the owner
  /// drops its shared_ptr there.
  Connection(EventLoop* loop, int fd, std::string peer, Framer framer,
             std::function<void(Connection&)> on_closed);
  ~Connection();

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Registers the fd with the loop. Call once, right after construction
  /// (needs shared_from_this, hence not in the constructor).
  Status Register();

  /// Reserves the next in-order response slot. Responses are written back
  /// in OpenSlot order regardless of completion order.
  uint64_t OpenSlot() { return slots_.Open(); }

  /// Delivers a slot's response bytes, written verbatim. `close_after`
  /// closes the connection once they flush; later slots are dropped.
  /// Flushes every completed head-of-line slot. No-op after Close.
  void CompleteSlot(uint64_t slot, std::string bytes,
                    bool close_after = false);

  /// Stops reading; the connection closes once every open slot has
  /// completed and flushed. Used on peer EOF, for server drain, and after
  /// protocol errors that poison the stream.
  void StartDrain();

  /// Immediate teardown: deregisters, closes the fd, invokes on_closed.
  /// Idempotent.
  void Close();

  int fd() const { return fd_; }
  const std::string& peer() const { return peer_; }
  bool closed() const { return closed_; }
  bool draining() const { return draining_; }

 private:
  /// True when nothing is owed to the client: no open slots, no buffered
  /// output.
  bool idle() const { return slots_.empty() && write_pos_ >= wbuf_.size(); }
  void HandleEvents(uint32_t events);
  void OnReadable();
  /// Defers TryWrite to the end of the current loop iteration, so a burst
  /// of completions (one batch of worker responses, or several immediate
  /// verbs in one read event) leaves the socket with one send() instead of
  /// one per response.
  void ScheduleFlush();
  void TryWrite();
  void UpdateWriteInterest(bool want_write);
  /// Closes once draining and nothing is owed.
  void MaybeFinish();

  EventLoop* loop_;
  int fd_;
  std::string peer_;
  Framer framer_;
  std::function<void(Connection&)> on_closed_;

  std::string rbuf_;
  SlotQueue slots_;

  std::string wbuf_;
  size_t write_pos_ = 0;
  bool want_write_ = false;
  /// A posted flush task is in flight; further completions just append.
  bool flush_scheduled_ = false;

  bool draining_ = false;
  bool closed_ = false;
};

}  // namespace qec::server::net

#endif  // QEC_SERVER_NET_CONNECTION_H_
