#include "server/net/connection.h"

#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <utility>

#include "common/logging.h"

namespace qec::server::net {

namespace {

/// Per readable event, stop pulling from the socket after this many bytes
/// so one fire-hosing client cannot starve its neighbours; level-triggered
/// epoll re-notifies for the remainder.
constexpr size_t kMaxBytesPerReadEvent = 256 * 1024;

}  // namespace

uint64_t SlotQueue::Open() {
  slots_.emplace_back();
  return next_++;
}

void SlotQueue::Complete(uint64_t slot, std::string bytes, bool close_after) {
  if (slot < base_) return;
  const size_t index = static_cast<size_t>(slot - base_);
  QEC_CHECK_LT(index, slots_.size());
  slots_[index].done = true;
  slots_[index].close_after = close_after;
  slots_[index].bytes = std::move(bytes);
}

bool SlotQueue::TakeReady(std::string* out) {
  while (!slots_.empty() && slots_.front().done) {
    *out += slots_.front().bytes;
    const bool close_after = slots_.front().close_after;
    slots_.pop_front();
    ++base_;
    if (close_after) {
      // Responses past a close are undeliverable by contract.
      Clear();
      return true;
    }
  }
  return false;
}

void SlotQueue::Clear() {
  base_ = next_;
  slots_.clear();
}

Connection::Connection(EventLoop* loop, int fd, std::string peer,
                       Framer framer,
                       std::function<void(Connection&)> on_closed)
    : loop_(loop),
      fd_(fd),
      peer_(std::move(peer)),
      framer_(std::move(framer)),
      on_closed_(std::move(on_closed)) {}

Connection::~Connection() {
  if (fd_ >= 0 && !closed_) ::close(fd_);
}

Status Connection::Register() {
  auto self = weak_from_this();
  return loop_->Add(fd_, EPOLLIN, [self](uint32_t events) {
    // Self-hold: the handler may Close() this connection, dropping the
    // owner's shared_ptr mid-call.
    if (auto conn = self.lock()) conn->HandleEvents(events);
  });
}

void Connection::HandleEvents(uint32_t events) {
  if (closed_) return;
  if (events & EPOLLERR) {
    Close();
    return;
  }
  if (events & EPOLLOUT) {
    TryWrite();
    if (closed_) return;
  }
  if (events & (EPOLLIN | EPOLLHUP)) OnReadable();
}

void Connection::OnReadable() {
  if (draining_) return;  // interest already narrowed; spurious level event
  char buf[16 * 1024];
  size_t read_this_event = 0;
  bool peer_eof = false;
  for (;;) {
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n > 0) {
      rbuf_.append(buf, static_cast<size_t>(n));
      read_this_event += static_cast<size_t>(n);
      if (read_this_event >= kMaxBytesPerReadEvent) break;
      continue;
    }
    if (n == 0) {
      // Orderly shutdown from the peer. Responses for everything already
      // received still go out (the client may have half-closed with
      // shutdown(SHUT_WR) and be reading).
      peer_eof = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    Close();  // ECONNRESET and friends
    return;
  }

  framer_(*this, rbuf_);
  // Nothing more will arrive. StartDrain also drops EPOLLIN: a socket at
  // EOF stays readable, so leaving it armed would spin the loop until the
  // owed responses flush.
  if (peer_eof) StartDrain();
}

void Connection::CompleteSlot(uint64_t slot, std::string bytes,
                              bool close_after) {
  if (closed_) return;
  slots_.Complete(slot, std::move(bytes), close_after);
  // Coalesce: every completed head-of-line response joins one buffer, so a
  // pipelined burst answers with one send() instead of one per response.
  if (slots_.TakeReady(&wbuf_)) StartDrain();
  if (write_pos_ < wbuf_.size()) ScheduleFlush();
}

void Connection::ScheduleFlush() {
  // If EPOLLOUT is armed the socket is full; it flushes when writable.
  if (flush_scheduled_ || want_write_) return;
  flush_scheduled_ = true;
  auto self = weak_from_this();
  loop_->Post([self] {
    if (auto conn = self.lock()) {
      conn->flush_scheduled_ = false;
      if (!conn->closed_) conn->TryWrite();
    }
  });
}

void Connection::TryWrite() {
  while (write_pos_ < wbuf_.size()) {
    const ssize_t n = ::send(fd_, wbuf_.data() + write_pos_,
                             wbuf_.size() - write_pos_, MSG_NOSIGNAL);
    if (n > 0) {
      write_pos_ += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      UpdateWriteInterest(true);
      return;
    }
    // EPIPE/ECONNRESET: the client left mid-response. Nothing to salvage.
    Close();
    return;
  }
  wbuf_.clear();
  write_pos_ = 0;
  UpdateWriteInterest(false);
  MaybeFinish();
}

void Connection::UpdateWriteInterest(bool want_write) {
  if (want_write == want_write_ || closed_) return;
  want_write_ = want_write;
  // While draining we no longer care about EPOLLIN.
  uint32_t events = draining_ ? 0u : static_cast<uint32_t>(EPOLLIN);
  if (want_write) events |= EPOLLOUT;
  loop_->Modify(fd_, events);
}

void Connection::StartDrain() {
  if (closed_ || draining_) return;
  draining_ = true;
  const uint32_t events = want_write_ ? static_cast<uint32_t>(EPOLLOUT) : 0u;
  loop_->Modify(fd_, events);
  MaybeFinish();
}

void Connection::MaybeFinish() {
  if (draining_ && !closed_ && idle()) Close();
}

void Connection::Close() {
  if (closed_) return;
  closed_ = true;
  loop_->Remove(fd_);
  ::close(fd_);
  slots_.Clear();
  wbuf_.clear();
  write_pos_ = 0;
  if (on_closed_) on_closed_(*this);
}

}  // namespace qec::server::net
