#ifndef QEC_SERVER_NET_EVENT_LOOP_H_
#define QEC_SERVER_NET_EVENT_LOOP_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/status.h"

namespace qec::server::net {

/// Single-threaded epoll reactor. All fd registration and dispatch happens
/// on the thread that calls RunOnce (the "loop thread"); the only
/// thread-safe entry points are Post() and Wakeup().
///
/// Design notes:
///  - Level-triggered epoll: handlers read/write until EAGAIN but are
///    re-notified if they leave data behind, so a partially-drained socket
///    can never stall silently.
///  - Post() hands a closure from any thread to the loop thread via a
///    mutex-guarded queue plus an eventfd wakeup — this is how worker-pool
///    completion callbacks re-enter the loop to write responses.
///  - InLoopThread() tells a completion that it already runs on the loop
///    thread (a cache hit answered inside a read handler), so it completes
///    in place instead of posting to its own loop.
///  - Wakeup() is a bare eventfd write: async-signal-safe, so a SIGTERM
///    handler may call it directly.
class EventLoop {
 public:
  using FdHandler = std::function<void(uint32_t epoll_events)>;
  using Task = std::function<void()>;

  EventLoop();
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Construction can fail (fd exhaustion); everything else degrades to
  /// no-ops when it did.
  const Status& status() const { return status_; }

  /// Registers `fd` for `events` (EPOLLIN/EPOLLOUT/...). The handler is
  /// invoked on the loop thread with the ready event mask. Loop thread (or
  /// pre-Run setup thread) only.
  Status Add(int fd, uint32_t events, FdHandler handler);

  /// Changes the interest set of a registered fd. Loop thread only.
  Status Modify(int fd, uint32_t events);

  /// Deregisters `fd`. Safe to call from inside that fd's own handler;
  /// does not close the fd. Loop thread only.
  void Remove(int fd);

  /// Enqueues `task` to run on the loop thread at the next RunOnce
  /// iteration. Thread-safe. Tasks posted after the owner stops running
  /// the loop are destroyed unrun.
  void Post(Task task);

  /// Async-signal-safe: makes a blocked RunOnce return promptly.
  void Wakeup();

  /// True when called from inside this loop's RunOnce (an fd handler or a
  /// posted task): work meant for the loop thread may run in place rather
  /// than be posted. Thread-safe.
  bool InLoopThread() const;

  /// One reactor iteration: waits up to `timeout_ms` (-1 = indefinitely)
  /// for events, dispatches fd handlers, then drains the posted-task
  /// queue. Returns the number of fd events dispatched, or -1 on a fatal
  /// epoll error.
  int RunOnce(int timeout_ms);

 private:
  void DrainPosted();

  Status status_;
  int epoll_fd_ = -1;
  int wakeup_fd_ = -1;
  /// Handlers are held by shared_ptr so a handler that removes its own fd
  /// (or another's) mid-dispatch never frees a std::function still on the
  /// call stack.
  std::unordered_map<int, std::shared_ptr<FdHandler>> handlers_;

  std::mutex post_mu_;
  std::vector<Task> posted_;
  /// True once a wakeup write covers the tasks currently queued; further
  /// Post() calls skip the eventfd write until the loop drains. Turns a
  /// burst of worker completions into one syscall and one loop wakeup.
  bool wakeup_pending_ = false;
};

}  // namespace qec::server::net

#endif  // QEC_SERVER_NET_EVENT_LOOP_H_
