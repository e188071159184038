#include "server/net/event_loop.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "common/logging.h"

namespace qec::server::net {

namespace {

Status Errno(const char* what) {
  return Status::Internal(std::string(what) + ": " + std::strerror(errno));
}

/// The loop whose RunOnce is on this thread's stack, if any.
thread_local const EventLoop* t_running_loop = nullptr;

}  // namespace

EventLoop::EventLoop() {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    status_ = Errno("epoll_create1");
    return;
  }
  wakeup_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wakeup_fd_ < 0) {
    status_ = Errno("eventfd");
    ::close(epoll_fd_);
    epoll_fd_ = -1;
    return;
  }
  // The wakeup fd participates like any other fd; its handler just drains
  // the counter (posted tasks run in RunOnce's task phase).
  struct epoll_event ev = {};
  ev.events = EPOLLIN;
  ev.data.fd = wakeup_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wakeup_fd_, &ev) != 0) {
    status_ = Errno("epoll_ctl(wakeup)");
    ::close(wakeup_fd_);
    ::close(epoll_fd_);
    wakeup_fd_ = epoll_fd_ = -1;
  }
}

EventLoop::~EventLoop() {
  if (wakeup_fd_ >= 0) ::close(wakeup_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

Status EventLoop::Add(int fd, uint32_t events, FdHandler handler) {
  if (!status_.ok()) return status_;
  struct epoll_event ev = {};
  ev.events = events;
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
    return Errno("epoll_ctl(add)");
  }
  handlers_[fd] = std::make_shared<FdHandler>(std::move(handler));
  return Status::Ok();
}

Status EventLoop::Modify(int fd, uint32_t events) {
  if (!status_.ok()) return status_;
  struct epoll_event ev = {};
  ev.events = events;
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev) != 0) {
    return Errno("epoll_ctl(mod)");
  }
  return Status::Ok();
}

void EventLoop::Remove(int fd) {
  if (!status_.ok()) return;
  // Deregistration failure (fd already closed) is harmless; the handler
  // map is the source of truth for dispatch.
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  handlers_.erase(fd);
}

void EventLoop::Post(Task task) {
  bool need_wakeup;
  {
    std::lock_guard<std::mutex> lock(post_mu_);
    posted_.push_back(std::move(task));
    need_wakeup = !wakeup_pending_;
    wakeup_pending_ = true;
  }
  if (need_wakeup) Wakeup();
}

void EventLoop::Wakeup() {
  if (wakeup_fd_ < 0) return;
  const uint64_t one = 1;
  // Signal-safe: a plain write. EAGAIN (counter saturated) still leaves
  // the fd readable, so the wakeup is never lost.
  [[maybe_unused]] ssize_t n = ::write(wakeup_fd_, &one, sizeof(one));
}

bool EventLoop::InLoopThread() const { return t_running_loop == this; }

int EventLoop::RunOnce(int timeout_ms) {
  if (!status_.ok()) return -1;
  struct Running {
    explicit Running(const EventLoop* loop) : outer(t_running_loop) {
      t_running_loop = loop;
    }
    ~Running() { t_running_loop = outer; }
    const EventLoop* outer;
  } running(this);
  struct epoll_event events[64];
  int n;
  do {
    n = ::epoll_wait(epoll_fd_, events, 64, timeout_ms);
  } while (n < 0 && errno == EINTR);
  if (n < 0) {
    QEC_LOG(Error) << "epoll_wait failed: " << std::strerror(errno);
    return -1;
  }
  int dispatched = 0;
  for (int i = 0; i < n; ++i) {
    const int fd = events[i].data.fd;
    if (fd == wakeup_fd_) {
      uint64_t drained;
      while (::read(wakeup_fd_, &drained, sizeof(drained)) > 0) {
      }
      continue;
    }
    auto it = handlers_.find(fd);
    if (it == handlers_.end()) continue;  // removed by an earlier handler
    // Copy the shared_ptr: the handler may Remove(fd) (connection close)
    // while executing.
    std::shared_ptr<FdHandler> handler = it->second;
    (*handler)(events[i].events);
    ++dispatched;
  }
  DrainPosted();
  return dispatched;
}

void EventLoop::DrainPosted() {
  std::vector<Task> tasks;
  {
    std::lock_guard<std::mutex> lock(post_mu_);
    tasks.swap(posted_);
    // Tasks posted from here on need a fresh eventfd write: the swap above
    // is the last point this drain observes the queue.
    wakeup_pending_ = false;
  }
  for (Task& task : tasks) task();
}

}  // namespace qec::server::net
