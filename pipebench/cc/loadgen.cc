#include "loadgen.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <deque>

#include "bench_util.h"

namespace pipebench {

namespace {

struct Connection {
  int fd = -1;
  std::string out;
  size_t out_pos = 0;
  std::string in;
  /// Requests written and not yet answered, in order.
  std::deque<size_t> waiting;
};

/// Writes as much pending output as the socket takes; false on an error.
bool Flush(Connection* c) {
  while (c->out_pos < c->out.size()) {
    const ssize_t n = ::send(c->fd, c->out.data() + c->out_pos,
                             c->out.size() - c->out_pos,
                             MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      c->out_pos += static_cast<size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return true;
    } else {
      return false;
    }
  }
  c->out.clear();
  c->out_pos = 0;
  return true;
}

}  // namespace

int ConnectLoopback(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  struct sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  const int on = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &on, sizeof(on));
  return fd;
}

OpenLoopRun RunOpenLoop(const std::vector<std::string>& lines,
                        const OpenLoopOptions& options) {
  OpenLoopRun run;
  const size_t n = lines.size();
  run.records.resize(n);
  std::vector<Connection> conns(std::max<size_t>(options.connections, 1));
  auto close_all = [&] {
    for (Connection& c : conns) {
      if (c.fd >= 0) ::close(c.fd);
      c.fd = -1;
    }
  };
  for (Connection& c : conns) {
    c.fd = ConnectLoopback(options.port);
    if (c.fd < 0 || ::fcntl(c.fd, F_SETFL, O_NONBLOCK) != 0) {
      run.error = "cannot connect to port " + std::to_string(options.port);
      close_all();
      return run;
    }
  }
  const double interval_ns = 1e9 / options.rate_per_second;
  for (size_t i = 0; i < n; ++i) {
    run.records[i].due_ns =
        std::llround(static_cast<double>(i) * interval_ns);
  }

  const int64_t origin = NowNs() + 1'000'000;
  auto now = [&] { return NowNs() - origin; };
  // Give up on outstanding responses this long after the last send.
  constexpr int64_t drain_ns = 30'000'000'000;
  int64_t drain_deadline = std::numeric_limits<int64_t>::max();
  size_t next = 0;
  size_t answered = 0;
  std::vector<size_t> burst;
  std::vector<struct pollfd> polls(conns.size());
  char buffer[64 * 1024];

  while (answered < n && run.error.empty()) {
    // Write every request that is due. A request is stamped sent just
    // before its connection's write: on loopback the server can answer
    // before send() returns.
    if (next < n && run.records[next].due_ns <= now()) {
      burst.clear();
      const int64_t due_by = now();
      while (next < n && run.records[next].due_ns <= due_by) {
        Connection& c = conns[next % conns.size()];
        c.out += lines[next];
        c.out += '\n';
        c.waiting.push_back(next);
        burst.push_back(next);
        ++next;
      }
      for (size_t k = 0; k < conns.size(); ++k) {
        if (conns[k].out.empty()) continue;
        const int64_t sent = now();
        for (size_t i : burst) {
          if (i % conns.size() != k) continue;
          run.records[i].sent_ns = sent;
          if (i == options.cpu_mark) run.cpu_at_mark = ProcessCpuSeconds();
        }
        if (!Flush(&conns[k])) run.error = "send failed";
      }
      if (next == n) drain_deadline = now() + drain_ns;
      continue;
    }

    // Sleep until the next send is due or a response arrives.
    const int64_t wake = next < n ? run.records[next].due_ns : drain_deadline;
    const int64_t wait_ns = std::max<int64_t>(0, wake - now());
    if (next == n && wait_ns == 0) {
      run.error = "timed out waiting for responses";
      break;
    }
    for (size_t k = 0; k < conns.size(); ++k) {
      polls[k].fd = conns[k].fd;
      polls[k].events =
          static_cast<short>(POLLIN | (conns[k].out.empty() ? 0 : POLLOUT));
      polls[k].revents = 0;
    }
    const struct timespec timeout = {
        static_cast<time_t>(wait_ns / 1'000'000'000),
        static_cast<long>(wait_ns % 1'000'000'000)};
    const int ready = ::ppoll(polls.data(), polls.size(), &timeout, nullptr);
    if (ready < 0 && errno != EINTR) {
      run.error = "poll failed";
      break;
    }
    if (ready <= 0) continue;

    for (size_t k = 0; k < conns.size() && run.error.empty(); ++k) {
      Connection& c = conns[k];
      if ((polls[k].revents & POLLOUT) != 0 && !Flush(&c)) {
        run.error = "send failed";
        break;
      }
      if ((polls[k].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      for (;;) {
        const ssize_t got =
            ::recv(c.fd, buffer, sizeof(buffer), MSG_DONTWAIT);
        if (got > 0) {
          c.in.append(buffer, static_cast<size_t>(got));
          continue;
        }
        if (got < 0 && errno == EINTR) continue;
        if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        run.error = got == 0 ? "server closed the connection" : "recv failed";
        break;
      }
      const int64_t done = now();
      size_t start = 0;
      for (size_t nl = c.in.find('\n'); nl != std::string::npos;
           nl = c.in.find('\n', start)) {
        if (c.waiting.empty()) {
          run.error = "response without a request";
          break;
        }
        OpenLoopRecord& record = run.records[c.waiting.front()];
        c.waiting.pop_front();
        record.response.assign(c.in, start, nl - start);
        record.done_ns = done;
        start = nl + 1;
        if (++answered == n) run.cpu_at_end = ProcessCpuSeconds();
      }
      c.in.erase(0, start);
    }
  }
  close_all();
  if (run.error.empty() && answered < n) run.error = "missing responses";
  if (answered < n) run.cpu_at_end = ProcessCpuSeconds();
  return run;
}

}  // namespace pipebench
