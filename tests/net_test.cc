// Loopback integration tests for the epoll network front end: frame
// reassembly across arbitrary TCP segmentation, pipelined bursts with
// in-order writeback, the max-line guard, abrupt client disconnects, the
// connection cap, and graceful drain on shutdown. Every test drives a real
// NetServer over real sockets on 127.0.0.1.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "datagen/shopping.h"
#include "datagen/workload.h"
#include "doc/corpus.h"
#include "index/inverted_index.h"
#include "server/net/net_server.h"
#include "server/protocol.h"
#include "server/server.h"

namespace qec::server::net {
namespace {

// --------------------------------------------------------------- client --

/// Blocking loopback client socket with a receive timeout, so a server bug
/// fails the test instead of hanging the suite.
class TestClient {
 public:
  explicit TestClient(uint16_t port, int recv_timeout_sec = 10) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return;
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    struct timeval tv = {};
    tv.tv_sec = recv_timeout_sec;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    struct sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<struct sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

  ~TestClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool connected() const { return fd_ >= 0; }

  bool Send(std::string_view data) {
    size_t off = 0;
    while (off < data.size()) {
      const ssize_t n =
          ::send(fd_, data.data() + off, data.size() - off, MSG_NOSIGNAL);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        return false;
      }
      off += static_cast<size_t>(n);
    }
    return true;
  }

  /// Reads one '\n'-terminated line (terminator stripped). Empty string on
  /// EOF or timeout.
  std::string ReadLine() {
    for (;;) {
      const size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return line;
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        return std::string();
      }
      buf_.append(chunk, static_cast<size_t>(n));
    }
  }

  /// True when the peer closed: recv returns 0 with no buffered data.
  bool ReadEof() {
    if (!buf_.empty()) return false;
    char chunk[64];
    ssize_t n;
    do {
      n = ::recv(fd_, chunk, sizeof(chunk), 0);
    } while (n < 0 && errno == EINTR);
    return n == 0;
  }

  /// Abrupt teardown with an RST (SO_LINGER 0), as a crashing client does.
  void Abort() {
    if (fd_ < 0) return;
    struct linger lg = {};
    lg.l_onoff = 1;
    lg.l_linger = 0;
    ::setsockopt(fd_, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
    ::close(fd_);
    fd_ = -1;
  }

  int fd() const { return fd_; }

 private:
  int fd_ = -1;
  std::string buf_;
};

/// Share of one CPU the whole process burns while the calling thread
/// sleeps `window_ms`: a loop thread spinning on a level-triggered event
/// reads as ~1.0, an idle loop as ~0.
double CpuShareWhileSleeping(int window_ms) {
  const auto cpu_ms = [] {
    struct timespec ts = {};
    ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) * 1e3 +
           static_cast<double>(ts.tv_nsec) / 1e6;
  };
  const double cpu_start = cpu_ms();
  const auto wall_start = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(std::chrono::milliseconds(window_ms));
  const double wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - wall_start)
                             .count();
  return (cpu_ms() - cpu_start) / wall_ms;
}

/// `line` without the values of its "expansion_ms" fields: EXPLAIN times
/// each arm, so two renderings of one request differ only there.
std::string MaskExpansionMs(std::string line) {
  const std::string key = "\"expansion_ms\":";
  for (size_t pos = line.find(key); pos != std::string::npos;
       pos = line.find(key, pos + key.size())) {
    const size_t begin = pos + key.size();
    line.erase(begin, line.find_first_of(",}", begin) - begin);
  }
  return line;
}

// -------------------------------------------------------------- fixture --

class NetServerFixture : public ::testing::Test {
 protected:
  NetServerFixture()
      : corpus_(datagen::ShoppingGenerator().Generate()), index_(corpus_) {}

  /// Builds and starts a server; returns it listening on an ephemeral port.
  std::unique_ptr<NetServer> StartNet(QecServer* server,
                                      NetServerOptions options = {}) {
    auto net = std::make_unique<NetServer>(server, options);
    const Status started = net->Start();
    EXPECT_TRUE(started.ok()) << started.ToString();
    EXPECT_NE(net->port(), 0);
    return net;
  }

  static std::string query(size_t i) {
    const auto& queries = datagen::ShoppingQueries();
    return queries[i % queries.size()].text;
  }

  doc::Corpus corpus_;
  index::InvertedIndex index_;
};

// ---------------------------------------------------------------- tests --

TEST_F(NetServerFixture, ServesPingAndExpand) {
  QecServer server(index_);
  auto net = StartNet(&server);
  TestClient client(net->port());
  ASSERT_TRUE(client.connected());

  ASSERT_TRUE(client.Send("PING\n"));
  EXPECT_EQ(client.ReadLine(), "{\"status\":\"ok\",\"pong\":true}");

  ASSERT_TRUE(client.Send("EXPAND " + query(0) + "\n"));
  const std::string line = client.ReadLine();
  EXPECT_NE(line.find("\"status\":\"ok\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"queries\":["), std::string::npos) << line;
}

TEST_F(NetServerFixture, ReassemblesSplitFrames) {
  QecServer server(index_);
  auto net = StartNet(&server);
  TestClient client(net->port());
  ASSERT_TRUE(client.connected());

  // One request delivered a few bytes at a time, with pauses so each
  // fragment arrives as its own TCP segment and read event.
  const std::string request = "EXPAND " + query(0) + "\n";
  for (size_t i = 0; i < request.size(); i += 3) {
    ASSERT_TRUE(client.Send(request.substr(i, 3)));
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const std::string line = client.ReadLine();
  EXPECT_NE(line.find("\"status\":\"ok\""), std::string::npos) << line;

  // CRLF-terminated and blank lines: the terminator is stripped and empty
  // frames are skipped, not answered.
  ASSERT_TRUE(client.Send("\r\n\nPING\r\n"));
  EXPECT_EQ(client.ReadLine(), "{\"status\":\"ok\",\"pong\":true}");
}

TEST_F(NetServerFixture, WhitespaceOnlyLineIsSkipped) {
  QecServer server(index_);
  auto net = StartNet(&server);
  TestClient client(net->port());
  ASSERT_TRUE(client.connected());

  // Both transports share one grammar: a line of only whitespace is
  // skipped like an empty one, not answered with a parse error.
  ASSERT_TRUE(client.Send("PING\n \t \r\nPING\n"));
  EXPECT_EQ(client.ReadLine(), "{\"status\":\"ok\",\"pong\":true}");
  EXPECT_EQ(client.ReadLine(), "{\"status\":\"ok\",\"pong\":true}");
  EXPECT_EQ(net->stats().parse_errors, 0u);
}

TEST_F(NetServerFixture, PipelinedBurstAnswersInOrder) {
  QecServer server(index_);
  auto net = StartNet(&server);

  // Expected responses come from the direct, synchronous path; cache-warm
  // both sides so the only difference left is the transport.
  const size_t kBurst = 12;
  std::vector<std::string> expected_tails;
  for (size_t i = 0; i < kBurst; ++i) {
    auto parsed = ParseRequestLine("EXPAND " + query(i));
    ASSERT_TRUE(parsed.ok());
    const ServeResponse direct = server.Submit(*parsed).get();
    ASSERT_TRUE(direct.status.ok());
    expected_tails.push_back(RenderOutcomeTail(direct.outcome));
  }

  TestClient client(net->port());
  ASSERT_TRUE(client.connected());
  std::string wire;
  for (size_t i = 0; i < kBurst; ++i) wire += "EXPAND " + query(i) + "\n";
  wire += "PING\n";
  ASSERT_TRUE(client.Send(wire));

  for (size_t i = 0; i < kBurst; ++i) {
    const std::string line = client.ReadLine();
    // In-order writeback: response i carries request i's outcome tail.
    EXPECT_NE(line.find(expected_tails[i]), std::string::npos)
        << "response " << i << " out of order: " << line;
  }
  EXPECT_EQ(client.ReadLine(), "{\"status\":\"ok\",\"pong\":true}");

  const NetServerStats stats = net->stats();
  EXPECT_EQ(stats.expand_requests, kBurst);
  EXPECT_GE(stats.batches, 1u);
}

// A cache hit behind a cold EXPAND is answered at admission, on the loop
// thread, before the cold one finishes on a worker; its slot still keeps
// the response stream in request order.
TEST_F(NetServerFixture, CacheHitBehindAColdExpandAnswersInOrder) {
  QecServer server(index_);
  auto net = StartNet(&server);
  auto warm_request = ParseRequestLine("EXPAND " + query(1));
  ASSERT_TRUE(warm_request.ok());
  const ServeResponse warm = server.Submit(*warm_request).get();
  ASSERT_TRUE(warm.status.ok());
  auto cold_request = ParseRequestLine("EXPAND " + query(0));
  ASSERT_TRUE(cold_request.ok());

  TestClient client(net->port());
  ASSERT_TRUE(client.connected());
  const std::string wire =
      "EXPAND " + query(0) + "\nEXPAND " + query(1) + "\nPING\n";
  ASSERT_TRUE(client.Send(wire));
  const std::string cold_line = client.ReadLine();
  const std::string warm_line = client.ReadLine();
  EXPECT_EQ(client.ReadLine(), "{\"status\":\"ok\",\"pong\":true}");

  EXPECT_NE(cold_line.find("\"cached\":false"), std::string::npos) << cold_line;
  EXPECT_NE(warm_line.find("\"cached\":true"), std::string::npos) << warm_line;
  EXPECT_NE(warm_line.find(RenderOutcomeTail(warm.outcome)), std::string::npos)
      << warm_line;
  const ServeResponse cold = server.Submit(*cold_request).get();
  ASSERT_TRUE(cold.status.ok());
  EXPECT_NE(cold_line.find(RenderOutcomeTail(cold.outcome)), std::string::npos)
      << cold_line;
  EXPECT_EQ(server.stats().completed, 4u);
}

// EXPLAIN runs on the worker pool, never on the loop thread: with no
// workers it stays owed while another connection's PING is answered.
TEST_F(NetServerFixture, ExplainWaitsForWorkersWhilePingIsAnswered) {
  ServerOptions server_options;
  server_options.start_workers = false;
  QecServer server(index_, server_options);
  auto net = StartNet(&server);
  TestClient a(net->port());
  TestClient b(net->port());
  ASSERT_TRUE(a.connected());
  ASSERT_TRUE(b.connected());

  const std::string line = "EXPLAIN " + query(0);
  ASSERT_TRUE(a.Send(line + "\n"));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (net->stats().expand_requests < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(net->stats().expand_requests, 1u);
  ASSERT_TRUE(b.Send("PING\n"));
  EXPECT_EQ(b.ReadLine(), "{\"status\":\"ok\",\"pong\":true}");
  EXPECT_EQ(server.queue_depth(), 1u);
  char byte;
  EXPECT_EQ(::recv(a.fd(), &byte, 1, MSG_DONTWAIT), -1);

  server.Start();
  auto parsed = ParseRequestLine(line);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(MaskExpansionMs(a.ReadLine()),
            MaskExpansionMs(server.ExplainJsonLine(*parsed)));
  EXPECT_EQ(net->stats().immediate_requests, 1u);
}

TEST_F(NetServerFixture, MalformedLineGetsErrorAndStreamContinues) {
  QecServer server(index_);
  auto net = StartNet(&server);
  TestClient client(net->port());
  ASSERT_TRUE(client.connected());

  ASSERT_TRUE(client.Send("BOGUS verb\nPING\n"));
  const std::string error = client.ReadLine();
  EXPECT_NE(error.find("\"status\":\"error\""), std::string::npos) << error;
  // A parse error poisons one request, not the connection.
  EXPECT_EQ(client.ReadLine(), "{\"status\":\"ok\",\"pong\":true}");
  EXPECT_EQ(net->stats().parse_errors, 1u);
}

TEST_F(NetServerFixture, OversizedLineIsRejectedAndConnectionCloses) {
  QecServer server(index_);
  NetServerOptions options;
  options.max_line_bytes = 128;
  auto net = StartNet(&server, options);
  TestClient client(net->port());
  ASSERT_TRUE(client.connected());

  // An unterminated frame larger than the limit: the guard must fire
  // without ever seeing a newline (the terminator may never come).
  ASSERT_TRUE(client.Send(std::string(4096, 'x')));
  const std::string line = client.ReadLine();
  EXPECT_NE(line.find("\"status\":\"error\""), std::string::npos) << line;
  EXPECT_NE(line.find("exceeds"), std::string::npos) << line;
  // The stream cannot resync past an unterminated frame — the server
  // drains the connection closed after the error line.
  EXPECT_TRUE(client.ReadEof());
}

TEST_F(NetServerFixture, MidRequestDisconnectLeavesServerServing) {
  QecServer server(index_);
  auto net = StartNet(&server);

  {
    TestClient doomed(net->port());
    ASSERT_TRUE(doomed.connected());
    // A full request (whose response will have nowhere to go) plus a
    // partial one, then an abrupt RST mid-stream.
    ASSERT_TRUE(doomed.Send("EXPAND " + query(0) + "\nEXPAND half a requ"));
    doomed.Abort();
  }

  // The server must notice the disconnect, reap the connection, and keep
  // serving others.
  TestClient client(net->port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.Send("PING\n"));
  EXPECT_EQ(client.ReadLine(), "{\"status\":\"ok\",\"pong\":true}");

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (net->stats().closed < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(net->stats().closed, 1u);
}

TEST_F(NetServerFixture, OverCapacityConnectionIsTurnedAway) {
  QecServer server(index_);
  NetServerOptions options;
  options.max_connections = 1;
  auto net = StartNet(&server, options);

  TestClient first(net->port());
  ASSERT_TRUE(first.connected());
  ASSERT_TRUE(first.Send("PING\n"));
  EXPECT_EQ(first.ReadLine(), "{\"status\":\"ok\",\"pong\":true}");

  TestClient second(net->port());
  ASSERT_TRUE(second.connected());
  const std::string line = second.ReadLine();
  EXPECT_NE(line.find("\"code\":\"Unavailable\""), std::string::npos) << line;
  EXPECT_TRUE(second.ReadEof());
  EXPECT_EQ(net->stats().rejected_over_capacity, 1u);
}

TEST_F(NetServerFixture, ShutdownDrainsOwedResponses) {
  QecServer server(index_);
  auto net = StartNet(&server);

  TestClient client(net->port());
  ASSERT_TRUE(client.connected());
  const size_t kBurst = 8;
  std::string wire;
  for (size_t i = 0; i < kBurst; ++i) wire += "EXPAND " + query(i) + "\n";
  ASSERT_TRUE(client.Send(wire));

  // Wait until the loop has read the burst, then shut down mid-flight:
  // every admitted request must still get its response before EOF.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (net->stats().expand_requests < kBurst &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(net->stats().expand_requests, kBurst);
  net->Shutdown();

  for (size_t i = 0; i < kBurst; ++i) {
    const std::string line = client.ReadLine();
    EXPECT_NE(line.find("\"status\":\"ok\""), std::string::npos)
        << "response " << i << ": " << line;
  }
  EXPECT_TRUE(client.ReadEof());
  EXPECT_EQ(net->stats().active_connections, 0u);
}

TEST_F(NetServerFixture, StatsOverTcp) {
  QecServer server(index_);
  auto net = StartNet(&server);
  TestClient client(net->port());
  ASSERT_TRUE(client.connected());

  // A pipelined EXPAND ahead of STATS must be visible as submitted by the
  // time STATS is answered (batch-before-immediate ordering).
  ASSERT_TRUE(client.Send("EXPAND " + query(0) + "\nSTATS\n"));
  const std::string expand = client.ReadLine();
  EXPECT_NE(expand.find("\"status\":\"ok\""), std::string::npos) << expand;
  const std::string stats = client.ReadLine();
  EXPECT_NE(stats.find("\"submitted\":"), std::string::npos) << stats;
  EXPECT_EQ(stats.find("\"submitted\":0"), std::string::npos) << stats;
}

TEST_F(NetServerFixture, OperatorViewVerbsGetOneErrorLineEach) {
  QecServer server(index_);
  auto net = StartNet(&server);
  TestClient client(net->port());
  ASSERT_TRUE(client.connected());

  // The operator views live on the admin plane only: each old verb is one
  // unknown-verb line, and the connection keeps serving behind it.
  ASSERT_TRUE(client.Send("METRICS\nPING\nSLOWLOG 5\nABTEST\nPING\n"));
  EXPECT_EQ(client.ReadLine(),
            "{\"status\":\"error\",\"code\":\"InvalidArgument\","
            "\"message\":\"unknown verb 'METRICS'\"}");
  EXPECT_EQ(client.ReadLine(), "{\"status\":\"ok\",\"pong\":true}");
  EXPECT_EQ(client.ReadLine(),
            "{\"status\":\"error\",\"code\":\"InvalidArgument\","
            "\"message\":\"unknown verb 'SLOWLOG'\"}");
  EXPECT_EQ(client.ReadLine(),
            "{\"status\":\"error\",\"code\":\"InvalidArgument\","
            "\"message\":\"unknown verb 'ABTEST'\"}");
  EXPECT_EQ(client.ReadLine(), "{\"status\":\"ok\",\"pong\":true}");
  EXPECT_EQ(net->stats().parse_errors, 3u);
}

TEST_F(NetServerFixture, HalfClosedPeerWithOwedResponseDoesNotSpin) {
  ServerOptions server_options;
  server_options.start_workers = false;  // the EXPAND stays owed until Start()
  QecServer server(index_, server_options);
  auto net = StartNet(&server);
  TestClient client(net->port());
  ASSERT_TRUE(client.connected());

  ASSERT_TRUE(client.Send("EXPAND " + query(0) + "\n"));
  ASSERT_EQ(::shutdown(client.fd(), SHUT_WR), 0);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (net->stats().expand_requests < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(net->stats().expand_requests, 1u);

  // The socket at EOF stays readable; the loop must stop watching it
  // while the response is owed instead of spinning on it.
  EXPECT_LT(CpuShareWhileSleeping(300), 0.25);

  server.Start();
  const std::string line = client.ReadLine();
  EXPECT_NE(line.find("\"status\":\"ok\""), std::string::npos) << line;
  EXPECT_TRUE(client.ReadEof());
}

TEST_F(NetServerFixture, FdExhaustionTurnsConnectionAwayWithoutSpinning) {
  QecServer server(index_);
  auto net = StartNet(&server);
  {
    // Serve once first: sanitizer runtimes open descriptors the first time
    // they check a type, which they cannot do once the limit drops.
    TestClient warm(net->port());
    ASSERT_TRUE(warm.connected());
    ASSERT_TRUE(warm.Send("PING\n"));
    ASSERT_EQ(warm.ReadLine(), "{\"status\":\"ok\",\"pong\":true}");
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (net->stats().closed < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(net->stats().closed, 1u);  // its descriptor is free again

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  struct timeval tv = {};
  tv.tv_sec = 2;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  struct sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(net->port());
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);

  // Fill every free descriptor below the highest open one, then cap the
  // soft limit at the next free number: the server's accept() now fails
  // with EMFILE.
  int top = 0;
  for (int f = 0; f < 4096; ++f) {
    if (::fcntl(f, F_GETFD) != -1) top = f;
  }
  std::vector<int> fillers;
  int next = ::dup(0);
  while (next >= 0 && next < top) {
    fillers.push_back(next);
    next = ::dup(0);
  }
  ASSERT_GT(next, top);
  ::close(next);
  struct rlimit saved = {};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
  struct rlimit lowered = saved;
  lowered.rlim_cur = static_cast<rlim_t>(next);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &lowered), 0);

  // Only EXPECTs until the limit is restored.
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  std::string received;
  char chunk[256];
  ssize_t n = 0;
  while ((n = ::recv(fd, chunk, sizeof(chunk), 0)) > 0) {
    received.append(chunk, static_cast<size_t>(n));
  }
  const bool eof = n == 0;
  const auto took = std::chrono::steady_clock::now() - start;
  const double cpu_share = CpuShareWhileSleeping(300);

  ::setrlimit(RLIMIT_NOFILE, &saved);
  for (const int filler : fillers) ::close(filler);
  ::close(fd);

  EXPECT_NE(received.find("\"code\":\"Unavailable\""), std::string::npos)
      << received;
  EXPECT_TRUE(eof);
  EXPECT_LT(took, std::chrono::seconds(2));
  EXPECT_LT(cpu_share, 0.25);
  EXPECT_EQ(net->stats().rejected_over_capacity, 1u);

  // The server serves normally once descriptors are back.
  TestClient client(net->port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.Send("PING\n"));
  EXPECT_EQ(client.ReadLine(), "{\"status\":\"ok\",\"pong\":true}");
}

}  // namespace
}  // namespace qec::server::net
