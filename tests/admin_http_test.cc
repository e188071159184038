// Loopback integration tests for the HTTP admin plane: request parsing
// across arbitrary TCP segmentation, pipelining with in-order responses,
// keep-alive and Connection: close, the header-size guard, routing
// (404/405), the /readyz drain flip, the exemplar round-trip from a served
// request through /metrics and back through the exposition parser, and
// the naming lint.
// Every server test drives a real AdminServer over real sockets.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "datagen/shopping.h"
#include "datagen/workload.h"
#include "doc/corpus.h"
#include "index/inverted_index.h"
#include "obs/metrics.h"
#include "obs/prometheus.h"
#include "server/admin/admin_server.h"
#include "server/net/net_server.h"
#include "server/protocol.h"
#include "server/server.h"

namespace qec::server::admin {
namespace {

// --------------------------------------------------------------- client --

/// Minimal blocking HTTP/1.1 test client with a receive timeout, so a
/// server bug fails the test instead of hanging the suite.
class HttpClient {
 public:
  explicit HttpClient(uint16_t port, int recv_timeout_sec = 10) {
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

  ~HttpClient() {
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

  bool Get(std::string_view path, std::string_view extra_headers = "") {
    std::string req = "GET ";
    req += path;
    req += " HTTP/1.1\r\nHost: test\r\n";
    req += extra_headers;
    req += "\r\n";
    return Send(req);
  }

  struct Response {
    int status = 0;
    std::string headers;  // raw header block, lower-cased
    std::string body;
    bool ok = false;
  };

  /// Reads one response: status line, headers, and a Content-Length body.
  Response ReadResponse() {
    Response response;
    const size_t head_end = ReadUntil("\r\n\r\n");
    if (head_end == std::string::npos) return response;
    std::string head = buf_.substr(0, head_end);
    buf_.erase(0, head_end + 4);
    for (char& c : head) c = static_cast<char>(std::tolower(c));
    if (head.compare(0, 9, "http/1.1 ") != 0) return response;
    response.status = std::atoi(head.c_str() + 9);
    response.headers = head;

    size_t content_length = 0;
    const size_t cl = head.find("content-length:");
    if (cl != std::string::npos) {
      content_length = static_cast<size_t>(
          std::strtoul(head.c_str() + cl + strlen("content-length:"),
                       nullptr, 10));
    }
    while (buf_.size() < content_length) {
      if (!FillBuffer()) return response;
    }
    response.body = buf_.substr(0, content_length);
    buf_.erase(0, content_length);
    response.ok = true;
    return response;
  }

  /// shutdown(SHUT_WR): the server reads EOF, the client can still read.
  bool HalfClose() { return ::shutdown(fd_, SHUT_WR) == 0; }

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

 private:
  /// Index of `token` in the buffer, reading more until found or EOF.
  size_t ReadUntil(std::string_view token) {
    for (;;) {
      const size_t pos = buf_.find(token);
      if (pos != std::string::npos) return pos;
      if (!FillBuffer()) return std::string::npos;
    }
  }

  bool FillBuffer() {
    char chunk[16 * 1024];
    ssize_t n;
    do {
      n = ::recv(fd_, chunk, sizeof(chunk), 0);
    } while (n < 0 && errno == EINTR);
    if (n <= 0) return false;
    buf_.append(chunk, static_cast<size_t>(n));
    return true;
  }

  int fd_ = -1;
  std::string buf_;
};

// -------------------------------------------------------------- fixture --

class AdminHttpFixture : public ::testing::Test {
 protected:
  AdminHttpFixture()
      : corpus_(datagen::ShoppingGenerator().Generate()), index_(corpus_) {}

  std::unique_ptr<AdminServer> StartAdmin(QecServer* server,
                                          net::NetServer* net = nullptr,
                                          AdminServerOptions options = {}) {
    auto admin = std::make_unique<AdminServer>(server, net, options);
    const Status started = admin->Start();
    EXPECT_TRUE(started.ok()) << started.ToString();
    EXPECT_NE(admin->port(), 0);
    return admin;
  }

  static std::string query(size_t i) {
    const auto& queries = datagen::ShoppingQueries();
    return queries[i % queries.size()].text;
  }

  doc::Corpus corpus_;
  index::InvertedIndex index_;
};

// ---------------------------------------------------------------- tests --

TEST_F(AdminHttpFixture, HealthzStatuszAndRouting) {
  QecServer server(index_);
  auto admin = StartAdmin(&server);
  HttpClient client(admin->port());
  ASSERT_TRUE(client.connected());

  ASSERT_TRUE(client.Get("/healthz"));
  auto health = client.ReadResponse();
  ASSERT_TRUE(health.ok);
  EXPECT_EQ(health.status, 200);
  EXPECT_EQ(health.body, "ok\n");

  // Keep-alive: the same connection serves the next request.
  ASSERT_TRUE(client.Get("/statusz"));
  auto statusz = client.ReadResponse();
  ASSERT_TRUE(statusz.ok);
  EXPECT_EQ(statusz.status, 200);
  EXPECT_NE(statusz.body.find("\"version\""), std::string::npos);
  EXPECT_NE(statusz.body.find("\"uptime_seconds\""), std::string::npos);
  EXPECT_NE(statusz.body.find("\"sweep_pool\""), std::string::npos);

  // Unknown paths, the retired profiler route among them: 404 (and still
  // keep-alive).
  for (const char* path : {"/no/such/route", "/pprof/profile"}) {
    ASSERT_TRUE(client.Get(path));
    auto missing = client.ReadResponse();
    ASSERT_TRUE(missing.ok);
    EXPECT_EQ(missing.status, 404) << path;
  }

  // Known path, wrong method: 405.
  ASSERT_TRUE(client.Send(
      "POST /healthz HTTP/1.1\r\nHost: test\r\nContent-Length: 0\r\n\r\n"));
  auto post = client.ReadResponse();
  ASSERT_TRUE(post.ok);
  EXPECT_EQ(post.status, 405);

  // The connection survived every exchange above.
  ASSERT_TRUE(client.Get("/healthz"));
  EXPECT_EQ(client.ReadResponse().status, 200);
}

TEST_F(AdminHttpFixture, ReassemblesSplitRequests) {
  QecServer server(index_);
  auto admin = StartAdmin(&server);
  HttpClient client(admin->port());
  ASSERT_TRUE(client.connected());

  // One request delivered a few bytes at a time, with pauses so each
  // fragment arrives as its own read event.
  const std::string request = "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n";
  for (size_t i = 0; i < request.size(); i += 5) {
    ASSERT_TRUE(client.Send(request.substr(i, 5)));
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  auto response = client.ReadResponse();
  ASSERT_TRUE(response.ok);
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.body, "ok\n");
}

TEST_F(AdminHttpFixture, PipelinedRequestsAnswerInOrder) {
  QecServer server(index_);
  auto admin = StartAdmin(&server);
  HttpClient client(admin->port());
  ASSERT_TRUE(client.connected());

  // Three different routes in one segment; responses must come back in
  // request order (distinguishable by body).
  ASSERT_TRUE(client.Send(
      "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n"
      "GET /readyz HTTP/1.1\r\nHost: t\r\n\r\n"
      "GET /nope HTTP/1.1\r\nHost: t\r\n\r\n"));
  auto first = client.ReadResponse();
  auto second = client.ReadResponse();
  auto third = client.ReadResponse();
  ASSERT_TRUE(first.ok && second.ok && third.ok);
  EXPECT_EQ(first.body, "ok\n");
  EXPECT_EQ(second.body, "ready\n");
  EXPECT_EQ(third.status, 404);
}

TEST_F(AdminHttpFixture, ConnectionCloseAndHttp10) {
  QecServer server(index_);
  auto admin = StartAdmin(&server);
  {
    HttpClient client(admin->port());
    ASSERT_TRUE(client.connected());
    ASSERT_TRUE(client.Get("/healthz", "Connection: close\r\n"));
    auto response = client.ReadResponse();
    ASSERT_TRUE(response.ok);
    EXPECT_EQ(response.status, 200);
    EXPECT_NE(response.headers.find("connection: close"), std::string::npos);
    EXPECT_TRUE(client.ReadEof());
  }
  {
    // HTTP/1.0 without keep-alive also closes after the response.
    HttpClient client(admin->port());
    ASSERT_TRUE(client.connected());
    ASSERT_TRUE(client.Send("GET /healthz HTTP/1.0\r\n\r\n"));
    auto response = client.ReadResponse();
    ASSERT_TRUE(response.ok);
    EXPECT_EQ(response.status, 200);
    EXPECT_TRUE(client.ReadEof());
  }
}

TEST_F(AdminHttpFixture, OversizedHeadersEarn431) {
  QecServer server(index_);
  AdminServerOptions options;
  options.max_header_bytes = 512;
  auto admin = StartAdmin(&server, nullptr, options);
  HttpClient client(admin->port());
  ASSERT_TRUE(client.connected());

  std::string request = "GET /healthz HTTP/1.1\r\nHost: t\r\nX-Big: ";
  request.append(2048, 'a');
  request += "\r\n\r\n";
  ASSERT_TRUE(client.Send(request));
  auto response = client.ReadResponse();
  ASSERT_TRUE(response.ok);
  EXPECT_EQ(response.status, 431);
  // The stream cannot resync past an unterminated head; the server closes.
  EXPECT_TRUE(client.ReadEof());
}

TEST_F(AdminHttpFixture, MalformedRequestLineEarns400) {
  QecServer server(index_);
  auto admin = StartAdmin(&server);
  HttpClient client(admin->port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.Send("NOT-HTTP\r\n\r\n"));
  auto response = client.ReadResponse();
  ASSERT_TRUE(response.ok);
  EXPECT_EQ(response.status, 400);
  EXPECT_TRUE(client.ReadEof());
}

TEST_F(AdminHttpFixture, MalformedContentLengthEarns400) {
  QecServer server(index_);
  auto admin = StartAdmin(&server);
  HttpClient client(admin->port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.Send(
      "POST /healthz HTTP/1.1\r\nHost: test\r\nContent-Length: 12x\r\n\r\n"));
  auto response = client.ReadResponse();
  ASSERT_TRUE(response.ok);
  EXPECT_EQ(response.status, 400);
  EXPECT_TRUE(client.ReadEof());
}

TEST_F(AdminHttpFixture, ReadyzFlipsDuringDrain) {
  QecServer server(index_);
  net::NetServer net(&server);
  ASSERT_TRUE(net.Start().ok());
  auto admin = StartAdmin(&server, &net);

  HttpClient client(admin->port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.Get("/readyz"));
  auto ready = client.ReadResponse();
  ASSERT_TRUE(ready.ok);
  EXPECT_EQ(ready.status, 200);
  EXPECT_EQ(ready.body, "ready\n");

  // The SIGTERM handler's sequence: flip the admin plane first, then stop
  // the query plane. /readyz reports 503 while the query listener is still
  // draining — and the admin plane keeps answering /healthz.
  admin->SetDraining();
  ASSERT_TRUE(client.Get("/readyz"));
  auto draining = client.ReadResponse();
  ASSERT_TRUE(draining.ok);
  EXPECT_EQ(draining.status, 503);
  EXPECT_EQ(draining.body, "draining\n");

  net.RequestStop();
  ASSERT_TRUE(client.Get("/healthz"));
  EXPECT_EQ(client.ReadResponse().status, 200);
  ASSERT_TRUE(client.Get("/readyz"));
  EXPECT_EQ(client.ReadResponse().status, 503);
  net.Shutdown();
}

TEST_F(AdminHttpFixture, ReadyzReflectsNetStopWithoutSetDraining) {
  QecServer server(index_);
  net::NetServer net(&server);
  ASSERT_TRUE(net.Start().ok());
  auto admin = StartAdmin(&server, &net);

  HttpClient client(admin->port());
  ASSERT_TRUE(client.connected());
  net.RequestStop();  // even without SetDraining, a stopping query plane
  ASSERT_TRUE(client.Get("/readyz"));
  EXPECT_EQ(client.ReadResponse().status, 503);
  net.Shutdown();
}

TEST_F(AdminHttpFixture, MetricsExemplarRoundTripAndLint) {
  obs::MetricsRegistry::Global().ResetAll();
  QecServer server(index_);
  // Serve a few requests so the latency histograms carry fresh exemplars.
  for (size_t i = 0; i < 8; ++i) {
    ServeRequest request;
    request.query = query(i);
    const ServeResponse response = server.Submit(std::move(request)).get();
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  }

  auto admin = StartAdmin(&server);
  HttpClient client(admin->port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.Get("/metrics"));
  auto scrape = client.ReadResponse();
  ASSERT_TRUE(scrape.ok);
  EXPECT_EQ(scrape.status, 200);
  EXPECT_NE(scrape.headers.find("application/openmetrics-text"),
            std::string::npos);
  ASSERT_NE(scrape.body.find("# EOF"), std::string::npos);

  // Round-trip: the exposition parses, validates, and lints clean.
  auto families = obs::ParsePrometheusText(scrape.body);
  ASSERT_TRUE(families.ok()) << families.status().ToString();
  const Status histograms = obs::ValidatePrometheusHistograms(*families);
  EXPECT_TRUE(histograms.ok()) << histograms.ToString();
  const Status naming = obs::LintPrometheusNaming(*families);
  EXPECT_TRUE(naming.ok()) << naming.ToString();

#ifndef QEC_DISABLE_TRACING
  // The request-latency histogram carries at least one exemplar whose
  // trace id is a 16-hex-digit string and whose value fits its bucket.
  // Histogram macros compile out with instrumentation, so only an
  // instrumented build has one.
  bool found_exemplar = false;
  for (const auto& family : *families) {
    if (family.name != "qec_server_request_latency_ns") continue;
    for (const auto& sample : family.samples) {
      if (!sample.has_exemplar) continue;
      found_exemplar = true;
      const std::string_view trace = sample.ExemplarLabel("trace_id");
      EXPECT_EQ(trace.size(), 16u) << trace;
      EXPECT_EQ(trace.find_first_not_of("0123456789abcdef"),
                std::string_view::npos)
          << trace;
      EXPECT_GT(sample.exemplar_timestamp, 0.0);
    }
  }
  EXPECT_TRUE(found_exemplar)
      << "no exemplar on qec_server_request_latency_ns";
#endif

  // The /proc process collector families are present.
  for (const char* name :
       {"qec_process_cpu_seconds_total", "qec_process_resident_memory_bytes",
        "qec_process_open_fds"}) {
    const bool present =
        std::any_of(families->begin(), families->end(),
                    [&](const obs::PrometheusFamily& f) {
                      return f.name == name && !f.samples.empty();
                    });
    EXPECT_TRUE(present) << name;
  }
}

TEST_F(AdminHttpFixture, SlowlogAndAbtestRoutes) {
  QecServer server(index_);
  auto admin = StartAdmin(&server);
  HttpClient client(admin->port());
  ASSERT_TRUE(client.connected());

  ASSERT_TRUE(client.Get("/slowlog?n=4"));
  auto slowlog = client.ReadResponse();
  ASSERT_TRUE(slowlog.ok);
  EXPECT_EQ(slowlog.status, 200);
  EXPECT_NE(slowlog.body.find("\"status\""), std::string::npos);

  ASSERT_TRUE(client.Get("/abtest"));
  auto abtest = client.ReadResponse();
  ASSERT_TRUE(abtest.ok);
  EXPECT_EQ(abtest.status, 200);
}

TEST_F(AdminHttpFixture, NanQueryParamFallsBack) {
  // strtod accepts "nan", and every comparison against NaN is false, so a
  // lenient parse let it through the clamp into a size_t cast (UB; on
  // x86-64 the slowlog answered "requested": 2^63). It must earn the
  // fallback count of 16 instead, exactly as a malformed value does.
  ServerOptions options;
  options.shadow_sample_rate = 1.0;
  QecServer server(index_, options);
  auto admin = StartAdmin(&server);
  HttpClient client(admin->port());
  ASSERT_TRUE(client.connected());

  ASSERT_TRUE(client.Get("/slowlog?n=nan"));
  auto slowlog = client.ReadResponse();
  ASSERT_TRUE(slowlog.ok);
  EXPECT_EQ(slowlog.status, 200);
  EXPECT_EQ(slowlog.body, server.SlowlogJsonLine(16) + "\n");

  ASSERT_TRUE(client.Get("/abtest?n=nan"));
  auto abtest = client.ReadResponse();
  ASSERT_TRUE(abtest.ok);
  EXPECT_EQ(abtest.status, 200);
  EXPECT_EQ(abtest.body, server.AbtestJsonLine(16) + "\n");
}

TEST_F(AdminHttpFixture, HalfClosedPeerGetsResponseThenEof) {
  QecServer server(index_);
  auto admin = StartAdmin(&server);
  HttpClient client(admin->port());
  ASSERT_TRUE(client.connected());

  // A peer that half-closes right after its request still gets the
  // response, then EOF: the read side's EOF must not drop what is owed.
  // (That the loop does not spin while a response is owed to a half-closed
  // peer is net::Connection's, covered in net_test.)
  ASSERT_TRUE(client.Get("/healthz"));
  ASSERT_TRUE(client.HalfClose());

  auto health = client.ReadResponse();
  ASSERT_TRUE(health.ok);
  EXPECT_EQ(health.status, 200);
  EXPECT_EQ(health.body, "ok\n");
  EXPECT_TRUE(client.ReadEof());
}

TEST(MetricsLintTest, CatchesNamingViolations) {
  // Counter family not ending in _total.
  {
    auto families = obs::ParsePrometheusText(
        "# TYPE qec_requests counter\nqec_requests 1\n");
    ASSERT_TRUE(families.ok()) << families.status().ToString();
    EXPECT_FALSE(obs::LintPrometheusNaming(*families).ok());
  }
  // Gauge family ending in _total.
  {
    auto families = obs::ParsePrometheusText(
        "# TYPE qec_depth_total gauge\nqec_depth_total 1\n");
    ASSERT_TRUE(families.ok());
    EXPECT_FALSE(obs::LintPrometheusNaming(*families).ok());
  }
  // Histogram missing its _sum sample.
  {
    auto families = obs::ParsePrometheusText(
        "# TYPE qec_lat_ns histogram\n"
        "qec_lat_ns_bucket{le=\"+Inf\"} 1\n"
        "qec_lat_ns_count 1\n");
    ASSERT_TRUE(families.ok());
    EXPECT_FALSE(obs::LintPrometheusNaming(*families).ok());
  }
  // A clean exposition passes.
  {
    auto families = obs::ParsePrometheusText(
        "# TYPE qec_requests_total counter\nqec_requests_total 1\n"
        "# TYPE qec_depth gauge\nqec_depth 2\n"
        "# TYPE qec_lat_ns histogram\n"
        "qec_lat_ns_bucket{le=\"1\"} 1\n"
        "qec_lat_ns_bucket{le=\"+Inf\"} 1\n"
        "qec_lat_ns_sum 1\nqec_lat_ns_count 1\n");
    ASSERT_TRUE(families.ok()) << families.status().ToString();
    const Status lint = obs::LintPrometheusNaming(*families);
    EXPECT_TRUE(lint.ok()) << lint.ToString();
  }
}

TEST(ExemplarParseTest, RoundTripsThroughWriterAndParser) {
  obs::MetricsRegistry::Global().ResetAll();
  obs::Histogram* h =
      obs::MetricsRegistry::Global().GetHistogram("exemplar_test/lat_ns");
  h->Record(1000, /*exemplar_trace_id=*/0x1234abcd5678ef00ULL);
  h->Record(5);  // untraced record: no exemplar on its bucket

  const std::string text =
      obs::WritePrometheus(obs::MetricsRegistry::Global().Snapshot());
  auto families = obs::ParsePrometheusText(text);
  ASSERT_TRUE(families.ok()) << families.status().ToString();

  bool found = false;
  for (const auto& family : *families) {
    if (family.name != "qec_exemplar_test_lat_ns") continue;
    for (const auto& sample : family.samples) {
      if (!sample.has_exemplar) continue;
      found = true;
      EXPECT_EQ(sample.ExemplarLabel("trace_id"), "1234abcd5678ef00");
      EXPECT_EQ(sample.exemplar_value, 1000.0);
    }
  }
  EXPECT_TRUE(found) << text;
  const Status valid = obs::ValidatePrometheusHistograms(*families);
  EXPECT_TRUE(valid.ok()) << valid.ToString();
}

}  // namespace
}  // namespace qec::server::admin
