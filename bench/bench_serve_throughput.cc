// Serving-layer throughput on a repeated-query workload.
//
// Real keyword-search traffic is heavily head-skewed (the query-log
// studies behind the paper's log-based baselines), so the qec_server
// expansion cache should amortize almost all of the clustering +
// generation work. This bench replays a Zipf-skewed stream drawn from the
// Table 1 shopping workload (src/datagen/workload.cc) against a QecServer
// twice — caches disabled, then enabled — and reports the speedup. The
// acceptance bar for the serving layer is >= 2x with caches on.
//
// Flags: --requests=N (default 400), --threads=N (default 0 = auto),
// --queue=N (default 256), --no-cache (run only the uncached config),
// --shadow-rate=R (additionally run the cached config with shadow A/B
// execution at rate R and report foreground p99 shadows-on vs shadows-off
// — the acceptance bar is p99 within 10% on the cached path),
// --result-out=FILE (write a plain JSON result summary — qps, latency
// percentiles, per-stage breakdown — that works even in notrace builds,
// which is what the CI telemetry-overhead gate compares), plus the shared
// observability flags (--metrics-out=FILE writes the metrics JSON,
// including server/cache_* counters, the queue-depth gauges, and the
// server/request_latency_ns histogram).
//
// --net switches to the network load-generator mode: an in-process epoll
// NetServer (ephemeral loopback port) is driven by the same Zipf workload,
// cache pre-warmed, first with one single-in-flight connection (the old
// stdin serve loop's behavior: one request, wait, repeat), then with
// --connections=N (default 8) pipelined connections at --pipeline=D
// (default 32) requests in flight each. Reports both QPS and their ratio —
// the acceptance bar is >= 4x — and cross-checks that the TCP transport
// returns byte-identical responses (volatile fields canonicalized) to the
// direct submission path for the same request stream.
//
// --admin-port (net mode) additionally runs an in-process HTTP admin plane
// and repeats the pipelined run under a 1 Hz /metrics scrape; the result
// JSON gains "scrape":{"scrapes","p99_ratio","scraped"} — the CI gate
// compares p99_ratio against its regression budget.
//
// A malformed numeric flag value (non-numeric, negative, or a non-finite
// --shadow-rate) exits 2 like an unknown flag.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <future>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "datagen/shopping.h"
#include "datagen/workload.h"
#include "eval/obs_report.h"
#include "eval/table_printer.h"
#include "index/inverted_index.h"
#include "server/admin/admin_server.h"
#include "server/net/net_server.h"
#include "server/protocol.h"
#include "server/request_context.h"
#include "server/server.h"

namespace {

/// A Zipf-skewed request stream over the Table 1 shopping queries:
/// query at popularity rank r is drawn with weight 1/(r+1).
std::vector<std::string> MakeWorkload(size_t num_requests, uint64_t seed) {
  const auto queries = qec::datagen::ShoppingQueries();
  std::vector<double> cumulative;
  double total = 0.0;
  for (size_t r = 0; r < queries.size(); ++r) {
    total += 1.0 / static_cast<double>(r + 1);
    cumulative.push_back(total);
  }
  qec::Rng rng(seed);
  std::vector<std::string> workload;
  workload.reserve(num_requests);
  for (size_t i = 0; i < num_requests; ++i) {
    const double x = rng.UniformDouble() * total;
    size_t pick = 0;
    while (pick + 1 < cumulative.size() && cumulative[pick] < x) ++pick;
    workload.push_back(queries[pick].text);
  }
  return workload;
}

struct RunResult {
  double seconds = 0.0;
  double qps = 0.0;
  size_t ok = 0;
  size_t errors = 0;
  qec::server::ServerStats stats;
  /// Shadow A/B tallies (all zero when the run had shadow_rate 0).
  qec::server::ShadowTallies shadow;
  /// Summed per-stage nanoseconds over every response (the responses carry
  /// their StageTimings in all builds, so this survives QEC_DISABLE_TRACING).
  uint64_t stage_ns[qec::server::kNumStages] = {};
  /// Per-request total latency in milliseconds, for percentiles.
  std::vector<double> latencies_ms;

  double Percentile(double q) const {
    if (latencies_ms.empty()) return 0.0;
    std::vector<double> sorted = latencies_ms;
    std::sort(sorted.begin(), sorted.end());
    const double rank = q / 100.0 * static_cast<double>(sorted.size() - 1);
    const size_t lo = static_cast<size_t>(rank);
    const size_t hi = lo + 1 < sorted.size() ? lo + 1 : lo;
    const double frac = rank - static_cast<double>(lo);
    return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
  }
};

/// Prints the per-stage latency breakdown for a run. Stage timings come from
/// the responses' StageTimings, so the table is populated in every build
/// (including QEC_DISABLE_TRACING, which only strips the metrics macros).
void PrintStageBreakdown(const char* config, const RunResult& r) {
  qec::eval::TablePrinter table(
      {"stage", "total ms", "avg ms", "share %"});
  uint64_t total_ns = 0;
  for (size_t s = 0; s < qec::server::kNumStages; ++s) total_ns += r.stage_ns[s];
  const double requests =
      r.latencies_ms.empty() ? 1.0 : static_cast<double>(r.latencies_ms.size());
  for (size_t s = 0; s < qec::server::kNumStages; ++s) {
    const double ms = static_cast<double>(r.stage_ns[s]) / 1e6;
    const double share =
        total_ns > 0
            ? 100.0 * static_cast<double>(r.stage_ns[s]) /
                  static_cast<double>(total_ns)
            : 0.0;
    table.AddRow({std::string(qec::server::StageName(
                      static_cast<qec::server::Stage>(s))),
                  qec::FormatDouble(ms, 3), qec::FormatDouble(ms / requests, 4),
                  qec::FormatDouble(share, 1)});
  }
  std::printf("per-stage breakdown (%s): p50=%.3fms p95=%.3fms\n%s\n", config,
              r.Percentile(50.0), r.Percentile(95.0),
              table.ToString().c_str());
}

/// Appends the JSON object for one run to `out` (no trailing separator).
void AppendRunJson(std::string* out, const RunResult& r) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"seconds\":%.6f,\"qps\":%.3f,\"ok\":%zu,\"errors\":%zu,"
                "\"p50_ms\":%.6f,\"p95_ms\":%.6f,\"p99_ms\":%.6f,\"stages_ms\":{",
                r.seconds, r.qps, r.ok, r.errors, r.Percentile(50.0),
                r.Percentile(95.0), r.Percentile(99.0));
  *out += buf;
  for (size_t s = 0; s < qec::server::kNumStages; ++s) {
    const std::string stage(
        qec::server::StageName(static_cast<qec::server::Stage>(s)));
    std::snprintf(buf, sizeof(buf), "%s\"%s\":%.6f", s > 0 ? "," : "",
                  stage.c_str(), static_cast<double>(r.stage_ns[s]) / 1e6);
    *out += buf;
  }
  *out += "}}";
}

RunResult RunWorkload(const qec::index::InvertedIndex& index,
                      const std::vector<std::string>& workload, bool caches,
                      size_t threads, size_t queue_capacity,
                      double shadow_rate = 0.0) {
  qec::server::ServerOptions options;
  options.num_threads = threads;
  options.queue_capacity = queue_capacity;
  options.enable_expansion_cache = caches;
  options.enable_set_algebra_cache = caches;
  options.expander.candidates.fraction = 1.0;
  options.shadow_sample_rate = shadow_rate;
  options.shadow_algorithm = qec::core::ExpansionAlgorithm::kPebc;
  qec::server::QecServer server(index, options);

  // Submit with backpressure: keep fewer requests outstanding than the
  // admission queue holds, so nothing sheds and every request completes.
  const size_t window =
      queue_capacity > 16 ? queue_capacity - 16 : queue_capacity;
  RunResult result;
  std::deque<std::future<qec::server::ServeResponse>> outstanding;
  auto drain_one = [&] {
    qec::server::ServeResponse response = outstanding.front().get();
    outstanding.pop_front();
    if (response.status.ok()) {
      ++result.ok;
    } else {
      ++result.errors;
      std::fprintf(stderr, "request failed: %s\n",
                   response.status.ToString().c_str());
    }
    for (size_t s = 0; s < qec::server::kNumStages; ++s) {
      result.stage_ns[s] += response.stages.ns[s];
    }
    result.latencies_ms.push_back(response.total_seconds * 1e3);
  };

  qec::Stopwatch watch;
  for (const std::string& query : workload) {
    qec::server::ServeRequest request;
    request.query = query;
    while (outstanding.size() >= window) drain_one();
    outstanding.push_back(server.Submit(std::move(request)));
  }
  while (!outstanding.empty()) drain_one();
  result.seconds = watch.ElapsedSeconds();
  result.qps = result.seconds > 0.0
                   ? static_cast<double>(workload.size()) / result.seconds
                   : 0.0;
  result.stats = server.stats();
  if (shadow_rate > 0.0) {
    // Foreground latencies are already recorded; give the low-priority
    // shadow queue a moment to drain so the tallies reflect executed
    // comparisons instead of still-queued jobs.
    while (server.shadow_queue_depth() > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  result.shadow = server.shadow_tallies();
  return result;
}

// ---------------------------------------------------------------------------
// --net mode: drive an in-process NetServer over loopback TCP.

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

bool SendAll(int fd, const char* data, size_t size) {
  size_t sent = 0;
  while (sent < size) {
    const ssize_t n = ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

/// Buffered blocking line reader over a socket.
class LineReader {
 public:
  explicit LineReader(int fd) : fd_(fd) {}

  bool ReadLine(std::string* out) {
    for (;;) {
      const size_t nl = buf_.find('\n', pos_);
      if (nl != std::string::npos) {
        out->assign(buf_, pos_, nl - pos_);
        pos_ = nl + 1;
        if (pos_ > 1 << 16) {
          buf_.erase(0, pos_);
          pos_ = 0;
        }
        return true;
      }
      if (pos_ > 0) {
        buf_.erase(0, pos_);
        pos_ = 0;
      }
      char chunk[16 * 1024];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      buf_.append(chunk, static_cast<size_t>(n));
    }
  }

 private:
  int fd_;
  std::string buf_;
  size_t pos_ = 0;
};

/// Replays `workload` as EXPAND lines over `connections` TCP connections,
/// each keeping up to `depth` requests in flight (depth 1 = the serialized
/// request/response loop the stdin transport used to run). The writer
/// coalesces every free window slot into one send, so a pipelined client
/// issues bursts the server can batch-admit.
RunResult RunNetWorkload(uint16_t port,
                         const std::vector<std::string>& workload,
                         size_t connections, size_t depth) {
  std::vector<std::vector<const std::string*>> per_conn(connections);
  for (size_t i = 0; i < workload.size(); ++i) {
    per_conn[i % connections].push_back(&workload[i]);
  }

  RunResult result;
  std::mutex result_mu;
  std::atomic<bool> failed{false};
  qec::Stopwatch watch;
  std::vector<std::thread> clients;
  clients.reserve(connections);
  for (size_t c = 0; c < connections; ++c) {
    clients.emplace_back([&, c] {
      const std::vector<const std::string*>& requests = per_conn[c];
      if (requests.empty()) return;
      const int fd = ConnectLoopback(port);
      if (fd < 0) {
        failed.store(true);
        return;
      }
      using Clock = std::chrono::steady_clock;
      std::mutex mu;
      std::condition_variable cv;
      size_t in_flight = 0;
      // Cork threshold, shared by writer (wait) and reader (notify): the
      // writer sleeps until at least this much window is free, and the
      // reader only pays a futex wake when the threshold is crossed —
      // one wake per burst instead of one per response.
      const size_t min_burst = depth > 1 ? depth / 2 : 1;
      std::vector<Clock::time_point> send_times(requests.size());

      std::vector<double> latencies;
      latencies.reserve(requests.size());
      size_t ok = 0;
      size_t errors = 0;
      std::thread reader([&] {
        LineReader lines(fd);
        std::string line;
        for (size_t i = 0; i < requests.size(); ++i) {
          if (!lines.ReadLine(&line)) {
            failed.store(true);
            cv.notify_all();
            return;
          }
          Clock::time_point sent;
          bool wake;
          {
            std::lock_guard<std::mutex> lock(mu);
            sent = send_times[i];
            --in_flight;
            const size_t free_window = depth - in_flight;
            wake = free_window == min_burst || in_flight == 0;
          }
          if (wake) cv.notify_one();
          latencies.push_back(
              std::chrono::duration<double, std::milli>(Clock::now() - sent)
                  .count());
          if (qec::StartsWith(line, "{\"status\":\"ok\"")) {
            ++ok;
          } else {
            ++errors;
          }
        }
      });

      std::string wire;
      size_t next = 0;
      while (next < requests.size() && !failed.load()) {
        size_t take = 0;
        {
          std::unique_lock<std::mutex> lock(mu);
          const size_t want = std::min(min_burst, requests.size() - next);
          cv.wait(lock, [&] {
            return depth - in_flight >= want || failed.load();
          });
          if (failed.load()) break;
          take = std::min(depth - in_flight, requests.size() - next);
          const Clock::time_point now = Clock::now();
          for (size_t k = 0; k < take; ++k) send_times[next + k] = now;
          in_flight += take;
        }
        wire.clear();
        for (size_t k = 0; k < take; ++k) {
          wire += "EXPAND ";
          wire += *requests[next + k];
          wire += '\n';
        }
        if (!SendAll(fd, wire.data(), wire.size())) failed.store(true);
        next += take;
      }
      reader.join();
      ::close(fd);

      std::lock_guard<std::mutex> lock(result_mu);
      result.ok += ok;
      result.errors += errors;
      result.latencies_ms.insert(result.latencies_ms.end(),
                                 latencies.begin(), latencies.end());
    });
  }
  for (std::thread& t : clients) t.join();
  result.seconds = watch.ElapsedSeconds();
  result.qps = result.seconds > 0.0
                   ? static_cast<double>(workload.size()) / result.seconds
                   : 0.0;
  if (failed.load()) result.errors += 1;
  return result;
}

/// Erases one `"key":value` JSON field (string, number, or object value)
/// from a rendered response line, comma included — used to canonicalize
/// away per-request volatile fields before the transport-identity check.
void EraseJsonField(std::string* line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t pos = line->find(needle);
  if (pos == std::string::npos) return;
  size_t end = pos + needle.size();
  if (end >= line->size()) return;
  if ((*line)[end] == '"') {
    end = line->find('"', end + 1);
    if (end == std::string::npos) return;
    ++end;
  } else if ((*line)[end] == '{') {
    int nesting = 0;
    do {
      if ((*line)[end] == '{') ++nesting;
      if ((*line)[end] == '}') --nesting;
      ++end;
    } while (nesting > 0 && end < line->size());
  } else {
    while (end < line->size() &&
           (std::isdigit(static_cast<unsigned char>((*line)[end])) != 0 ||
            (*line)[end] == '.' || (*line)[end] == '-' ||
            (*line)[end] == '+' || (*line)[end] == 'e')) {
      ++end;
    }
  }
  size_t begin = pos;
  if (end < line->size() && (*line)[end] == ',') {
    ++end;  // interior field: take the trailing comma
  } else if (begin > 0 && (*line)[begin - 1] == ',') {
    --begin;  // last field: take the leading comma
  }
  line->erase(begin, end - begin);
}

std::string CanonicalizeResponse(std::string line) {
  EraseJsonField(&line, "trace_id");
  EraseJsonField(&line, "queue_ms");
  EraseJsonField(&line, "total_ms");
  EraseJsonField(&line, "stages_ms");
  return line;
}

/// Replays `workload` over one TCP connection and also through direct
/// QecServer submission (the stdin transport's path), and compares the
/// canonicalized response lines pairwise. Returns the number of mismatches.
size_t CheckTransportIdentity(qec::server::QecServer* server, uint16_t port,
                              const std::vector<std::string>& workload) {
  // TCP side: send everything pipelined, read back in order.
  std::vector<std::string> net_lines;
  const int fd = ConnectLoopback(port);
  if (fd < 0) return workload.size();
  std::string wire;
  for (const std::string& query : workload) {
    wire += "EXPAND ";
    wire += query;
    wire += '\n';
  }
  if (!SendAll(fd, wire.data(), wire.size())) {
    ::close(fd);
    return workload.size();
  }
  LineReader lines(fd);
  std::string line;
  for (size_t i = 0; i < workload.size(); ++i) {
    if (!lines.ReadLine(&line)) break;
    net_lines.push_back(line);
  }
  ::close(fd);
  if (net_lines.size() != workload.size()) return workload.size();

  size_t mismatches = 0;
  for (size_t i = 0; i < workload.size(); ++i) {
    auto request = qec::server::ParseRequestLine("EXPAND " + workload[i]);
    const std::string direct =
        server->Submit(*std::move(request)).get().json_line;
    if (CanonicalizeResponse(net_lines[i]) != CanonicalizeResponse(direct)) {
      if (++mismatches <= 3) {
        std::fprintf(stderr,
                     "transport mismatch on '%s':\n  net:    %s\n  direct: "
                     "%s\n",
                     workload[i].c_str(), net_lines[i].c_str(),
                     direct.c_str());
      }
    }
  }
  return mismatches;
}

/// A stand-in Prometheus scraper: GET /metrics over a fresh connection once
/// per second until Stop(), which returns the completed scrape count. Used
/// to measure the foreground cost of a realistic scrape cadence.
class MetricsScraper {
 public:
  explicit MetricsScraper(uint16_t port) {
    thread_ = std::thread([this, port] {
      while (!stop_.load(std::memory_order_acquire)) {
        const int fd = ConnectLoopback(port);
        if (fd >= 0) {
          static constexpr char kRequest[] =
              "GET /metrics HTTP/1.1\r\nhost: bench\r\n"
              "connection: close\r\n\r\n";
          if (SendAll(fd, kRequest, sizeof(kRequest) - 1)) {
            char buf[16 * 1024];
            size_t total = 0;
            ssize_t n = 0;
            while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
              total += static_cast<size_t>(n);
            }
            if (total > 0) ++scrapes_;
          }
          ::close(fd);
        }
        // 1 Hz cadence, sliced so Stop() returns promptly.
        for (int i = 0; i < 20 && !stop_.load(std::memory_order_acquire);
             ++i) {
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
        }
      }
    });
  }

  ~MetricsScraper() { Stop(); }

  size_t Stop() {
    stop_.store(true, std::memory_order_release);
    if (thread_.joinable()) thread_.join();
    return scrapes_;
  }

 private:
  std::atomic<bool> stop_{false};
  size_t scrapes_ = 0;
  std::thread thread_;
};

/// The --net benchmark: single-in-flight baseline vs pipelined connections
/// against one warm in-process NetServer. With `admin` set, an AdminServer
/// rides along and the pipelined run repeats under a 1 Hz /metrics scrape
/// to measure the scrape's foreground p99 cost. Returns the process exit
/// code and appends the net section of the result JSON.
int RunNetMode(const qec::index::InvertedIndex& index,
               const std::vector<std::string>& workload, size_t threads,
               size_t queue_capacity, size_t connections, size_t depth,
               bool admin, std::string* result_json) {
  qec::server::ServerOptions options;
  options.num_threads = threads;
  // Admission must hold a full pipelined burst from every connection, or
  // the load generator measures shedding instead of throughput.
  options.queue_capacity =
      std::max(queue_capacity, connections * depth + 32);
  options.expander.candidates.fraction = 1.0;
  qec::server::QecServer server(index, options);

  qec::server::net::NetServerOptions net_options;
  net_options.max_connections = connections + 8;
  qec::server::net::NetServer net(&server, net_options);
  const qec::Status started = net.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "net server: %s\n", started.ToString().c_str());
    return 1;
  }

  // Warm the expansion cache with every distinct query so both arms replay
  // the same all-hit workload — the cached-hit config the acceptance bar
  // is defined over (and the `cached` field is uniform for the identity
  // check).
  for (const auto& query : qec::datagen::ShoppingQueries()) {
    auto request = qec::server::ParseRequestLine("EXPAND " + query.text);
    if (request.ok()) server.Submit(*std::move(request)).get();
  }

  const size_t identity_n = std::min<size_t>(workload.size(), 128);
  const std::vector<std::string> identity_slice(
      workload.begin(),
      workload.begin() + static_cast<ptrdiff_t>(identity_n));
  const size_t mismatches =
      CheckTransportIdentity(&server, net.port(), identity_slice);
  std::printf(
      "transport identity (net vs direct, %zu requests): %s\n", identity_n,
      mismatches == 0 ? "identical" : "MISMATCH");

  std::unique_ptr<qec::server::admin::AdminServer> admin_server;
  if (admin) {
    admin_server = std::make_unique<qec::server::admin::AdminServer>(
        &server, &net);
    const qec::Status admin_started = admin_server->Start();
    if (!admin_started.ok()) {
      std::fprintf(stderr, "admin server: %s\n",
                   admin_started.ToString().c_str());
      return 1;
    }
  }

  RunResult baseline = RunNetWorkload(net.port(), workload, 1, 1);
  RunResult pipelined =
      RunNetWorkload(net.port(), workload, connections, depth);

  RunResult scraped;
  size_t scrapes = 0;
  if (admin_server != nullptr) {
    MetricsScraper scraper(admin_server->port());
    scraped = RunNetWorkload(net.port(), workload, connections, depth);
    scrapes = scraper.Stop();
    admin_server->Shutdown();
  }
  net.Shutdown();

  const qec::server::net::NetServerStats net_stats = net.stats();
  qec::eval::TablePrinter table(
      {"config", "seconds", "qps", "p50 ms", "p99 ms", "errors"});
  auto add_row = [&](const char* name, const RunResult& r) {
    table.AddRow({name, qec::FormatDouble(r.seconds, 3),
                  qec::FormatDouble(r.qps, 1),
                  qec::FormatDouble(r.Percentile(50.0), 3),
                  qec::FormatDouble(r.Percentile(99.0), 3),
                  std::to_string(r.errors)});
  };
  add_row("net single-in-flight", baseline);
  add_row("net pipelined", pipelined);
  if (admin_server != nullptr) add_row("net pipelined + 1Hz scrape", scraped);
  std::printf("%s", table.ToString().c_str());
  std::printf(
      "net: %zu conns x depth %zu, %llu batches over %llu expands "
      "(%.1f expands/batch)\n",
      connections, depth,
      static_cast<unsigned long long>(net_stats.batches),
      static_cast<unsigned long long>(net_stats.expand_requests),
      net_stats.batches > 0
          ? static_cast<double>(net_stats.expand_requests) /
                static_cast<double>(net_stats.batches)
          : 0.0);

  const double ratio =
      baseline.qps > 0.0 ? pipelined.qps / baseline.qps : 0.0;
  std::printf("pipelined vs single-in-flight: %.2fx %s\n", ratio,
              ratio >= 4.0 ? "(>= 4x: PASS)" : "(< 4x: FAIL)");

  char buf[160];
  std::snprintf(buf, sizeof(buf),
                ",\"net\":{\"connections\":%zu,\"pipeline\":%zu,"
                "\"identity_mismatches\":%zu,\"ratio\":%.3f,\"baseline\":",
                connections, depth, mismatches, ratio);
  *result_json += buf;
  AppendRunJson(result_json, baseline);
  *result_json += ",\"pipelined\":";
  AppendRunJson(result_json, pipelined);

  int rc = 0;
  if (admin_server != nullptr) {
    const double p99_off = pipelined.Percentile(99.0);
    const double p99_on = scraped.Percentile(99.0);
    const double scrape_ratio = p99_off > 0.0 ? p99_on / p99_off : 0.0;
    std::printf(
        "scrape overhead (1Hz /metrics, %zu scrapes): p99 %.3fms -> %.3fms "
        "(%.3fx)\n",
        scrapes, p99_off, p99_on, scrape_ratio);
    std::snprintf(buf, sizeof(buf),
                  ",\"scrape\":{\"scrapes\":%zu,\"p99_ratio\":%.4f,"
                  "\"scraped\":",
                  scrapes, scrape_ratio);
    *result_json += buf;
    AppendRunJson(result_json, scraped);
    *result_json += "}";
    if (scraped.errors > 0) rc = 1;
  }
  *result_json += "}";

  if (ratio < 4.0 || mismatches > 0) rc = 1;
  if (baseline.errors > 0 || pipelined.errors > 0) rc = 1;
  return rc;
}

/// Strict unsigned flag value (qec::ParseSize): "abc" and "-1" fail
/// instead of throwing or wrapping to 2^64-1.
bool ParseSizeFlag(std::string_view text, size_t* out) {
  uint64_t value = 0;
  if (!qec::ParseSize(text, &value)) return false;
  *out = static_cast<size_t>(value);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const auto obs_flags = qec::eval::ParseObsFlags(argc, argv);
  size_t num_requests = 400;
  size_t threads = 0;
  size_t queue_capacity = 256;
  bool cached_config = true;
  bool net_mode = false;
  size_t connections = 8;
  size_t pipeline_depth = 32;
  double shadow_rate = 0.0;
  std::string result_out;
  bool admin = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    bool valid = true;
    if (qec::StartsWith(arg, "--requests=")) {
      valid = ParseSizeFlag(arg.substr(strlen("--requests=")), &num_requests);
    } else if (qec::StartsWith(arg, "--threads=")) {
      valid = ParseSizeFlag(arg.substr(strlen("--threads=")), &threads);
    } else if (qec::StartsWith(arg, "--queue=")) {
      valid = ParseSizeFlag(arg.substr(strlen("--queue=")), &queue_capacity);
    } else if (arg == "--no-cache") {
      cached_config = false;
    } else if (arg == "--net") {
      net_mode = true;
    } else if (qec::StartsWith(arg, "--connections=")) {
      valid = ParseSizeFlag(arg.substr(strlen("--connections=")), &connections);
    } else if (qec::StartsWith(arg, "--pipeline=")) {
      valid =
          ParseSizeFlag(arg.substr(strlen("--pipeline=")), &pipeline_depth);
    } else if (qec::StartsWith(arg, "--shadow-rate=")) {
      valid =
          qec::ParseDouble(arg.substr(strlen("--shadow-rate=")), &shadow_rate);
    } else if (qec::StartsWith(arg, "--result-out=")) {
      result_out = arg.substr(strlen("--result-out="));
    } else if (arg == "--admin-port" ||
               qec::StartsWith(arg, "--admin-port=")) {
      // In-process: the admin listener always binds an ephemeral loopback
      // port, so any requested number is ignored.
      admin = true;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      return 2;
    }
    if (!valid) {
      std::fprintf(stderr, "malformed value in %s\n", arg.c_str());
      return 2;
    }
  }
  if (connections == 0 || pipeline_depth == 0) {
    std::fprintf(stderr, "--connections and --pipeline must be >= 1\n");
    return 2;
  }

  std::printf("=== Serving Throughput: Repeated-Query Workload ===\n\n");
  qec::doc::Corpus corpus = qec::datagen::ShoppingGenerator().Generate();
  qec::index::InvertedIndex index(corpus);
  const std::vector<std::string> workload = MakeWorkload(num_requests, 42);
  std::printf(
      "corpus: %zu docs; %zu requests over %zu distinct queries "
      "(Zipf-skewed)\n\n",
      corpus.NumDocs(), workload.size(),
      qec::datagen::ShoppingQueries().size());

  if (net_mode) {
    std::string result_json = "{";
    char buf[128];
    std::snprintf(buf, sizeof(buf), "\"requests\":%zu,\"threads\":%zu",
                  workload.size(), threads);
    result_json += buf;
    const int rc = RunNetMode(index, workload, threads, queue_capacity,
                              connections, pipeline_depth, admin,
                              &result_json);
    result_json += "}";
    if (!result_out.empty()) {
      std::FILE* f = std::fopen(result_out.c_str(), "w");
      if (f == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", result_out.c_str());
        return 1;
      }
      std::fprintf(f, "%s\n", result_json.c_str());
      std::fclose(f);
      std::printf("result json: %s\n", result_out.c_str());
    }
    return qec::eval::EmitObsOutputs(obs_flags) ? rc : 1;
  }

  qec::eval::TablePrinter table({"config", "seconds", "qps", "cache hits",
                                 "cache misses", "errors"});
  auto add_row = [&](const char* name, const RunResult& r) {
    table.AddRow({name, qec::FormatDouble(r.seconds, 3),
                  qec::FormatDouble(r.qps, 1),
                  std::to_string(r.stats.expansion_cache.hits),
                  std::to_string(r.stats.expansion_cache.misses),
                  std::to_string(r.errors)});
  };

  // Uncached first so the cached run's server/cache_* counters are the
  // last written into the metrics snapshot.
  RunResult uncached =
      RunWorkload(index, workload, false, threads, queue_capacity);
  add_row("no-cache", uncached);
  int rc = 0;
  std::string result_json = "{";
  {
    char buf[128];
    std::snprintf(buf, sizeof(buf), "\"requests\":%zu,\"threads\":%zu,",
                  workload.size(), threads);
    result_json += buf;
  }
  result_json += "\"uncached\":";
  AppendRunJson(&result_json, uncached);
  if (cached_config) {
    RunResult cached =
        RunWorkload(index, workload, true, threads, queue_capacity);
    add_row("cached", cached);
    RunResult shadowed;
    if (shadow_rate > 0.0) {
      shadowed = RunWorkload(index, workload, true, threads, queue_capacity,
                             shadow_rate);
      add_row("cached+shadow", shadowed);
    }
    std::printf("%s\n", table.ToString().c_str());
    PrintStageBreakdown("no-cache", uncached);
    PrintStageBreakdown("cached", cached);
    if (shadow_rate > 0.0) {
      PrintStageBreakdown("cached+shadow", shadowed);
      // Foreground latency comparison: the shadow arm runs off the
      // critical path, so p99 with shadows on should track shadows off.
      const double p99_off = cached.Percentile(99.0);
      const double p99_on = shadowed.Percentile(99.0);
      const double ratio = p99_off > 0.0 ? p99_on / p99_off : 0.0;
      std::printf(
          "shadow A/B (rate=%.2f, pebc arm): sampled=%llu executed=%llu "
          "shed=%llu deduped=%llu\n",
          shadow_rate,
          static_cast<unsigned long long>(shadowed.shadow.sampled),
          static_cast<unsigned long long>(shadowed.shadow.executed),
          static_cast<unsigned long long>(shadowed.shadow.shed),
          static_cast<unsigned long long>(shadowed.shadow.deduped));
      std::printf(
          "foreground p99: shadows-off %.3fms vs shadows-on %.3fms "
          "(%.2fx)\n",
          p99_off, p99_on, ratio);
      if (shadowed.errors > 0) rc = 1;
      char buf[128];
      result_json += ",\"shadow\":";
      AppendRunJson(&result_json, shadowed);
      std::snprintf(buf, sizeof(buf),
                    ",\"shadow_rate\":%.3f,\"shadow_p99_ratio\":%.4f",
                    shadow_rate, ratio);
      result_json += buf;
    }
    const double speedup =
        uncached.qps > 0.0 ? cached.qps / uncached.qps : 0.0;
    std::printf("speedup (cached vs no-cache): %.2fx %s\n", speedup,
                speedup >= 2.0 ? "(>= 2x: PASS)" : "(< 2x: FAIL)");
    if (speedup < 2.0 || cached.errors > 0) rc = 1;
    result_json += ",\"cached\":";
    AppendRunJson(&result_json, cached);
    char buf[64];
    std::snprintf(buf, sizeof(buf), ",\"speedup\":%.3f", speedup);
    result_json += buf;
  } else {
    std::printf("%s\n", table.ToString().c_str());
    PrintStageBreakdown("no-cache", uncached);
  }
  result_json += "}";
  if (!result_out.empty()) {
    std::FILE* f = std::fopen(result_out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", result_out.c_str());
      return 1;
    }
    std::fprintf(f, "%s\n", result_json.c_str());
    std::fclose(f);
    std::printf("result json: %s\n", result_out.c_str());
  }
  if (uncached.errors > 0) rc = 1;
  return qec::eval::EmitObsOutputs(obs_flags) ? rc : 1;
}
