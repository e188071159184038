// Tests of the benchmark itself: the tail-sample rule, span self time,
// seeded inputs, open-loop timing against a stalling server, and the
// traced decomposition against the engine it decomposes.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "cluster/kmeans.h"
#include "cluster/sparse_vector.h"
#include "datagen/clustered.h"
#include "eval/harness.h"
#include "gtest/gtest.h"
#include "loadgen.h"
#include "server/protocol.h"
#include "traced_pipeline.h"
#include "workload_inputs.h"

namespace pipebench {
namespace {

TEST(TailRule, P99NeedsAThousandSamples) {
  EXPECT_EQ(SamplesBeyond(1000, 0.99), kMinTailSamples);
  EXPECT_LT(SamplesBeyond(999, 0.99), kMinTailSamples);
  EXPECT_EQ(SamplesBeyond(1010, 0.99), 10u);
  EXPECT_EQ(RankIndex(1000, 0.50), 499u);
  EXPECT_EQ(RankIndex(100, 0.07), 6u);
  EXPECT_EQ(RankIndex(1, 0.99), 0u);
}

TEST(TailRule, PercentileNamesItsQuery) {
  std::vector<Sample> samples;
  for (uint32_t i = 0; i < 1000; ++i) {
    samples.push_back({static_cast<double>(999 - i), i});
  }
  const Sample p99 = PercentileSample(&samples, 0.99);
  EXPECT_EQ(p99.ms, 989.0);
  EXPECT_EQ(p99.query, 10u);  // the query that produced 989 ms
  EXPECT_EQ(PercentileSample(&samples, 0.50).ms, 499.0);
}

TEST(Spans, SelfTimeExcludesChildren) {
  SpanRecorder spans;
  {
    ScopedSpan outer(&spans, "outer", 1);
    { ScopedSpan inner(&spans, "inner", 1); }
    { ScopedSpan inner(&spans, "inner", 1); }
  }
  { ScopedSpan outer(&spans, "outer", 2); }
  ASSERT_EQ(spans.spans().size(), 4u);
  EXPECT_EQ(spans.spans()[1].parent, 0);
  EXPECT_EQ(spans.spans()[3].parent, -1);
  const auto totals = spans.Totals();
  const SpanTotals& outer = totals.at("outer");
  const SpanTotals& inner = totals.at("inner");
  EXPECT_DOUBLE_EQ(outer.self_ns, outer.total_ns - inner.total_ns);
  EXPECT_EQ(outer.requests, 2u);
  EXPECT_EQ(inner.requests, 1u);
  EXPECT_EQ(inner.spans, 2u);
}

class ShoppingFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    bundle_ = new qec::eval::DatasetBundle(
        qec::eval::MakeShoppingBundle(PaperScaleShopping()));
  }
  static void TearDownTestSuite() {
    delete bundle_;
    bundle_ = nullptr;
  }
  static qec::eval::DatasetBundle* bundle_;
};

qec::eval::DatasetBundle* ShoppingFixture::bundle_ = nullptr;

TEST_F(ShoppingFixture, QuerySampleIsSeeded) {
  const auto a = ShoppingQuerySet(*bundle_->index, 7, true);
  const auto b = ShoppingQuerySet(*bundle_->index, 7, true);
  const auto c = ShoppingQuerySet(*bundle_->index, 8, true);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_GT(a.size(), 60u);
  // Without sampling only the order depends on the seed.
  auto whole7 = ShoppingQuerySet(*bundle_->index, 7, false);
  auto whole8 = ShoppingQuerySet(*bundle_->index, 8, false);
  EXPECT_NE(whole7, whole8);
  EXPECT_GT(whole7.size(), a.size());
  auto by_name = [](const NamedQuery& x, const NamedQuery& y) {
    return x.name < y.name;
  };
  std::sort(whole7.begin(), whole7.end(), by_name);
  std::sort(whole8.begin(), whole8.end(), by_name);
  EXPECT_EQ(whole7, whole8);
  for (const char* id : {"QS1", "QS5", "QS10"}) {
    EXPECT_NE(std::find_if(a.begin(), a.end(),
                           [&](const NamedQuery& q) { return q.name == id; }),
              a.end());
  }
}

TEST_F(ShoppingFixture, TracedDecompositionMatchesExpandText) {
  qec::core::QueryExpanderOptions options;
  options.top_k_results = 0;
  const qec::core::QueryExpander expander(*bundle_->index, options);
  std::vector<NamedQuery> queries = ShoppingQuerySet(*bundle_->index, 3, true);
  queries.resize(30);
  for (const auto& q : qec::datagen::ShoppingQueries()) {
    queries.push_back({q.id, q.text});
  }
  SpanRecorder spans;
  uint64_t request = 0;
  for (const NamedQuery& q : queries) {
    SCOPED_TRACE(q.name);
    const auto reference = expander.ExpandText(q.text);
    const auto traced =
        TracedExpandText(*bundle_->index, options, q.text, &spans, request++);
    ASSERT_TRUE(reference.ok());
    ASSERT_TRUE(traced.ok());
    EXPECT_TRUE(SameOutcome(traced->outcome, *reference));
    EXPECT_EQ(qec::server::RenderOutcomeTail(traced->outcome),
              qec::server::RenderOutcomeTail(*reference));

    // The same clustering as KMeans' own auto-k loop.
    const auto terms =
        bundle_->corpus->analyzer().AnalyzeReadOnly(q.text);
    const qec::core::ResultUniverse universe(
        *bundle_->corpus, bundle_->index->Search(terms, 0));
    std::vector<qec::cluster::SparseVector> vectors;
    for (size_t i = 0; i < universe.size(); ++i) {
      vectors.push_back(qec::cluster::SparseVector::FromDocument(
          bundle_->corpus->Get(universe.doc_at(i))));
    }
    qec::cluster::KMeansOptions kmeans = options.kmeans;
    kmeans.k = options.max_clusters;
    const qec::cluster::Clustering clustering =
        qec::cluster::KMeans(kmeans).Cluster(vectors);
    EXPECT_EQ(traced->clustering.assignment, clustering.assignment);
    EXPECT_EQ(traced->clustering.num_clusters, clustering.num_clusters);
  }
  const auto totals = spans.Totals();
  for (const char* layer :
       {kSpanAnalyze, kSpanSearch, kSpanUniverse, kSpanVectorize,
        kSpanKMeans, kSpanSilhouette, kSpanCandidates, kSpanExpandIskr,
        kSpanAssemble}) {
    EXPECT_EQ(totals.count(layer), 1u) << layer;
  }
}

TEST_F(ShoppingFixture, TracedExpandClusteredMatchesEveryAlgorithm) {
  const std::vector<NamedQuery> queries =
      ShoppingQuerySet(*bundle_->index, 5, true);
  for (qec::core::ExpansionAlgorithm algorithm :
       {qec::core::ExpansionAlgorithm::kIskr,
        qec::core::ExpansionAlgorithm::kPebc,
        qec::core::ExpansionAlgorithm::kFMeasure}) {
    qec::core::QueryExpanderOptions options;
    options.algorithm = algorithm;
    options.memoize_set_algebra = true;
    const qec::core::QueryExpander expander(*bundle_->index, options);
    for (size_t i = 0; i < 12; ++i) {
      SCOPED_TRACE(queries[i].name);
      auto qc = qec::eval::PrepareQueryCase(*bundle_, queries[i].text, 0);
      ASSERT_TRUE(qc.ok());
      qc->universe->EnableSetAlgebraCache();
      const auto reference = expander.ExpandClustered(
          qc->user_terms, *qc->universe, qc->clustering);
      SpanRecorder spans;
      LayerCounts counts;
      const auto traced = TracedExpandClustered(
          *bundle_->index, options, qc->user_terms, *qc->universe,
          qc->clustering, &spans, 0, &counts);
      EXPECT_TRUE(SameOutcome(traced, reference));
      EXPECT_GT(counts.candidates, 0u);
    }
  }
}

TEST(Inputs, WikipediaDecompositionMatchesForEveryAlgorithm) {
  const qec::eval::DatasetBundle bundle = qec::eval::MakeWikipediaBundle();
  for (qec::core::ExpansionAlgorithm algorithm :
       {qec::core::ExpansionAlgorithm::kIskr,
        qec::core::ExpansionAlgorithm::kPebc,
        qec::core::ExpansionAlgorithm::kFMeasure}) {
    qec::core::QueryExpanderOptions options;
    options.algorithm = algorithm;
    const qec::core::QueryExpander expander(*bundle.index, options);
    for (const auto& q : bundle.queries) {
      SCOPED_TRACE(q.id);
      SpanRecorder spans;
      const auto reference = expander.ExpandText(q.text);
      const auto traced =
          TracedExpandText(*bundle.index, options, q.text, &spans, 0);
      ASSERT_TRUE(reference.ok());
      ASSERT_TRUE(traced.ok());
      EXPECT_TRUE(SameOutcome(traced->outcome, *reference));
    }
  }
}

TEST(Inputs, ZipfStreamIsSeeded) {
  const auto a = ZipfStream(3000, 20000, 1.0, 0.01, 4);
  EXPECT_EQ(a, ZipfStream(3000, 20000, 1.0, 0.01, 4));
  EXPECT_NE(a, ZipfStream(3000, 20000, 1.0, 0.01, 5));
  std::vector<size_t> hits(3000, 0);
  size_t explains = 0;
  for (const StreamEntry& e : a) {
    ++hits[e.query];
    if (e.explain) ++explains;
  }
  EXPECT_GT(hits[0], hits[1]);
  EXPECT_GT(hits[1], hits[100]);
  EXPECT_GT(explains, 100u);
  EXPECT_LT(explains, 300u);
}

TEST(Inputs, ClusteredQueriesAllRetrieve) {
  qec::datagen::ClusteredOptions options;
  options.num_docs = 20000;
  const qec::doc::Corpus corpus =
      qec::datagen::ClusteredGenerator(options).Generate();
  const qec::index::InvertedIndex index(corpus);
  const std::vector<std::string> queries = ClusteredQueryUniverse(index);
  EXPECT_EQ(queries, ClusteredQueryUniverse(index));
  EXPECT_GT(queries.size(), 2000u);
  for (const std::string& q : queries) {
    EXPECT_FALSE(index.SearchText(q, 1).empty()) << q;
  }
}

/// A line server on an ephemeral loopback port that answers "ok" to every
/// line, except that it stops for `stall_ms` after reading line
/// `stall_after`.
class StallingServer {
 public:
  StallingServer(size_t stall_after, int stall_ms) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    struct sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_port = 0;
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    ::bind(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
           sizeof(addr));
    ::listen(listen_fd_, 4);
    socklen_t len = sizeof(addr);
    ::getsockname(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this, stall_after, stall_ms] {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) return;
      std::string buffer;
      size_t lines = 0;
      char chunk[4096];
      for (;;) {
        const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
        if (n <= 0) break;
        buffer.append(chunk, static_cast<size_t>(n));
        std::string out;
        for (size_t nl = buffer.find('\n'); nl != std::string::npos;
             nl = buffer.find('\n')) {
          buffer.erase(0, nl + 1);
          out += "ok\n";
          if (++lines == stall_after) {
            std::this_thread::sleep_for(std::chrono::milliseconds(stall_ms));
          }
        }
        if (::send(fd, out.data(), out.size(), MSG_NOSIGNAL) < 0) break;
      }
      ::close(fd);
    });
  }
  ~StallingServer() {
    ::shutdown(listen_fd_, SHUT_RDWR);
    if (thread_.joinable()) thread_.join();
    ::close(listen_fd_);
  }
  StallingServer(const StallingServer&) = delete;
  StallingServer& operator=(const StallingServer&) = delete;

  uint16_t port() const { return port_; }

 private:
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::thread thread_;
};

TEST(OpenLoop, StallDelaysEveryRequestScheduledDuringIt) {
  // 1000 requests/s; the server stops for 200 ms after request 100. A
  // closed-loop client would record one slow request; timed from the
  // schedule, the ~200 requests due during the stall all wait, the first
  // ones for nearly the whole stall.
  StallingServer server(/*stall_after=*/100, /*stall_ms=*/200);
  OpenLoopOptions options;
  options.port = server.port();
  options.rate_per_second = 1000.0;
  options.connections = 1;
  const std::vector<std::string> lines(400, "PING");
  const OpenLoopRun run = RunOpenLoop(lines, options);
  ASSERT_EQ(run.error, "");
  size_t over_100ms = 0;
  double worst_ms = 0.0;
  std::vector<Sample> lag;
  for (const OpenLoopRecord& r : run.records) {
    ASSERT_GE(r.done_ns, 0);
    EXPECT_EQ(r.response, "ok");
    const double ms = static_cast<double>(r.done_ns - r.due_ns) / 1e6;
    if (ms >= 100.0) ++over_100ms;
    worst_ms = std::max(worst_ms, ms);
    lag.push_back({static_cast<double>(r.sent_ns - r.due_ns) / 1e6, 0});
  }
  EXPECT_GE(over_100ms, 60u);
  EXPECT_GE(worst_ms, 150.0);
  // The generator itself kept to its schedule through the stall.
  EXPECT_LT(PercentileSample(&lag, 0.99).ms, 20.0);
}

}  // namespace
}  // namespace pipebench
