// Tests for the qec_server serving layer: the line protocol, the sharded
// LRU cache, admission-queue shedding, deadlines/cancellation, and the
// correctness guarantee that cached responses are identical to uncached
// ones.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <future>
#include <limits>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "datagen/shopping.h"
#include "doc/corpus.h"
#include "index/inverted_index.h"
#include "obs/flight_recorder.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/prometheus.h"
#include "server/lru_cache.h"
#include "server/protocol.h"
#include "server/request_context.h"
#include "server/server.h"

namespace qec::server {
namespace {

// ------------------------------------------------------------- protocol --

TEST(ProtocolTest, ParsesPlainExpand) {
  auto r = ParseRequestLine("EXPAND apple store");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->verb, ServeRequest::Verb::kExpand);
  EXPECT_EQ(r->query, "apple store");
  EXPECT_FALSE(r->max_clusters.has_value());
  EXPECT_FALSE(r->algorithm.has_value());
}

TEST(ProtocolTest, ParsesOptions) {
  auto r = ParseRequestLine(
      "expand k=3 algo=pebc topk=20 minimize=1 weights=0 threads=2 "
      "deadline_ms=500 canon products");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->query, "canon products");
  EXPECT_EQ(*r->max_clusters, 3u);
  EXPECT_EQ(*r->algorithm, core::ExpansionAlgorithm::kPebc);
  EXPECT_EQ(*r->top_k_results, 20u);
  EXPECT_TRUE(*r->minimize_queries);
  EXPECT_FALSE(*r->use_ranking_weights);
  EXPECT_EQ(*r->num_threads, 2u);
  EXPECT_EQ(r->deadline_ms, 500u);
}

TEST(ProtocolTest, DoubleDashEndsOptions) {
  auto r = ParseRequestLine("EXPAND k=2 -- k=v is a query word");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r->max_clusters, 2u);
  EXPECT_EQ(r->query, "k=v is a query word");
}

TEST(ProtocolTest, FirstQueryWordEndsOptions) {
  auto r = ParseRequestLine("EXPAND apple k=2");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->query, "apple k=2");
  EXPECT_FALSE(r->max_clusters.has_value());
}

// The operator views are served over HTTP only (/metrics, /slowlog,
// /abtest), so their old verbs parse as any other unknown verb.
void ExpectUnknownVerb(const char* line) {
  auto r = ParseRequestLine(line);
  ASSERT_FALSE(r.ok()) << line;
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << line;
  EXPECT_NE(r.status().message().find("unknown verb"), std::string::npos)
      << line << ": " << r.status().message();
}

TEST(ProtocolTest, ParsesMetricsAndSlowlog) {
  for (const char* line :
       {"METRICS", "metrics", "Metrics", "SLOWLOG", "slowlog", "SLOWLOG 5",
        "SLOWLOG 0", "SLOWLOG -3", "SlowLog bogus", "SLOWLOG 1 2"}) {
    ExpectUnknownVerb(line);
  }
}

TEST(ProtocolTest, ParsesAbtestCount) {
  for (const char* line : {"ABTEST", "abtest 5", "ABTEST five", "AbTest 1e3"}) {
    ExpectUnknownVerb(line);
  }
}

TEST(ProtocolTest, ParsesTraceOption) {
  auto r = ParseRequestLine("EXPAND trace=DeadBeef k=2 canon products");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->trace_id, 0xdeadbeefULL);
  EXPECT_EQ(r->query, "canon products");

  // Without the option the id stays 0 (server-assigned at submission).
  EXPECT_EQ(ParseRequestLine("EXPAND canon")->trace_id, 0u);

  EXPECT_FALSE(ParseRequestLine("EXPAND trace=xyz canon").ok());
  EXPECT_FALSE(ParseRequestLine("EXPAND trace=0 canon").ok());
  EXPECT_FALSE(ParseRequestLine("EXPAND trace=00112233445566778 canon").ok());
}

TEST(ProtocolTest, TraceIdHexRoundTrips) {
  EXPECT_EQ(TraceIdToHex(0xdeadbeefULL), "00000000deadbeef");
  uint64_t parsed = 0;
  ASSERT_TRUE(ParseTraceIdHex("00000000deadbeef", &parsed));
  EXPECT_EQ(parsed, 0xdeadbeefULL);
  for (int i = 0; i < 64; ++i) {
    const uint64_t id = GenerateTraceId();
    ASSERT_NE(id, 0u);
    ASSERT_TRUE(ParseTraceIdHex(TraceIdToHex(id), &parsed));
    EXPECT_EQ(parsed, id);
  }
}

TEST(ProtocolTest, ParsesPingAndStats) {
  auto ping = ParseRequestLine("PING");
  ASSERT_TRUE(ping.ok());
  EXPECT_EQ(ping->verb, ServeRequest::Verb::kPing);
  auto stats = ParseRequestLine("stats");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->verb, ServeRequest::Verb::kStats);
}

TEST(ProtocolTest, RejectsMalformedRequests) {
  EXPECT_FALSE(ParseRequestLine("").ok());
  EXPECT_FALSE(ParseRequestLine("   ").ok());
  EXPECT_FALSE(ParseRequestLine("FROBNICATE x").ok());
  EXPECT_FALSE(ParseRequestLine("EXPAND").ok());            // no query
  EXPECT_FALSE(ParseRequestLine("EXPAND k=0 apple").ok());  // bad value
  EXPECT_FALSE(ParseRequestLine("EXPAND k=abc apple").ok());
  EXPECT_FALSE(ParseRequestLine("EXPAND algo=nope apple").ok());
  EXPECT_FALSE(ParseRequestLine("EXPAND minimize=2 apple").ok());
  EXPECT_FALSE(ParseRequestLine("EXPAND bogus=1 apple").ok());
  for (const char* line : {"", "FROBNICATE x", "EXPAND"}) {
    EXPECT_EQ(ParseRequestLine(line).status().code(),
              StatusCode::kInvalidArgument)
        << line;
  }
}

TEST(ProtocolTest, SizeOptionsParseStrictly) {
  // Only all-digit values: strtoull-style tolerance of sign prefixes and
  // trailing garbage let "deadline_ms=-1" wrap to a huge deadline.
  EXPECT_FALSE(ParseRequestLine("EXPAND deadline_ms=-1 apple").ok());
  EXPECT_FALSE(ParseRequestLine("EXPAND deadline_ms=+5 apple").ok());
  EXPECT_FALSE(ParseRequestLine("EXPAND deadline_ms=5x apple").ok());
  EXPECT_FALSE(ParseRequestLine("EXPAND deadline_ms= apple").ok());
  EXPECT_FALSE(ParseRequestLine("EXPAND topk=0x10 apple").ok());
  EXPECT_FALSE(ParseRequestLine("EXPAND k=2, apple").ok());
  // Values past UINT64_MAX must be rejected, not silently wrapped.
  EXPECT_FALSE(
      ParseRequestLine("EXPAND deadline_ms=99999999999999999999 apple").ok());

  auto ok = ParseRequestLine("EXPAND deadline_ms=500 topk=20 apple");
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->deadline_ms, 500u);
  EXPECT_EQ(*ok->top_k_results, 20u);
}

TEST(ProtocolTest, NormalizeQueryCanonicalizes) {
  EXPECT_EQ(NormalizeQuery("  Apple   STORE\t"), "apple store");
  EXPECT_EQ(NormalizeQuery("apple store"), "apple store");
  EXPECT_EQ(NormalizeQuery(""), "");
}

TEST(ProtocolTest, CacheKeySeparatesDimensions) {
  core::QueryExpanderOptions options;
  const uint64_t fp = OptionsFingerprint(options);
  const std::string base =
      ExpansionCacheKey("apple", 5, core::ExpansionAlgorithm::kIskr, fp);
  EXPECT_NE(base,
            ExpansionCacheKey("apples", 5, core::ExpansionAlgorithm::kIskr, fp));
  EXPECT_NE(base,
            ExpansionCacheKey("apple", 4, core::ExpansionAlgorithm::kIskr, fp));
  EXPECT_NE(base,
            ExpansionCacheKey("apple", 5, core::ExpansionAlgorithm::kPebc, fp));
  EXPECT_NE(base, ExpansionCacheKey("apple", 5,
                                    core::ExpansionAlgorithm::kIskr, fp + 1));
  EXPECT_EQ(base,
            ExpansionCacheKey("apple", 5, core::ExpansionAlgorithm::kIskr, fp));
}

TEST(ProtocolTest, FingerprintTracksResultAffectingOptions) {
  core::QueryExpanderOptions a;
  core::QueryExpanderOptions b = a;
  EXPECT_EQ(OptionsFingerprint(a), OptionsFingerprint(b));
  b.iskr.allow_removal = !b.iskr.allow_removal;
  EXPECT_NE(OptionsFingerprint(a), OptionsFingerprint(b));
  // Execution knobs that cannot change results do not split the cache.
  core::QueryExpanderOptions c = a;
  c.num_threads = 8;
  c.memoize_set_algebra = true;
  EXPECT_EQ(OptionsFingerprint(a), OptionsFingerprint(c));
}

TEST(ProtocolTest, ErrorResponseJson) {
  ServeResponse response;
  response.status = Status::Unavailable("admission queue full");
  const std::string line = ResponseToJsonLine(response);
  auto parsed = obs::json::Parse(line);
  ASSERT_TRUE(parsed.ok()) << line;
  EXPECT_EQ(parsed->Find("status")->string, "error");
  EXPECT_EQ(parsed->Find("code")->string, "Unavailable");
}

// ------------------------------------------------------------ LRU cache --

TEST(ShardedLruCacheTest, PutGetAndMiss) {
  ShardedLruCache<std::string, int> cache(8, 2);
  EXPECT_FALSE(cache.Get("a").has_value());
  cache.Put("a", 1);
  cache.Put("b", 2);
  EXPECT_EQ(*cache.Get("a"), 1);
  EXPECT_EQ(*cache.Get("b"), 2);
  cache.Put("a", 3);  // refresh updates in place
  EXPECT_EQ(*cache.Get("a"), 3);
  EXPECT_EQ(cache.size(), 2u);
  auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(stats.misses, 1u);
}

TEST(ShardedLruCacheTest, EvictsLeastRecentlyUsed) {
  // One shard of capacity 2 makes eviction order fully observable.
  ShardedLruCache<int, int> cache(2, 1);
  cache.Put(1, 10);
  cache.Put(2, 20);
  EXPECT_EQ(*cache.Get(1), 10);  // 1 is now most recent
  cache.Put(3, 30);              // evicts 2
  EXPECT_FALSE(cache.Get(2).has_value());
  EXPECT_EQ(*cache.Get(1), 10);
  EXPECT_EQ(*cache.Get(3), 30);
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(ShardedLruCacheTest, ClearDropsEntries) {
  ShardedLruCache<int, int> cache(16);
  for (int i = 0; i < 10; ++i) cache.Put(i, i);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.Get(3).has_value());
}

TEST(ShardedLruCacheTest, MoreShardsThanCapacityClamps) {
  ShardedLruCache<int, int> cache(2, 64);
  EXPECT_LE(cache.num_shards(), 2u);
  cache.Put(1, 1);
  cache.Put(2, 2);
  EXPECT_TRUE(cache.Get(1).has_value() || cache.Get(2).has_value());
}

TEST(ShardedLruCacheTest, CapacityIsATotalBoundAcrossShards) {
  // Per-shard capacities must sum to exactly the requested total:
  // ceil-division here let (capacity=10, shards=8) hold 16 entries.
  ShardedLruCache<int, int> cache(10, 8);
  for (int i = 0; i < 200; ++i) cache.Put(i, i);
  EXPECT_LE(cache.size(), 10u);
  EXPECT_GE(cache.size(), 8u);  // every shard holds at least one entry
}

TEST(ShardedLruCacheTest, StridedKeysSpreadAcrossShards) {
  // std::hash is the identity for ints, so without mixing before shard
  // selection every key with stride == num_shards lands in one shard and
  // the cache degrades to a single shard's capacity.
  const size_t kShards = 8;
  ShardedLruCache<int, int> cache(64, kShards);
  const int kKeys = 32;
  for (int i = 0; i < kKeys; ++i) cache.Put(i * static_cast<int>(kShards), i);
  // Spread across shards, nearly all 32 strided keys survive in a
  // 64-entry cache (an unlucky shard may still overflow its 8 slots); a
  // single shard would have kept only 8.
  size_t retained = 0;
  for (int i = 0; i < kKeys; ++i) {
    retained += cache.Get(i * static_cast<int>(kShards)).has_value() ? 1 : 0;
  }
  EXPECT_GE(retained, static_cast<size_t>(kKeys) * 3 / 4);
}

TEST(ShardedLruCacheTest, ConcurrentAccessIsSafe) {
  ShardedLruCache<int, int> cache(64, 8);
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&cache, t] {
      for (int i = 0; i < 2000; ++i) {
        const int key = (t * 31 + i) % 100;
        cache.Put(key, key * 2);
        auto v = cache.Get(key);
        if (v.has_value()) {
          EXPECT_EQ(*v, key * 2);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_LE(cache.size(), 64u);
}

// --------------------------------------------------------------- server --

class ServerFixture : public ::testing::Test {
 protected:
  ServerFixture()
      : corpus_(datagen::ShoppingGenerator().Generate()), index_(corpus_) {}

  static ServeRequest Expand(const std::string& query) {
    ServeRequest r;
    r.query = query;
    return r;
  }

  static ServeRequest Explain(const std::string& query) {
    ServeRequest r = Expand(query);
    r.verb = ServeRequest::Verb::kExplain;
    return r;
  }

  doc::Corpus corpus_;
  index::InvertedIndex index_;
};

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

void ExpectSameOutcome(const core::ExpansionOutcome& a,
                       const core::ExpansionOutcome& b) {
  EXPECT_EQ(a.num_clusters, b.num_clusters);
  EXPECT_EQ(a.num_results_used, b.num_results_used);
  EXPECT_DOUBLE_EQ(a.set_score, b.set_score);
  ASSERT_EQ(a.queries.size(), b.queries.size());
  for (size_t i = 0; i < a.queries.size(); ++i) {
    EXPECT_EQ(a.queries[i].terms, b.queries[i].terms);
    EXPECT_EQ(a.queries[i].keywords, b.queries[i].keywords);
    EXPECT_DOUBLE_EQ(a.queries[i].quality.f_measure,
                     b.queries[i].quality.f_measure);
    EXPECT_EQ(a.queries[i].cluster_size, b.queries[i].cluster_size);
  }
}

TEST_F(ServerFixture, ServesExpandRequests) {
  QecServer server(index_);
  auto response = server.Submit(Expand("canon products")).get();
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_GT(response.outcome.num_clusters, 0u);
  EXPECT_FALSE(response.outcome.queries.empty());
  EXPECT_FALSE(response.from_cache);
  EXPECT_GE(response.total_seconds, response.queue_seconds);
}

TEST_F(ServerFixture, SecondIdenticalRequestHitsCache) {
  QecServer server(index_);
  auto first = server.Submit(Expand("canon products")).get();
  ASSERT_TRUE(first.status.ok());
  EXPECT_FALSE(first.from_cache);
  auto second = server.Submit(Expand("canon products")).get();
  ASSERT_TRUE(second.status.ok());
  EXPECT_TRUE(second.from_cache);
  ExpectSameOutcome(first.outcome, second.outcome);
  // Normalization: case/whitespace variants share the entry.
  auto third = server.Submit(Expand("  CANON   Products ")).get();
  ASSERT_TRUE(third.status.ok());
  EXPECT_TRUE(third.from_cache);
  ExpectSameOutcome(first.outcome, third.outcome);
  EXPECT_GE(server.stats().expansion_cache.hits, 2u);
}

TEST_F(ServerFixture, CachedAndUncachedServersAgree) {
  ServerOptions cached_options;
  ServerOptions uncached_options;
  uncached_options.enable_expansion_cache = false;
  uncached_options.enable_set_algebra_cache = false;
  QecServer cached(index_, cached_options);
  QecServer uncached(index_, uncached_options);
  for (const char* query :
       {"canon products", "tv plasma", "memory 8gb", "printer"}) {
    auto a = cached.Submit(Expand(query)).get();
    auto b = cached.Submit(Expand(query)).get();  // cache hit
    auto c = uncached.Submit(Expand(query)).get();
    ASSERT_TRUE(a.status.ok()) << query;
    ASSERT_TRUE(b.status.ok()) << query;
    ASSERT_TRUE(c.status.ok()) << query;
    EXPECT_TRUE(b.from_cache) << query;
    EXPECT_FALSE(c.from_cache) << query;
    ExpectSameOutcome(a.outcome, b.outcome);
    ExpectSameOutcome(a.outcome, c.outcome);
  }
  EXPECT_EQ(uncached.stats().expansion_cache.hits, 0u);
}

TEST_F(ServerFixture, DifferentOptionsMissTheCache) {
  QecServer server(index_);
  auto iskr = server.Submit(Expand("canon products")).get();
  ServeRequest pebc_request = Expand("canon products");
  pebc_request.algorithm = core::ExpansionAlgorithm::kPebc;
  auto pebc = server.Submit(std::move(pebc_request)).get();
  ASSERT_TRUE(iskr.status.ok());
  ASSERT_TRUE(pebc.status.ok());
  EXPECT_FALSE(pebc.from_cache);
}

TEST_F(ServerFixture, ExpanderErrorsPropagate) {
  QecServer server(index_);
  auto response = server.Submit(Expand("zzzzunknownwordzzzz")).get();
  EXPECT_FALSE(response.status.ok());
  EXPECT_EQ(response.status.code(), StatusCode::kInvalidArgument);
}

TEST_F(ServerFixture, NonExpandVerbsAreRejected) {
  QecServer server(index_);
  ServeRequest ping;
  ping.verb = ServeRequest::Verb::kPing;
  auto response = server.Submit(std::move(ping)).get();
  EXPECT_EQ(response.status.code(), StatusCode::kInvalidArgument);
}

TEST_F(ServerFixture, FullQueueShedsWithUnavailable) {
  ServerOptions options;
  options.start_workers = false;  // nothing drains until Start()
  options.queue_capacity = 2;
  QecServer server(index_, options);
  auto f1 = server.Submit(Expand("canon products"));
  auto f2 = server.Submit(Expand("tv plasma"));
  auto f3 = server.Submit(Expand("printer"));  // queue full: shed now
  auto shed = f3.get();
  EXPECT_EQ(shed.status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(server.stats().shed_queue_full, 1u);
  EXPECT_EQ(server.queue_depth(), 2u);
  server.Start();
  auto r1 = f1.get();
  auto r2 = f2.get();
  EXPECT_TRUE(r1.status.ok()) << r1.status.ToString();
  EXPECT_TRUE(r2.status.ok()) << r2.status.ToString();
}

TEST_F(ServerFixture, SubmitBatchCompletesEveryCallback) {
  QecServer server(index_);
  const std::vector<std::string> queries = {"canon products", "tv plasma",
                                            "printer", "canon products"};
  std::mutex mu;
  std::condition_variable cv;
  std::vector<ServeResponse> responses(queries.size());
  size_t done = 0;
  std::vector<QecServer::AsyncRequest> batch;
  for (size_t i = 0; i < queries.size(); ++i) {
    QecServer::AsyncRequest async;
    async.request = Expand(queries[i]);
    async.on_done = [&, i](ServeResponse response) {
      std::lock_guard<std::mutex> lock(mu);
      responses[i] = std::move(response);
      if (++done == queries.size()) cv.notify_one();
    };
    batch.push_back(std::move(async));
  }
  server.SubmitBatch(std::move(batch));
  {
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(10),
                            [&] { return done == queries.size(); }));
  }
  EXPECT_EQ(server.stats().submitted, queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(responses[i].status.ok())
        << i << ": " << responses[i].status.ToString();
    ExpectSameOutcome(responses[i].outcome,
                      server.Submit(Expand(queries[i])).get().outcome);
  }
}

TEST_F(ServerFixture, SubmitBatchShedsOverflowBeforeReturning) {
  ServerOptions options;
  options.start_workers = false;  // nothing drains until Start()
  options.queue_capacity = 2;
  QecServer server(index_, options);
  std::vector<StatusCode> codes(4, StatusCode::kUnimplemented);  // sentinel
  std::vector<QecServer::AsyncRequest> batch;
  for (size_t i = 0; i < codes.size(); ++i) {
    QecServer::AsyncRequest async;
    async.request = Expand("canon products");
    async.on_done = [&codes, i](ServeResponse response) {
      codes[i] = response.status.code();
    };
    batch.push_back(std::move(async));
  }
  server.SubmitBatch(std::move(batch));
  // Rejections resolve synchronously; the first two are still queued.
  EXPECT_EQ(codes[2], StatusCode::kUnavailable);
  EXPECT_EQ(codes[3], StatusCode::kUnavailable);
  EXPECT_EQ(server.queue_depth(), 2u);
  EXPECT_EQ(server.stats().shed_queue_full, 2u);
  server.Start();
  server.Shutdown();
  EXPECT_EQ(codes[0], StatusCode::kOk);
  EXPECT_EQ(codes[1], StatusCode::kOk);
}

TEST_F(ServerFixture, ExpiredDeadlineIsShedWhenDequeued) {
  ServerOptions options;
  options.start_workers = false;
  QecServer server(index_, options);
  ServeRequest request = Expand("canon products");
  request.deadline_ms = 1;
  auto future = server.Submit(std::move(request));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  server.Start();
  auto response = future.get();
  EXPECT_EQ(response.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(server.stats().shed_deadline, 1u);
}

// A deadline past the steady clock's range means no deadline: the request
// is served, not shed as expired by a submit time + deadline that wrapped.
TEST_F(ServerFixture, HugeDeadlineMeansNoDeadline) {
  for (const char* line :
       {"EXPAND deadline_ms=10000000000000 -- canon products",
        "EXPAND deadline_ms=18446744073709551615 -- canon products"}) {
    SCOPED_TRACE(line);
    Result<ServeRequest> request = ParseRequestLine(line);
    ASSERT_TRUE(request.ok()) << request.status().ToString();
    ServerOptions options;
    options.start_workers = false;
    QecServer server(index_, options);
    auto future = server.Submit(*std::move(request));
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    server.Start();
    auto response = future.get();
    EXPECT_TRUE(response.status.ok()) << response.status.ToString();
    EXPECT_EQ(server.stats().shed_deadline, 0u);
  }
  // The server-wide default takes the same path.
  ServerOptions options;
  options.default_deadline_ms = std::numeric_limits<uint64_t>::max();
  QecServer server(index_, options);
  auto response = server.Submit(Expand("canon products")).get();
  EXPECT_TRUE(response.status.ok()) << response.status.ToString();
}

TEST_F(ServerFixture, CancelledRequestIsDropped) {
  ServerOptions options;
  options.start_workers = false;
  QecServer server(index_, options);
  ServeRequest request = Expand("canon products");
  request.cancel = std::make_shared<std::atomic<bool>>(false);
  auto cancel = request.cancel;
  auto future = server.Submit(std::move(request));
  cancel->store(true);
  server.Start();
  auto response = future.get();
  EXPECT_EQ(response.status.code(), StatusCode::kCancelled);
  EXPECT_EQ(server.stats().cancelled, 1u);
}

TEST_F(ServerFixture, ShutdownRejectsQueuedWhenPoolNeverRan) {
  ServerOptions options;
  options.start_workers = false;
  QecServer server(index_, options);
  auto future = server.Submit(Expand("canon products"));
  server.Shutdown();
  EXPECT_EQ(future.get().status.code(), StatusCode::kUnavailable);
  // After shutdown nothing is accepted.
  EXPECT_EQ(server.Submit(Expand("tv")).get().status.code(),
            StatusCode::kUnavailable);
}

TEST_F(ServerFixture, ConcurrentLoadCompletesAndAgrees) {
  ServerOptions options;
  options.num_threads = 4;
  QecServer server(index_, options);
  const std::vector<std::string> queries = {"canon products", "tv plasma",
                                            "memory 8gb", "printer"};
  std::vector<std::future<ServeResponse>> futures;
  for (int round = 0; round < 10; ++round) {
    for (const auto& q : queries) futures.push_back(server.Submit(Expand(q)));
  }
  std::vector<ServeResponse> first(queries.size());
  for (size_t i = 0; i < futures.size(); ++i) {
    ServeResponse r = futures[i].get();
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    const size_t which = i % queries.size();
    if (i < queries.size()) {
      first[which] = std::move(r);
    } else {
      ExpectSameOutcome(first[which].outcome, r.outcome);
    }
  }
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.admitted, 40u);
  EXPECT_EQ(stats.completed, 40u);
  EXPECT_GE(stats.expansion_cache.hits, 40u - 2 * queries.size());
}

TEST_F(ServerFixture, StatsJsonIsWellFormed) {
  QecServer server(index_);
  server.Submit(Expand("canon products")).get();
  server.Submit(Expand("canon products")).get();
  auto parsed = obs::json::Parse(server.StatsJsonLine());
  ASSERT_TRUE(parsed.ok()) << server.StatsJsonLine();
  EXPECT_EQ(parsed->Find("status")->string, "ok");
  EXPECT_EQ(parsed->Find("submitted")->number, 2.0);
  EXPECT_EQ(parsed->Find("completed")->number, 2.0);
  const obs::json::Value* cache = parsed->Find("cache");
  ASSERT_NE(cache, nullptr);
  EXPECT_EQ(cache->Find("hits")->number, 1.0);
  EXPECT_EQ(cache->Find("misses")->number, 1.0);
}

TEST_F(ServerFixture, ResponseJsonRoundTrips) {
  QecServer server(index_);
  auto response = server.Submit(Expand("canon products")).get();
  ASSERT_TRUE(response.status.ok());
  auto parsed = obs::json::Parse(ResponseToJsonLine(response));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->Find("status")->string, "ok");
  EXPECT_EQ(parsed->Find("clusters")->number,
            static_cast<double>(response.outcome.num_clusters));
  ASSERT_TRUE(parsed->Find("queries")->is_array());
  EXPECT_EQ(parsed->Find("queries")->array.size(),
            response.outcome.queries.size());
}

// ------------------------------------------------------------ telemetry --

TEST_F(ServerFixture, ResponsesCarryTraceIdAndStageBreakdown) {
  QecServer server(index_);
  ServeRequest request = Expand("canon products");
  request.trace_id = 0xabcdef1234ULL;
  auto response = server.Submit(std::move(request)).get();
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_EQ(response.trace_id, 0xabcdef1234ULL);
  EXPECT_GT(response.stages[Stage::kExpansion], 0u);
  EXPECT_GT(response.stages[Stage::kSerialize], 0u);
  ASSERT_FALSE(response.json_line.empty());

  auto parsed = obs::json::Parse(response.json_line);
  ASSERT_TRUE(parsed.ok()) << response.json_line;
  EXPECT_EQ(parsed->Find("trace_id")->string, "000000abcdef1234");
  const obs::json::Value* stages = parsed->Find("stages_ms");
  ASSERT_NE(stages, nullptr);
  EXPECT_GT(stages->Find("expansion")->number, 0.0);
  // Serialization is measured around rendering this very line, so inside
  // it the serialize stage necessarily reads 0.
  EXPECT_EQ(stages->Find("serialize")->number, 0.0);

  // A server-assigned id appears when the caller did not provide one.
  auto assigned = server.Submit(Expand("tv plasma")).get();
  ASSERT_TRUE(assigned.status.ok());
  EXPECT_NE(assigned.trace_id, 0u);
}

TEST_F(ServerFixture, CacheHitGetsFreshPerRequestTelemetry) {
  QecServer server(index_);
  auto first = server.Submit(Expand("canon products")).get();
  ASSERT_TRUE(first.status.ok());
  auto second = server.Submit(Expand("canon products")).get();
  ASSERT_TRUE(second.status.ok());
  EXPECT_TRUE(second.from_cache);
  EXPECT_NE(second.trace_id, 0u);
  EXPECT_NE(second.trace_id, first.trace_id);
  EXPECT_EQ(second.stages[Stage::kExpansion], 0u);
  EXPECT_GT(second.stages[Stage::kCacheLookup], 0u);
  auto parsed = obs::json::Parse(second.json_line);
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->Find("cached")->boolean);
  EXPECT_EQ(parsed->Find("trace_id")->string, TraceIdToHex(second.trace_id));
}

// A warm EXPAND is answered at admission: its callback runs on the thread
// that calls SubmitBatch, before SubmitBatch returns, through the same
// finishing path (counts, cache stats, flight record) as a worker.
TEST_F(ServerFixture, WarmExpandIsAnsweredOnTheSubmittingThread) {
  QecServer server(index_);
  ASSERT_TRUE(server.Submit(Expand("canon products")).get().status.ok());
  const ServerStats before = server.stats();

  bool done = false;
  std::thread::id callback_thread;
  ServeResponse response;
  std::vector<QecServer::AsyncRequest> batch(1);
  batch[0].request = Expand("canon products");
  batch[0].on_done = [&](ServeResponse r) {
    callback_thread = std::this_thread::get_id();
    response = std::move(r);
    done = true;
  };
  server.SubmitBatch(std::move(batch));
  ASSERT_TRUE(done);
  EXPECT_EQ(callback_thread, std::this_thread::get_id());
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_TRUE(response.from_cache);
  EXPECT_NE(response.json_line.find("\"cached\":true"), std::string::npos)
      << response.json_line;

  const ServerStats after = server.stats();
  EXPECT_EQ(after.admitted, before.admitted + 1);
  EXPECT_EQ(after.completed, before.completed + 1);
  EXPECT_EQ(after.expansion_cache.hits, before.expansion_cache.hits + 1);
  EXPECT_EQ(after.expansion_cache.misses, before.expansion_cache.misses);
  const auto records = server.flight_recorder().Recent(1);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].trace_id, response.trace_id);
  EXPECT_TRUE(records[0].from_cache);
}

// A cold burst of one query queued before any worker runs: each miss is
// looked up again on its worker, so only the copies a worker dequeued
// before the first fill computes miss, and every copy gets the same answer.
TEST_F(ServerFixture, ColdBurstOfOneQueryMissesAtMostOncePerWorker) {
  ServerOptions options;
  options.start_workers = false;
  options.num_threads = 2;
  QecServer server(index_, options);
  const size_t kBurst = 20;
  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::string> lines(kBurst);
  size_t done = 0;
  std::vector<QecServer::AsyncRequest> batch;
  for (size_t i = 0; i < kBurst; ++i) {
    QecServer::AsyncRequest async;
    async.request = Expand("canon products");
    async.on_done = [&, i](ServeResponse response) {
      std::lock_guard<std::mutex> lock(mu);
      lines[i] = std::move(response.json_line);
      if (++done == kBurst) cv.notify_one();
    };
    batch.push_back(std::move(async));
  }
  server.SubmitBatch(std::move(batch));
  EXPECT_EQ(server.queue_depth(), kBurst);
  server.Start();
  const size_t workers = server.num_workers();
  {
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(30),
                            [&] { return done == kBurst; }));
  }
  auto tail = [](const std::string& line) {
    const size_t at = line.find(",\"clusters\":");
    return at == std::string::npos ? std::string() : line.substr(at);
  };
  ASSERT_FALSE(tail(lines[0]).empty()) << lines[0];
  for (size_t i = 1; i < kBurst; ++i) {
    EXPECT_EQ(tail(lines[i]), tail(lines[0])) << i;
  }
  const LruCacheStats cache = server.stats().expansion_cache;
  EXPECT_LE(cache.misses, workers);
  EXPECT_EQ(cache.hits + cache.misses, kBurst);
}

TEST_F(ServerFixture, ErrorResponsesCarryTraceId) {
  QecServer server(index_);
  ServeRequest request = Expand("zzzzunknownwordzzzz");
  request.trace_id = 0x77ULL;
  auto response = server.Submit(std::move(request)).get();
  EXPECT_FALSE(response.status.ok());
  EXPECT_EQ(response.trace_id, 0x77ULL);
  auto parsed = obs::json::Parse(response.json_line);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->Find("status")->string, "error");
  EXPECT_EQ(parsed->Find("trace_id")->string, "0000000000000077");
}

TEST_F(ServerFixture, FlightRecorderSeesEveryCompletedRequest) {
  QecServer server(index_);
  server.Submit(Expand("canon products")).get();
  server.Submit(Expand("canon products")).get();
  server.Submit(Expand("zzzzunknownwordzzzz")).get();
  EXPECT_EQ(server.flight_recorder().total_recorded(), 3u);
  const auto records = server.flight_recorder().Recent(10);
  ASSERT_EQ(records.size(), 3u);
  // Newest first.
  EXPECT_EQ(records[0].status, "InvalidArgument");
  EXPECT_EQ(records[1].status, "OK");
  EXPECT_TRUE(records[1].from_cache);
  EXPECT_EQ(records[2].status, "OK");
  EXPECT_FALSE(records[2].from_cache);
  EXPECT_GT(records[2].expansion_ns, 0u);
  EXPECT_GT(records[2].iskr_steps + records[2].iskr_candidates_evaluated, 0u);
  EXPECT_EQ(records[2].query, "canon products");
  EXPECT_EQ(records[2].algo, "ISKR");
}

// The acceptance scenario: a request that dies of DeadlineExceeded must be
// visible twice — in the /slowlog body and in the auto-dumped JSONL.
TEST_F(ServerFixture, DeadlineExceededLandsInSlowlogAndDumpFile) {
  const std::string dump_path = "/tmp/qec_server_test_slowlog.jsonl";
  std::remove(dump_path.c_str());

  ServerOptions options;
  options.start_workers = false;
  options.slowlog_dump_path = dump_path;
  QecServer server(index_, options);

  ServeRequest request = Expand("canon products");
  request.trace_id = 0xfeedULL;
  request.deadline_ms = 1;
  auto future = server.Submit(std::move(request));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  server.Start();
  auto response = future.get();
  ASSERT_EQ(response.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(response.trace_id, 0xfeedULL);

  // 1. The /slowlog body surfaces the record with its trace id and status.
  auto slowlog = obs::json::Parse(server.SlowlogJsonLine(8));
  ASSERT_TRUE(slowlog.ok()) << server.SlowlogJsonLine(8);
  ASSERT_TRUE(slowlog->Find("records")->is_array());
  ASSERT_EQ(slowlog->Find("records")->array.size(), 1u);
  const obs::json::Value& record = slowlog->Find("records")->array[0];
  EXPECT_EQ(record.Find("trace_id")->string, "000000000000feed");
  EXPECT_EQ(record.Find("status")->string, "DeadlineExceeded");
  EXPECT_GT(record.Find("queue_wait_ns")->number, 0.0);

  // 2. The same record was auto-dumped to the JSONL file.
  EXPECT_EQ(server.flight_recorder().dumped(), 1u);
  std::ifstream dump(dump_path);
  ASSERT_TRUE(dump.good());
  std::string line;
  ASSERT_TRUE(std::getline(dump, line));
  auto dumped = obs::RequestRecordFromJson(line);
  ASSERT_TRUE(dumped.ok()) << line;
  EXPECT_EQ(dumped->trace_id, 0xfeedULL);
  EXPECT_EQ(dumped->status, "DeadlineExceeded");
  EXPECT_EQ(dumped->query, "canon products");
  EXPECT_GT(dumped->total_ns, 0u);
  EXPECT_FALSE(std::getline(dump, line));  // exactly one record

  std::remove(dump_path.c_str());
}

TEST_F(ServerFixture, QueueFullShedIsRecordedAndDumped) {
  const std::string dump_path = "/tmp/qec_server_test_shed.jsonl";
  std::remove(dump_path.c_str());

  ServerOptions options;
  options.start_workers = false;
  options.queue_capacity = 1;
  options.slowlog_dump_path = dump_path;
  QecServer server(index_, options);
  auto f1 = server.Submit(Expand("canon products"));
  auto f2 = server.Submit(Expand("tv plasma"));  // shed: queue full
  auto shed = f2.get();
  EXPECT_EQ(shed.status.code(), StatusCode::kUnavailable);
  EXPECT_NE(shed.trace_id, 0u);
  EXPECT_EQ(server.flight_recorder().dumped(), 1u);
  const auto records = server.flight_recorder().Recent(4);
  ASSERT_FALSE(records.empty());
  EXPECT_EQ(records[0].status, "Unavailable");
  EXPECT_EQ(records[0].query, "tv plasma");
  server.Start();
  f1.get();
  std::remove(dump_path.c_str());
}

TEST_F(ServerFixture, SlowRequestThresholdCountsAndDumps) {
  const std::string dump_path = "/tmp/qec_server_test_slowms.jsonl";
  std::remove(dump_path.c_str());

  ServerOptions options;
  options.start_workers = false;
  options.slowlog_dump_path = dump_path;
  options.slow_request_threshold_ms = 5;
  QecServer server(index_, options);
  auto future = server.Submit(Expand("canon products"));
  // Held in the queue past the threshold: total latency crosses 5ms even
  // though execution itself is fast.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  server.Start();
  auto response = future.get();
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_EQ(server.stats().slow_requests, 1u);
  EXPECT_EQ(server.flight_recorder().dumped(), 1u);
  const auto records = server.flight_recorder().Recent(1);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].status, "OK");
  EXPECT_GE(records[0].total_ns, 5u * 1000 * 1000);
  std::remove(dump_path.c_str());
}

// A threshold past the range of uint64 nanoseconds means no request is
// slow: 2^58 ms in nanoseconds wraps to 0, which would count every one.
TEST_F(ServerFixture, SlowThresholdPastRangeMeansNoRequestIsSlow) {
  ServerOptions options;
  options.slow_request_threshold_ms = uint64_t{1} << 58;
  QecServer server(index_, options);
  ASSERT_TRUE(server.Submit(Expand("canon products")).get().status.ok());
  EXPECT_EQ(server.stats().slow_requests, 0u);
}

TEST_F(ServerFixture, StatsJsonCarriesUptimeHitRatioAndSlowlogCounts) {
  QecServer server(index_);
  server.Submit(Expand("canon products")).get();
  server.Submit(Expand("canon products")).get();
  const std::string line = server.StatsJsonLine();
  auto parsed = obs::json::Parse(line);
  ASSERT_TRUE(parsed.ok()) << line;
  EXPECT_GE(parsed->Find("uptime_seconds")->number, 0.0);
  EXPECT_EQ(parsed->Find("slow_requests")->number, 0.0);
  const obs::json::Value* cache = parsed->Find("cache");
  ASSERT_NE(cache, nullptr);
  EXPECT_DOUBLE_EQ(cache->Find("hit_ratio")->number, 0.5);
  const obs::json::Value* slowlog = parsed->Find("slowlog");
  ASSERT_NE(slowlog, nullptr);
  EXPECT_EQ(slowlog->Find("recorded")->number, 2.0);
  EXPECT_EQ(slowlog->Find("dumped")->number, 0.0);
  EXPECT_EQ(slowlog->Find("capacity")->number, 256.0);
}

// ----------------------------------------------- EXPLAIN / shadow A/B --

TEST(ProtocolTest, ParsesExplainWithOptions) {
  auto r = ParseRequestLine("EXPLAIN k=3 algo=iskr canon products");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->verb, ServeRequest::Verb::kExplain);
  EXPECT_EQ(r->query, "canon products");
  EXPECT_EQ(*r->max_clusters, 3u);
  EXPECT_EQ(*r->algorithm, core::ExpansionAlgorithm::kIskr);
}

TEST(ProtocolTest, ExplainNeedsQueryWords) {
  auto r = ParseRequestLine("EXPLAIN k=3");
  EXPECT_FALSE(r.ok());
}

TEST_F(ServerFixture, SlowlogClampsOversizedRequests) {
  ServerOptions options;
  options.flight_recorder_capacity = 4;
  QecServer server(index_, options);
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(server.Submit(Expand("canon products")).get().status.ok());
  }
  // A `max` beyond the ring capacity used to walk the whole requested
  // range; now it clamps to capacity and reports the clamp.
  const std::string line = server.SlowlogJsonLine(100);
  auto parsed = obs::json::Parse(line);
  ASSERT_TRUE(parsed.ok()) << line;
  EXPECT_EQ(parsed->Find("requested")->number, 100.0);
  EXPECT_EQ(parsed->Find("clamped_to")->number, 4.0);
  EXPECT_EQ(parsed->Find("records")->array.size(), 4u);

  // Within capacity: no clamp fields.
  auto small = obs::json::Parse(server.SlowlogJsonLine(2));
  ASSERT_TRUE(small.ok());
  EXPECT_EQ(small->Find("requested"), nullptr);
  EXPECT_EQ(small->Find("records")->array.size(), 2u);
}

// ------------------------------------------------------------- shadow --

TEST(ShadowEvaluatorTest, SampleDecisionIsSeededAndDeterministic) {
  ShadowEvaluatorOptions options;
  options.sample_rate = 0.5;
  options.seed = 7;
  ShadowEvaluator a(options);
  ShadowEvaluator b(options);
  std::vector<bool> seq_a, seq_b;
  for (int i = 0; i < 64; ++i) {
    seq_a.push_back(a.ShouldSample());
    seq_b.push_back(b.ShouldSample());
  }
  EXPECT_EQ(seq_a, seq_b);
  // The sequence actually mixes both outcomes at rate 0.5.
  EXPECT_NE(std::count(seq_a.begin(), seq_a.end(), true), 0);
  EXPECT_NE(std::count(seq_a.begin(), seq_a.end(), false), 0);

  options.seed = 8;
  ShadowEvaluator c(options);
  std::vector<bool> seq_c;
  for (int i = 0; i < 64; ++i) seq_c.push_back(c.ShouldSample());
  EXPECT_NE(seq_a, seq_c);
}

TEST(ShadowEvaluatorTest, RateEndpointsShortCircuit) {
  ShadowEvaluatorOptions options;
  options.sample_rate = 0.0;
  ShadowEvaluator off(options);
  EXPECT_FALSE(off.ShouldSample());
  options.sample_rate = 1.0;
  ShadowEvaluator on(options);
  EXPECT_TRUE(on.ShouldSample());
}

TEST(ShadowEvaluatorTest, TalliesBalanceAcrossOutcomes) {
  ShadowEvaluatorOptions options;
  options.sample_rate = 1.0;
  ShadowEvaluator evaluator(options);
  evaluator.Compare(1, "q1", "iskr", 0.9, 1000, 0.5, 2000);  // primary win
  evaluator.Compare(2, "q2", "iskr", 0.4, 1000, 0.8, 2000);  // shadow win
  evaluator.Compare(3, "q3", "iskr", 0.7, 1000, 0.7, 2000);  // tie
  evaluator.RecordShed();
  evaluator.RecordDeduped();
  evaluator.RecordError();
  const ShadowTallies t = evaluator.tallies();
  EXPECT_EQ(t.sampled,
            t.executed + t.shed + t.deduped + t.errors);
  EXPECT_EQ(t.executed, 3u);
  EXPECT_EQ(t.primary_wins, 1u);
  EXPECT_EQ(t.shadow_wins, 1u);
  EXPECT_EQ(t.ties, 1u);
  EXPECT_EQ(evaluator.Recent(10).size(), 3u);
  // Newest first.
  EXPECT_EQ(evaluator.Recent(1)[0].query, "q3");
}

TEST_F(ServerFixture, ShadowNeverMutatesForegroundResponsesOrCache) {
  const std::vector<std::string> queries = {"canon products", "tv",
                                            "printer", "canon products"};
  ServerOptions plain_options;
  QecServer plain(index_, plain_options);
  ServerOptions shadowed_options;
  shadowed_options.shadow_sample_rate = 1.0;
  QecServer shadowed(index_, shadowed_options);

  for (const std::string& query : queries) {
    auto a = plain.Submit(Expand(query)).get();
    auto b = shadowed.Submit(Expand(query)).get();
    ASSERT_TRUE(a.status.ok());
    ASSERT_TRUE(b.status.ok());
    ExpectSameOutcome(a.outcome, b.outcome);
    EXPECT_EQ(a.from_cache, b.from_cache);
  }
  // Shadow runs bypass the expansion cache entirely, so both servers saw
  // identical cache traffic.
  while (shadowed.shadow_queue_depth() > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (int i = 0; i < 200 && shadowed.shadow_tallies().executed < 3; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(plain.stats().expansion_cache.hits,
            shadowed.stats().expansion_cache.hits);
  EXPECT_EQ(plain.stats().expansion_cache.misses,
            shadowed.stats().expansion_cache.misses);
  const ShadowTallies t = shadowed.shadow_tallies();
  // 3 distinct queries execute; the repeat is deduped.
  EXPECT_EQ(t.executed, 3u);
  EXPECT_EQ(t.deduped, 1u);
  EXPECT_EQ(t.sampled, t.executed + t.shed + t.deduped + t.errors);
}

TEST_F(ServerFixture, ShadowJobsShedWhenLowPriorityQueueIsFull) {
  ServerOptions options;
  options.num_threads = 1;
  options.start_workers = false;
  options.shadow_sample_rate = 1.0;
  options.shadow_queue_capacity = 2;
  QecServer server(index_, options);
  const std::vector<std::string> queries = {"canon products", "tv", "printer",
                                            "memory", "hp products"};
  std::vector<std::future<ServeResponse>> futures;
  for (const std::string& query : queries) {
    futures.push_back(server.Submit(Expand(query)));
  }
  // The one worker drains the whole foreground queue before it may run a
  // shadow, so the low-priority queue fills after two and sheds the rest.
  server.Start();
  for (auto& future : futures) ASSERT_TRUE(future.get().status.ok());
  ShadowTallies t = server.shadow_tallies();
  EXPECT_EQ(t.shed, 3u);
  for (int i = 0; i < 200 && server.shadow_tallies().executed < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  t = server.shadow_tallies();
  EXPECT_EQ(t.executed, 2u);
  EXPECT_EQ(t.sampled, t.executed + t.shed + t.deduped + t.errors);
}

TEST_F(ServerFixture, ShadowComparisonsLandInFlightRecorder) {
  ServerOptions options;
  options.shadow_sample_rate = 1.0;
  QecServer server(index_, options);
  auto response = server.Submit(Expand("canon products")).get();
  ASSERT_TRUE(response.status.ok());
  for (int i = 0; i < 200 && server.shadow_tallies().executed < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(server.shadow_tallies().executed, 1u);
  bool found = false;
  for (const auto& record : server.flight_recorder().Recent(8)) {
    if (!record.shadow_algo.empty()) {
      found = true;
      EXPECT_EQ(record.trace_id, response.trace_id);
      EXPECT_TRUE(record.shadow_sampled);
      EXPECT_GE(record.shadow_set_score, 0.0);
      EXPECT_FALSE(record.ab_winner.empty());
    }
  }
  EXPECT_TRUE(found);
}

// Both arms record the algorithm's own time (the outcome's expand plus
// minimize phases), on a cache miss and on a hit alike, so the latency
// comparison is like for like: the primary's expansion stage would add
// analyze, search, universe, clustering and candidate selection.
TEST_F(ServerFixture, ShadowComparisonTimesTheAlgorithmOnBothArms) {
  ServerOptions options;
  options.shadow_sample_rate = 1.0;
  options.shadow_dedupe = false;
  QecServer server(index_, options);
  const ServeResponse miss = server.Submit(Expand("canon products")).get();
  const ServeResponse hit = server.Submit(Expand("canon products")).get();
  ASSERT_TRUE(miss.status.ok());
  ASSERT_TRUE(hit.status.ok());
  ASSERT_FALSE(miss.from_cache);
  ASSERT_TRUE(hit.from_cache);
  for (int i = 0; i < 400 && server.shadow_tallies().executed < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(server.shadow_tallies().executed, 2u);
  const std::vector<ShadowComparison> recent =
      server.shadow_evaluator()->Recent(2);
  ASSERT_EQ(recent.size(), 2u);
  // The hit serves the miss's cached outcome, so both comparisons carry
  // the same primary algorithm time.
  const uint64_t algorithm_ns = miss.outcome.phases.expansion_ns();
  EXPECT_GT(algorithm_ns, 0u);
  EXPECT_LT(algorithm_ns, miss.stages[Stage::kExpansion]);
  for (const ShadowComparison& c : recent) {
    EXPECT_EQ(c.primary_expansion_ns, algorithm_ns);
  }
}

TEST_F(ServerFixture, ExplainJsonLineCarriesBothArmsAndTermDetails) {
  QecServer server(index_);
  ServeRequest request;
  request.verb = ServeRequest::Verb::kExplain;
  request.query = "canon products";
  const std::string line = server.ExplainJsonLine(request);
  auto parsed = obs::json::Parse(line);
  ASSERT_TRUE(parsed.ok()) << line;
  EXPECT_EQ(parsed->Find("status")->string, "ok");
  EXPECT_EQ(parsed->Find("query")->string, "canon products");
  const obs::json::Value* winner = parsed->Find("winner");
  ASSERT_NE(winner, nullptr);
  for (const char* arm : {"primary", "shadow"}) {
    const obs::json::Value* value = parsed->Find(arm);
    ASSERT_NE(value, nullptr) << arm;
    ASSERT_EQ(value->Find("status")->string, "OK") << arm;
    EXPECT_GE(value->Find("set_score")->number, 0.0);
    const obs::json::Value* arm_queries = value->Find("queries");
    ASSERT_NE(arm_queries, nullptr);
    ASSERT_FALSE(arm_queries->array.empty());
    for (const auto& q : arm_queries->array) {
      for (const auto& term : q.Find("terms")->array) {
        EXPECT_FALSE(term.Find("term")->string.empty());
        EXPECT_GE(term.Find("benefit")->number, 0.0);
        EXPECT_GE(term.Find("cost")->number, 0.0);
      }
    }
  }
  // The two arms differ (primary default vs its natural counterpart).
  EXPECT_NE(parsed->Find("primary")->Find("algo")->string,
            parsed->Find("shadow")->Find("algo")->string);
}

// EXPLAIN is admitted like EXPAND: a worker renders ExplainJsonLine in the
// expansion stage, outside the expansion cache and the shadow sampler, and
// the flight recorder keeps it under its trace id.
TEST_F(ServerFixture, ExplainRunsOnThePoolAndLeavesOneFlightRecord) {
  ServerOptions options;
  options.shadow_sample_rate = 1.0;
  QecServer server(index_, options);
  ServeRequest request = Explain("canon products");
  request.trace_id = 0xe7ULL;
  const ServeResponse response = server.Submit(request).get();
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_EQ(response.trace_id, 0xe7ULL);
  EXPECT_GT(response.stages[Stage::kExpansion], 0u);
  EXPECT_EQ(MaskExpansionMs(response.json_line),
            MaskExpansionMs(server.ExplainJsonLine(request)));
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.expansion_cache.hits + stats.expansion_cache.misses, 0u);
  EXPECT_EQ(server.shadow_tallies().sampled, 0u);
  const auto records = server.flight_recorder().Recent(4);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].trace_id, 0xe7ULL);
  EXPECT_EQ(records[0].status, "OK");
  EXPECT_EQ(records[0].query, "canon products");
  EXPECT_GT(records[0].expansion_ns, 0u);
  // The record says it is an EXPLAIN, and records no set score (the line
  // carries both arms' scores instead).
  EXPECT_EQ(records[0].verb, "EXPLAIN");
  EXPECT_LT(records[0].set_score, 0.0);
  const std::string line = records[0].ToJsonLine();
  EXPECT_NE(line.find("\"verb\":\"EXPLAIN\""), std::string::npos) << line;
  EXPECT_EQ(line.find("set_score"), std::string::npos) << line;

  // An EXPAND record keeps its verb out of the line.
  ASSERT_TRUE(server.Submit(Expand("canon products")).get().status.ok());
  const auto after = server.flight_recorder().Recent(1);
  ASSERT_EQ(after.size(), 1u);
  EXPECT_EQ(after[0].verb, "EXPAND");
  EXPECT_GE(after[0].set_score, 0.0);
  EXPECT_EQ(after[0].ToJsonLine().find("verb"), std::string::npos);
}

TEST_F(ServerFixture, ExplainPastAFullQueueIsShed) {
  ServerOptions options;
  options.start_workers = false;  // nothing drains until Start()
  options.queue_capacity = 1;
  QecServer server(index_, options);
  auto queued = server.Submit(Explain("canon products"));
  const ServeResponse shed = server.Submit(Explain("tv plasma")).get();
  EXPECT_EQ(shed.status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(server.stats().shed_queue_full, 1u);
  server.Start();
  EXPECT_TRUE(queued.get().status.ok());
}

TEST_F(ServerFixture, ExplainWithExpiredDeadlineIsShed) {
  ServerOptions options;
  options.start_workers = false;
  QecServer server(index_, options);
  ServeRequest request = Explain("canon products");
  request.deadline_ms = 1;
  auto future = server.Submit(std::move(request));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  server.Start();
  EXPECT_EQ(future.get().status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(server.stats().shed_deadline, 1u);
}

TEST_F(ServerFixture, AbtestJsonLineAnswersEnabledAndDisabled) {
  QecServer disabled(index_);
  auto off = obs::json::Parse(disabled.AbtestJsonLine(4));
  ASSERT_TRUE(off.ok());
  EXPECT_EQ(off->Find("enabled")->boolean, false);
  EXPECT_EQ(off->Find("sampled")->number, 0.0);
  EXPECT_TRUE(off->Find("recent")->array.empty());

  ServerOptions options;
  options.shadow_sample_rate = 1.0;
  QecServer server(index_, options);
  ASSERT_TRUE(server.Submit(Expand("canon products")).get().status.ok());
  for (int i = 0; i < 200 && server.shadow_tallies().executed < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  auto on = obs::json::Parse(server.AbtestJsonLine(4));
  ASSERT_TRUE(on.ok()) << server.AbtestJsonLine(4);
  EXPECT_EQ(on->Find("enabled")->boolean, true);
  EXPECT_EQ(on->Find("shadow_algo")->string, "PEBC");
  EXPECT_EQ(on->Find("executed")->number, 1.0);
  ASSERT_EQ(on->Find("recent")->array.size(), 1u);
  const obs::json::Value& comparison = on->Find("recent")->array[0];
  EXPECT_EQ(comparison.Find("query")->string, "canon products");
  EXPECT_FALSE(comparison.Find("winner")->string.empty());
}

TEST_F(ServerFixture, StatsJsonCarriesShadowBlock) {
  ServerOptions options;
  options.shadow_sample_rate = 0.25;
  QecServer server(index_, options);
  auto parsed = obs::json::Parse(server.StatsJsonLine());
  ASSERT_TRUE(parsed.ok());
  const obs::json::Value* shadow = parsed->Find("shadow");
  ASSERT_NE(shadow, nullptr);
  EXPECT_EQ(shadow->Find("enabled")->boolean, true);
  EXPECT_DOUBLE_EQ(shadow->Find("sample_rate")->number, 0.25);
  EXPECT_EQ(shadow->Find("algo")->string, "PEBC");
}

#ifndef QEC_DISABLE_TRACING
TEST_F(ServerFixture, StageHistogramsFillAndExposeAsPrometheus) {
  obs::MetricsRegistry::Global().ResetAll();
  QecServer server(index_);
  auto response = server.Submit(Expand("canon products")).get();
  ASSERT_TRUE(response.status.ok());

  auto* registry = &obs::MetricsRegistry::Global();
  for (const char* name :
       {"server/stage/queue_wait_ns", "server/stage/cache_lookup_ns",
        "server/stage/expansion_ns", "server/stage/serialize_ns"}) {
    EXPECT_EQ(registry->GetHistogram(name)->count(), 1u) << name;
  }
  EXPECT_GT(registry->GetHistogram("server/stage/expansion_ns")->sum(), 0u);

  // The exposition of the live registry parses and holds the histogram
  // invariants — the same check the CI smoke leg runs externally.
  const std::string text = obs::PrometheusSnapshot();
  auto families = obs::ParsePrometheusText(text);
  ASSERT_TRUE(families.ok()) << families.status().ToString();
  ASSERT_TRUE(obs::ValidatePrometheusHistograms(*families).ok());
  bool found_expansion = false;
  for (const auto& family : *families) {
    if (family.name == "qec_server_stage_expansion_ns") {
      EXPECT_EQ(family.type, "histogram");
      found_expansion = true;
    }
  }
  EXPECT_TRUE(found_expansion);
}
#endif  // QEC_DISABLE_TRACING

}  // namespace
}  // namespace qec::server
