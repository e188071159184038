// Tests for the qec_obs library: counters/gauges/histograms (including
// concurrent updates), JSON export round-trips, and an end-to-end check
// that an ISKR/PEBC run populates the registry counters the docs promise.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "core/expansion_context.h"
#include "core/iskr.h"
#include "core/pebc.h"
#include "core/result_universe.h"
#include "doc/corpus.h"
#include "obs/json.h"
#include "obs/metrics.h"

namespace qec::obs {
namespace {

// Metrics are process-global; every test starts from zero.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override { MetricsRegistry::Global().ResetAll(); }
};

TEST_F(ObsTest, CounterBasics) {
  Counter* c = MetricsRegistry::Global().GetCounter("test/counter");
  EXPECT_EQ(c->value(), 0u);
  c->Increment();
  c->Add(41);
  EXPECT_EQ(c->value(), 42u);
  // Same name resolves to the same handle; ResetAll keeps it valid.
  EXPECT_EQ(MetricsRegistry::Global().GetCounter("test/counter"), c);
  MetricsRegistry::Global().ResetAll();
  c->Increment();
  EXPECT_EQ(c->value(), 1u);
}

TEST_F(ObsTest, CounterConcurrentIncrements) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 100000;
  Counter* c = MetricsRegistry::Global().GetCounter("test/concurrent");
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([c] {
      for (int i = 0; i < kPerThread; ++i) c->Increment();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c->value(), uint64_t{kThreads} * kPerThread);
}

TEST_F(ObsTest, GaugeSetAndAdd) {
  Gauge* g = MetricsRegistry::Global().GetGauge("test/gauge");
  g->Set(2.5);
  g->Add(-1.0);
  EXPECT_DOUBLE_EQ(g->value(), 1.5);
}

TEST_F(ObsTest, HistogramCountsSumMinMax) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_DOUBLE_EQ(h.Percentile(50), 0.0);
  for (uint64_t v : {0u, 3u, 7u, 100u, 1000u}) h.Record(v);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 1110u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 1000u);
}

TEST_F(ObsTest, HistogramBucketBounds) {
  // Bucket 0 holds exactly 0; bucket i holds [2^(i-1), 2^i - 1].
  EXPECT_EQ(Histogram::BucketUpperBound(0), 0u);
  EXPECT_EQ(Histogram::BucketUpperBound(1), 1u);
  EXPECT_EQ(Histogram::BucketUpperBound(4), 15u);
  Histogram h;
  h.Record(0);
  h.Record(8);    // bucket 4: [8, 15]
  h.Record(15);   // bucket 4
  EXPECT_EQ(h.BucketCount(0), 1u);
  EXPECT_EQ(h.BucketCount(4), 2u);
}

TEST_F(ObsTest, HistogramPercentilesAreBucketBounded) {
  Histogram h;
  for (uint64_t v = 1; v <= 1000; ++v) h.Record(v);
  // Exact rank values are interpolated, but every percentile must fall
  // inside the bucket that contains its rank, and they must be ordered.
  const double p50 = h.Percentile(50);
  const double p95 = h.Percentile(95);
  const double p99 = h.Percentile(99);
  EXPECT_GE(p50, 256.0);   // rank 500 lives in bucket [256, 511]
  EXPECT_LE(p50, 511.0);
  EXPECT_GE(p95, 512.0);   // rank 950 lives in bucket [512, 1023]
  EXPECT_LE(p95, 1023.0);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_LE(p99, 1023.0);
}

TEST_F(ObsTest, HistogramConcurrentRecords) {
  Histogram h;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h.Record(static_cast<uint64_t>(t * kPerThread + i));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(h.count(), uint64_t{kThreads} * kPerThread);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), uint64_t{kThreads} * kPerThread - 1);
  uint64_t bucket_total = 0;
  for (size_t i = 0; i < Histogram::kNumBuckets; ++i) {
    bucket_total += h.BucketCount(i);
  }
  EXPECT_EQ(bucket_total, h.count());
}

// The registry itself under contention: every thread resolves handles by
// name on every iteration (the worst case; hot paths cache handles) while
// a reader snapshots concurrently. Totals must come out exact.
TEST_F(ObsTest, RegistryConcurrentLookupsProduceExactTotals) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 2000;
  std::atomic<bool> stop{false};
  std::thread reader([&stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
      (void)snapshot;
    }
  });
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      auto& registry = MetricsRegistry::Global();
      for (int i = 0; i < kPerThread; ++i) {
        registry.GetCounter("test/contended_counter")->Increment();
        registry.GetCounter("test/per_thread_" + std::to_string(t))->Add(2);
        registry.GetHistogram("test/contended_hist")
            ->Record(static_cast<uint64_t>(i));
        registry.GetGauge("test/contended_gauge")
            ->Set(static_cast<double>(i));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();

  auto& registry = MetricsRegistry::Global();
  EXPECT_EQ(registry.GetCounter("test/contended_counter")->value(),
            uint64_t{kThreads} * kPerThread);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(
        registry.GetCounter("test/per_thread_" + std::to_string(t))->value(),
        uint64_t{kPerThread} * 2);
  }
  Histogram* hist = registry.GetHistogram("test/contended_hist");
  EXPECT_EQ(hist->count(), uint64_t{kThreads} * kPerThread);
  EXPECT_EQ(hist->min(), 0u);
  EXPECT_EQ(hist->max(), uint64_t{kPerThread} - 1);
}

TEST_F(ObsTest, HistogramPercentilesStayMonotonicUnderConcurrentRecords) {
  Histogram* hist =
      MetricsRegistry::Global().GetHistogram("test/percentile_hist");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;
  std::atomic<bool> stop{false};
  // Percentile reads interleaved with writes must never come out inverted
  // (p50 <= p95 <= p99): one Percentiles() call derives all three from a
  // single copy of the relaxed bucket counts.
  std::thread reader([hist, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      const std::vector<double> p = hist->Percentiles({50, 95, 99});
      const double p50 = p[0];
      const double p95 = p[1];
      const double p99 = p[2];
      EXPECT_LE(p50, p95);
      EXPECT_LE(p95, p99);
    }
  });
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([hist, t] {
      for (int i = 0; i < kPerThread; ++i) {
        hist->Record(static_cast<uint64_t>(t) * kPerThread + i);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();

  EXPECT_EQ(hist->count(), uint64_t{kThreads} * kPerThread);
  const std::vector<double> p = hist->Percentiles({50, 95, 99});
  const double p50 = p[0];
  const double p95 = p[1];
  const double p99 = p[2];
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_GT(p50, 0.0);
}

// Everything below exercises the QEC_* macros, which are no-ops when
// instrumentation is compiled out.
#ifndef QEC_DISABLE_TRACING

TEST_F(ObsTest, MacrosFeedTheGlobalRegistry) {
  QEC_COUNTER_INC("test/macro_counter");
  QEC_COUNTER_ADD("test/macro_counter", 2);
  QEC_GAUGE_SET("test/macro_gauge", 0.25);
  QEC_HISTOGRAM_RECORD("test/macro_hist", 128);
  auto& reg = MetricsRegistry::Global();
  EXPECT_EQ(reg.GetCounter("test/macro_counter")->value(), 3u);
  EXPECT_DOUBLE_EQ(reg.GetGauge("test/macro_gauge")->value(), 0.25);
  EXPECT_EQ(reg.GetHistogram("test/macro_hist")->count(), 1u);
}

TEST_F(ObsTest, JsonExportRoundTrips) {
  QEC_COUNTER_ADD("test/export_counter", 7);
  QEC_GAUGE_SET("test/export_gauge", -1.5);
  for (uint64_t v = 1; v <= 100; ++v) {
    QEC_HISTOGRAM_RECORD("test/export_hist", v);
  }

  const std::string text = MetricsRegistry::Global().Snapshot().ToJson();
  auto doc = json::Parse(text);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();

  const json::Value* counters = doc->Find("counters");
  ASSERT_NE(counters, nullptr);
  const json::Value* c = counters->Find("test/export_counter");
  ASSERT_NE(c, nullptr);
  EXPECT_DOUBLE_EQ(c->number, 7.0);

  const json::Value* g = doc->Find("gauges")->Find("test/export_gauge");
  ASSERT_NE(g, nullptr);
  EXPECT_DOUBLE_EQ(g->number, -1.5);

  const json::Value* h = doc->Find("histograms")->Find("test/export_hist");
  ASSERT_NE(h, nullptr);
  EXPECT_DOUBLE_EQ(h->Find("count")->number, 100.0);
  EXPECT_DOUBLE_EQ(h->Find("sum")->number, 5050.0);
  const json::Value* p50 = h->Find("p50");
  ASSERT_NE(p50, nullptr);
  EXPECT_GT(p50->number, 0.0);
  ASSERT_NE(h->Find("p95"), nullptr);
  ASSERT_NE(h->Find("p99"), nullptr);
  const json::Value* buckets = h->Find("buckets");
  ASSERT_NE(buckets, nullptr);
  EXPECT_TRUE(buckets->is_array());
  EXPECT_FALSE(buckets->array.empty());
}

#endif  // QEC_DISABLE_TRACING

TEST_F(ObsTest, JsonParserHandlesEscapesAndNumbers) {
  auto doc = json::Parse(R"({"s":"a\"b\né","n":-1.5e2,"l":[true,null]})");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->Find("s")->string, "a\"b\n\xc3\xa9");
  EXPECT_DOUBLE_EQ(doc->Find("n")->number, -150.0);
  ASSERT_EQ(doc->Find("l")->array.size(), 2u);
  EXPECT_TRUE(doc->Find("l")->array[0].boolean);
  EXPECT_EQ(doc->Find("l")->array[1].type, json::Value::Type::kNull);
}

TEST_F(ObsTest, JsonParserRejectsMalformedInput) {
  EXPECT_FALSE(json::Parse("").ok());
  EXPECT_FALSE(json::Parse("{").ok());
  EXPECT_FALSE(json::Parse("[1,]").ok());
  EXPECT_FALSE(json::Parse("{\"a\":1,}").ok());
  EXPECT_FALSE(json::Parse("nul").ok());
  EXPECT_FALSE(json::Parse("{} trailing").ok());
  EXPECT_FALSE(json::Parse("\"unterminated").ok());
}

TEST_F(ObsTest, JsonQuoteEscapes) {
  EXPECT_EQ(json::Quote("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(json::Quote("tab\there"), "\"tab\\there\"");
  EXPECT_EQ(json::NumberToString(42.0), "42");
  EXPECT_EQ(json::NumberToString(std::nan("")), "null");
}

// End-to-end: one ISKR and one PEBC run on the paper's Example 3.1
// instance must light up the registry counters and the per-result stats.
TEST_F(ObsTest, ExpanderRunsPopulateMetrics) {
  doc::Corpus corpus;
  std::vector<DocId> ids;
  auto add = [&](const char* name, const char* extras) {
    ids.push_back(corpus.AddTextDocument(
        name, std::string("apple ") + extras));
  };
  add("R1", "location");
  add("R2", "job");
  add("R3", "store fruit");
  add("R4", "store location fruit");
  add("U1", "job fruit");
  add("U2", "location");
  add("U3", "store job");
  add("U4", "fruit");

  core::ResultUniverse universe(corpus, ids);
  DynamicBitset cluster(universe.size());
  for (size_t i = 0; i < 4; ++i) cluster.Set(i);
  auto term = [&](const char* w) {
    return corpus.analyzer().vocabulary().Lookup(w);
  };
  auto ctx = core::MakeContext(
      universe, {term("apple")}, cluster,
      {term("job"), term("store"), term("location"), term("fruit")});

  // The per-run stats structs are filled regardless of build flags.
  auto iskr = core::IskrExpander().Expand(ctx);
  EXPECT_GE(iskr.iskr_stats.steps, 1u);
  EXPECT_GE(iskr.iskr_stats.candidates_evaluated, 1u);

  auto pebc = core::PebcExpander().Expand(ctx);
  EXPECT_GE(pebc.pebc_stats.samples_drawn, 1u);
  EXPECT_GE(pebc.pebc_stats.rounds, 1u);

#ifndef QEC_DISABLE_TRACING
  auto& reg = MetricsRegistry::Global();
  EXPECT_GE(reg.GetCounter("iskr/steps")->value(), 1u);
  EXPECT_GE(reg.GetCounter("iskr/runs")->value(), 1u);
  EXPECT_GE(reg.GetCounter("pebc/samples_drawn")->value(), 1u);
  EXPECT_GE(reg.GetCounter("universe/term_lookups")->value(), 1u);
#endif
}

}  // namespace
}  // namespace qec::obs
