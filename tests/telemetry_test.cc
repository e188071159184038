// Tests for the request-scoped telemetry layer: Prometheus text
// exposition (writer, parser, histogram validation, file flusher), the
// flight recorder (ring semantics, JSONL round-trip, dump file), and the
// request-context stage stopwatches.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/prometheus.h"
#include "server/request_context.h"
#include "server/shadow_evaluator.h"

namespace qec::obs {
namespace {

// ------------------------------------------------------------ exposition --

TEST(PrometheusNameTest, SanitizesRegistryNames) {
  EXPECT_EQ(PrometheusName("server/queue_wait_ns"),
            "qec_server_queue_wait_ns");
  EXPECT_EQ(PrometheusName("engine/phase/cluster_ns"),
            "qec_engine_phase_cluster_ns");
  EXPECT_EQ(PrometheusName("weird-name.v2"), "qec_weird_name_v2");
  EXPECT_EQ(PrometheusName("already_fine"), "qec_already_fine");
}

TEST(PrometheusWriteTest, RendersCountersGaugesAndHistograms) {
  MetricsSnapshot snapshot;
  snapshot.counters.emplace_back("test/events", 42);
  snapshot.gauges.emplace_back("test/depth", 3.5);
  HistogramSnapshot h;
  h.name = "test/latency_ns";
  h.count = 3;
  h.sum = 10;
  h.buckets = {{1, 1}, {3, 2}};  // inclusive upper bounds, per-bucket counts
  snapshot.histograms.push_back(h);

  const std::string text = WritePrometheus(snapshot);
  EXPECT_NE(text.find("# TYPE qec_test_events_total counter\n"
                      "qec_test_events_total 42\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE qec_test_depth gauge\nqec_test_depth 3.5\n"),
            std::string::npos);
  // Buckets are cumulative and end in +Inf = count.
  EXPECT_NE(text.find("qec_test_latency_ns_bucket{le=\"1\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("qec_test_latency_ns_bucket{le=\"3\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("qec_test_latency_ns_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("qec_test_latency_ns_sum 10\n"), std::string::npos);
  EXPECT_NE(text.find("qec_test_latency_ns_count 3\n"), std::string::npos);
  // Stream consumers rely on the terminator line.
  ASSERT_GE(text.size(), 6u);
  EXPECT_EQ(text.substr(text.size() - 6), "# EOF\n");
}

TEST(PrometheusParseTest, RoundTripsLiveRegistry) {
  auto& registry = MetricsRegistry::Global();
  registry.GetCounter("telemetry_test/rt_counter")->Add(7);
  registry.GetGauge("telemetry_test/rt_gauge")->Set(-2.25);
  Histogram* hist = registry.GetHistogram("telemetry_test/rt_hist");
  for (uint64_t v : {0ull, 1ull, 5ull, 5ull, 1000ull, 123456789ull}) {
    hist->Record(v);
  }

  const std::string text = WritePrometheus(registry.Snapshot());
  auto families = ParsePrometheusText(text);
  ASSERT_TRUE(families.ok()) << families.status().ToString();
  ASSERT_TRUE(ValidatePrometheusHistograms(*families).ok());

  bool saw_counter = false, saw_gauge = false, saw_hist = false;
  for (const auto& family : *families) {
    if (family.name == "qec_telemetry_test_rt_counter_total") {
      saw_counter = true;
      EXPECT_EQ(family.type, "counter");
      ASSERT_EQ(family.samples.size(), 1u);
      EXPECT_EQ(family.samples[0].name, "qec_telemetry_test_rt_counter_total");
      EXPECT_GE(family.samples[0].value, 7.0);
    } else if (family.name == "qec_telemetry_test_rt_gauge") {
      saw_gauge = true;
      EXPECT_EQ(family.type, "gauge");
      ASSERT_EQ(family.samples.size(), 1u);
      EXPECT_DOUBLE_EQ(family.samples[0].value, -2.25);
    } else if (family.name == "qec_telemetry_test_rt_hist") {
      saw_hist = true;
      EXPECT_EQ(family.type, "histogram");
      double count = 0.0, inf_bucket = 0.0;
      for (const auto& sample : family.samples) {
        if (sample.name == "qec_telemetry_test_rt_hist_count") {
          count = sample.value;
        }
        if (sample.name == "qec_telemetry_test_rt_hist_bucket" &&
            sample.Label("le") == "+Inf") {
          inf_bucket = sample.value;
        }
      }
      EXPECT_EQ(count, 6.0);
      EXPECT_EQ(inf_bucket, 6.0);
    }
  }
  EXPECT_TRUE(saw_counter);
  EXPECT_TRUE(saw_gauge);
  EXPECT_TRUE(saw_hist);
}

TEST(PrometheusParseTest, CumulativeBucketsAreExact) {
  // The registry's inclusive bucket upper bounds make cumulative `le`
  // counts exact: every recorded value v <= bound lands at or below it.
  auto& registry = MetricsRegistry::Global();
  Histogram* hist = registry.GetHistogram("telemetry_test/exact_hist");
  const std::vector<uint64_t> values = {0, 1, 2, 3, 4, 7, 8, 100, 1024};
  for (uint64_t v : values) hist->Record(v);

  const std::string text = WritePrometheus(registry.Snapshot());
  auto families = ParsePrometheusText(text);
  ASSERT_TRUE(families.ok());
  for (const auto& family : *families) {
    if (family.name != "qec_telemetry_test_exact_hist") continue;
    for (const auto& sample : family.samples) {
      if (sample.name != "qec_telemetry_test_exact_hist_bucket") continue;
      const std::string_view le = sample.Label("le");
      if (le == "+Inf") continue;
      const uint64_t bound = std::stoull(std::string(le));
      uint64_t expected = 0;
      for (uint64_t v : values) {
        if (v <= bound) ++expected;
      }
      EXPECT_EQ(sample.value, static_cast<double>(expected)) << "le=" << le;
    }
  }
}

TEST(PrometheusParseTest, RejectsMalformedInput) {
  // A sample with no preceding # TYPE family.
  EXPECT_FALSE(ParsePrometheusText("qec_orphan 1\n").ok());
  // A sample that does not belong to the current family.
  EXPECT_FALSE(ParsePrometheusText("# TYPE qec_a counter\nqec_b_total 1\n")
                   .ok());
  // Bad value.
  EXPECT_FALSE(
      ParsePrometheusText("# TYPE qec_a gauge\nqec_a pizza\n").ok());
  // Unterminated label set.
  EXPECT_FALSE(
      ParsePrometheusText("# TYPE qec_a counter\nqec_a_total{x=\"1\" 2\n")
          .ok());
  // Well-formed input is fine, including escapes in label values.
  auto ok = ParsePrometheusText(
      "# TYPE qec_a counter\nqec_a_total{q=\"he said \\\"hi\\\"\"} 3\n# EOF\n");
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  ASSERT_EQ((*ok)[0].samples.size(), 1u);
  EXPECT_EQ((*ok)[0].samples[0].Label("q"), "he said \"hi\"");
}

TEST(PrometheusValidateTest, CatchesBrokenHistograms) {
  auto make = [](std::vector<std::pair<std::string, double>> buckets,
                 double count) {
    PrometheusFamily family;
    family.name = "qec_h";
    family.type = "histogram";
    for (auto& [le, value] : buckets) {
      PrometheusSample s;
      s.name = "qec_h_bucket";
      s.labels.emplace_back("le", le);
      s.value = value;
      family.samples.push_back(s);
    }
    PrometheusSample c;
    c.name = "qec_h_count";
    c.value = count;
    family.samples.push_back(c);
    return std::vector<PrometheusFamily>{family};
  };

  EXPECT_TRUE(ValidatePrometheusHistograms(
                  make({{"1", 1}, {"2", 3}, {"+Inf", 3}}, 3))
                  .ok());
  // Decreasing cumulative counts.
  EXPECT_FALSE(ValidatePrometheusHistograms(
                   make({{"1", 5}, {"2", 3}, {"+Inf", 5}}, 5))
                   .ok());
  // Missing +Inf bucket.
  EXPECT_FALSE(
      ValidatePrometheusHistograms(make({{"1", 1}, {"2", 3}}, 3)).ok());
  // _count disagrees with +Inf.
  EXPECT_FALSE(ValidatePrometheusHistograms(
                   make({{"1", 1}, {"+Inf", 3}}, 4))
                   .ok());
}

// -------------------------------------------------------- flight recorder --

RequestRecord MakeRecord(uint64_t trace_id) {
  RequestRecord r;
  r.trace_id = trace_id;
  r.unix_ms = 1700000000000ULL + trace_id;
  r.query = "query " + std::to_string(trace_id);
  r.algo = "ISKR";
  r.status = "OK";
  r.from_cache = trace_id % 2 == 0;
  r.queue_wait_ns = 10 * trace_id;
  r.cache_lookup_ns = 20 * trace_id;
  r.expansion_ns = 30 * trace_id;
  r.serialize_ns = 40 * trace_id;
  r.total_ns = 100 * trace_id;
  r.iskr_steps = trace_id;
  r.iskr_candidates_evaluated = trace_id * 2;
  r.pebc_samples_drawn = trace_id * 3;
  r.pebc_candidates_evaluated = trace_id * 4;
  r.set_score = 0.75;
  r.shadow_sampled = true;
  r.shadow_algo = "PEBC";
  r.shadow_set_score = 0.5;
  r.ab_winner = "primary";
  r.shadow_expansion_ns = 50 * trace_id;
  return r;
}

TEST(RequestRecordTest, JsonRoundTripsEveryField) {
  RequestRecord original = MakeRecord(0xdeadbeefULL);
  original.verb = "EXPLAIN";
  auto parsed = RequestRecordFromJson(original.ToJsonLine());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->trace_id, original.trace_id);
  EXPECT_EQ(parsed->unix_ms, original.unix_ms);
  EXPECT_EQ(parsed->verb, original.verb);
  EXPECT_EQ(parsed->query, original.query);
  EXPECT_EQ(parsed->algo, original.algo);
  EXPECT_EQ(parsed->status, original.status);
  EXPECT_EQ(parsed->from_cache, original.from_cache);
  EXPECT_EQ(parsed->queue_wait_ns, original.queue_wait_ns);
  EXPECT_EQ(parsed->cache_lookup_ns, original.cache_lookup_ns);
  EXPECT_EQ(parsed->expansion_ns, original.expansion_ns);
  EXPECT_EQ(parsed->serialize_ns, original.serialize_ns);
  EXPECT_EQ(parsed->total_ns, original.total_ns);
  EXPECT_EQ(parsed->iskr_steps, original.iskr_steps);
  EXPECT_EQ(parsed->iskr_candidates_evaluated,
            original.iskr_candidates_evaluated);
  EXPECT_EQ(parsed->pebc_samples_drawn, original.pebc_samples_drawn);
  EXPECT_EQ(parsed->pebc_candidates_evaluated,
            original.pebc_candidates_evaluated);
  EXPECT_DOUBLE_EQ(parsed->set_score, original.set_score);
  EXPECT_EQ(parsed->shadow_sampled, original.shadow_sampled);
  EXPECT_EQ(parsed->shadow_algo, original.shadow_algo);
  EXPECT_DOUBLE_EQ(parsed->shadow_set_score, original.shadow_set_score);
  EXPECT_EQ(parsed->ab_winner, original.ab_winner);
  EXPECT_EQ(parsed->shadow_expansion_ns, original.shadow_expansion_ns);
}

TEST(RequestRecordTest, QualityFieldsAreOptionalInJson) {
  // A record that never met the shadow layer emits none of the quality
  // fields, and a pre-shadow JSONL line still parses with the defaults.
  RequestRecord plain;
  plain.trace_id = 7;
  plain.query = "q";
  const std::string line = plain.ToJsonLine();
  EXPECT_EQ(line.find("shadow"), std::string::npos);
  EXPECT_EQ(line.find("set_score"), std::string::npos);
  EXPECT_EQ(line.find("verb"), std::string::npos);
  auto parsed = RequestRecordFromJson(line);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->verb, "EXPAND");
  EXPECT_FALSE(parsed->shadow_sampled);
  EXPECT_TRUE(parsed->shadow_algo.empty());
  EXPECT_DOUBLE_EQ(parsed->set_score, -1.0);
  EXPECT_DOUBLE_EQ(parsed->shadow_set_score, -1.0);
}

TEST(RequestRecordTest, RejectsMalformedJson) {
  EXPECT_FALSE(RequestRecordFromJson("not json").ok());
  EXPECT_FALSE(RequestRecordFromJson("[1,2,3]").ok());
  EXPECT_FALSE(RequestRecordFromJson("").ok());
}

TEST(FlightRecorderTest, RingKeepsNewestRecordsInOrder) {
  FlightRecorder recorder(4);
  EXPECT_EQ(recorder.capacity(), 4u);
  for (uint64_t i = 1; i <= 10; ++i) recorder.Record(MakeRecord(i));
  EXPECT_EQ(recorder.total_recorded(), 10u);

  const auto recent = recorder.Recent(16);
  ASSERT_EQ(recent.size(), 4u);  // ring capacity bounds the answer
  EXPECT_EQ(recent[0].trace_id, 10u);  // newest first
  EXPECT_EQ(recent[1].trace_id, 9u);
  EXPECT_EQ(recent[2].trace_id, 8u);
  EXPECT_EQ(recent[3].trace_id, 7u);

  const auto two = recorder.Recent(2);
  ASSERT_EQ(two.size(), 2u);
  EXPECT_EQ(two[0].trace_id, 10u);
  EXPECT_EQ(two[1].trace_id, 9u);

  recorder.Clear();
  EXPECT_TRUE(recorder.Recent(16).empty());
  EXPECT_EQ(recorder.total_recorded(), 0u);
}

TEST(FlightRecorderTest, DumpAppendsJsonlAndCounts) {
  const std::string path = "/tmp/qec_telemetry_test_dump.jsonl";
  std::remove(path.c_str());
  FlightRecorder recorder(4);

  // Without a dump path, Dump is a successful no-op.
  EXPECT_TRUE(recorder.Dump(MakeRecord(1)));
  EXPECT_EQ(recorder.dumped(), 0u);

  recorder.SetDumpPath(path);
  EXPECT_TRUE(recorder.Dump(MakeRecord(2)));
  EXPECT_TRUE(recorder.Dump(MakeRecord(3)));
  EXPECT_EQ(recorder.dumped(), 2u);

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  std::vector<uint64_t> ids;
  while (std::getline(in, line)) {
    auto record = RequestRecordFromJson(line);
    ASSERT_TRUE(record.ok()) << line;
    ids.push_back(record->trace_id);
  }
  EXPECT_EQ(ids, (std::vector<uint64_t>{2, 3}));
  std::remove(path.c_str());
}

TEST(FlightRecorderTest, ConcurrentRecordIsSafeAndLosesNothing) {
  FlightRecorder recorder(1024);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 100;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&recorder, t] {
      for (int i = 0; i < kPerThread; ++i) {
        recorder.Record(
            MakeRecord(static_cast<uint64_t>(t) * kPerThread + i + 1));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(recorder.total_recorded(),
            static_cast<uint64_t>(kThreads) * kPerThread);
  const auto recent = recorder.Recent(1024);
  EXPECT_EQ(recent.size(), static_cast<size_t>(kThreads) * kPerThread);
  std::set<uint64_t> ids;
  for (const auto& record : recent) ids.insert(record.trace_id);
  EXPECT_EQ(ids.size(), recent.size());  // no slot was double-written
}

// -------------------------------------------------------- request context --

TEST(RequestContextTest, StageTimerAccumulates) {
  server::RequestContext context;
  {
    server::StageTimer timer(context, server::Stage::kExpansion);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  {
    server::StageTimer timer(context, server::Stage::kExpansion);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_GE(context.stages[server::Stage::kExpansion], 4u * 1000 * 1000);
  EXPECT_EQ(context.stages[server::Stage::kSerialize], 0u);
}

TEST(RequestContextTest, StageNamesAreStable) {
  EXPECT_EQ(server::StageName(server::Stage::kQueueWait), "queue_wait");
  EXPECT_EQ(server::StageName(server::Stage::kCacheLookup), "cache_lookup");
  EXPECT_EQ(server::StageName(server::Stage::kExpansion), "expansion");
  EXPECT_EQ(server::StageName(server::Stage::kSerialize), "serialize");
}

TEST(RequestContextTest, GeneratedTraceIdsAreUniqueAndNonZero) {
  std::set<uint64_t> ids;
  for (int i = 0; i < 10000; ++i) {
    const uint64_t id = server::GenerateTraceId();
    ASSERT_NE(id, 0u);
    ids.insert(id);
  }
  EXPECT_EQ(ids.size(), 10000u);
}

// ------------------------------------------------------------ build info --

TEST(PrometheusBuildInfoTest, EmitsParsableSingleSampleGauge) {
  const std::string text = PrometheusBuildInfo();
  auto families = ParsePrometheusText(text);
  ASSERT_TRUE(families.ok()) << families.status().ToString();
  ASSERT_EQ(families->size(), 1u);
  const PrometheusFamily& family = (*families)[0];
  EXPECT_EQ(family.name, "qec_build_info");
  EXPECT_EQ(family.type, "gauge");
  ASSERT_EQ(family.samples.size(), 1u);
  const PrometheusSample& sample = family.samples[0];
  EXPECT_DOUBLE_EQ(sample.value, 1.0);
  EXPECT_FALSE(sample.Label("version").empty());
  EXPECT_FALSE(sample.Label("git").empty());
  for (const char* flag : {"popcount", "tracing"}) {
    const std::string_view v = sample.Label(flag);
    EXPECT_TRUE(v == "on" || v == "off") << flag << "=" << v;
  }
}

TEST(PrometheusBuildInfoTest, LeadsEveryExposition) {
  const std::string text = PrometheusSnapshot();
  EXPECT_EQ(text.rfind("# TYPE qec_build_info gauge\nqec_build_info{", 0), 0u)
      << text.substr(0, 120);
  // And the multi-label line survives the strict parser.
  EXPECT_TRUE(ParsePrometheusText(text).ok());
}

// --------------------------------------------------------- shadow metrics --

#ifndef QEC_DISABLE_TRACING
TEST(ShadowMetricsTest, ComparisonsFeedPrometheusFamilies) {
  MetricsRegistry::Global().ResetAll();
  server::ShadowEvaluatorOptions options;
  options.sample_rate = 1.0;
  server::ShadowEvaluator evaluator(options);
  evaluator.Compare(1, "q", "ISKR", 0.9, 1'000'000, 0.5, 2'000'000);
  evaluator.Compare(2, "q2", "ISKR", 0.2, 1'000'000, 0.8, 2'000'000);
  evaluator.RecordShed();

  const std::string text = PrometheusSnapshot();
  auto families = ParsePrometheusText(text);
  ASSERT_TRUE(families.ok()) << families.status().ToString();
  double sampled = 0, executed = 0, shed = 0, wins_primary = 0,
         wins_shadow = 0;
  bool saw_primary_hist = false, saw_shadow_hist = false;
  for (const auto& family : *families) {
    for (const auto& sample : family.samples) {
      if (sample.name == "qec_shadow_sampled_total") sampled = sample.value;
      if (sample.name == "qec_shadow_executed_total") executed = sample.value;
      if (sample.name == "qec_shadow_shed_total") shed = sample.value;
      if (sample.name == "qec_shadow_wins_primary_total") {
        wins_primary = sample.value;
      }
      if (sample.name == "qec_shadow_wins_shadow_total") {
        wins_shadow = sample.value;
      }
    }
    if (family.name == "qec_shadow_primary_score_milli") {
      saw_primary_hist = true;
    }
    if (family.name == "qec_shadow_shadow_expansion_ns") {
      saw_shadow_hist = true;
    }
  }
  EXPECT_EQ(sampled, 3.0);
  EXPECT_EQ(executed, 2.0);
  EXPECT_EQ(shed, 1.0);
  EXPECT_EQ(wins_primary, 1.0);
  EXPECT_EQ(wins_shadow, 1.0);
  EXPECT_TRUE(saw_primary_hist);
  EXPECT_TRUE(saw_shadow_hist);
}
#endif  // QEC_DISABLE_TRACING

}  // namespace
}  // namespace qec::obs
