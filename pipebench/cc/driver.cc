// Pipeline benchmark driver: runs one workload in this process and prints
// one JSON result line as the last line of stdout (pipebench/README.md
// describes the workloads and metrics). pipebench/run.py builds it, runs
// it and checks its metrics against BENCHMARK.json.
//
//   pipebench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    --out-dir DIR [--snapshot FILE]
//   pipebench_driver --prepare-snapshot FILE
//
// Exit status: 0 when every output matched its reference, 1 when a run
// failed or mismatched (the result line is still printed), 2 on bad
// arguments.

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench_util.h"
#include "common/simd_kernels.h"
#include "datagen/clustered.h"
#include "datagen/shopping.h"
#include "eval/harness.h"
#include "loadgen.h"
#include "obs/json.h"
#include "server/net/net_server.h"
#include "server/protocol.h"
#include "server/server.h"
#include "storage/snapshot.h"
#include "traced_pipeline.h"
#include "workload_inputs.h"

namespace {

using pipebench::LayerCounts;
using pipebench::Median;
using pipebench::NamedQuery;
using pipebench::NowNs;
using pipebench::Sample;
using pipebench::ScopedSpan;
using pipebench::SpanRecorder;
using qec::obs::json::NumberToString;
using qec::obs::json::Quote;

// Set-up is repeated and its fastest repetition reported, like a
// request's cost. A single set-up runs either in a fast or in a slow phase
// of the machine (8.5 or 13.5 ms for shopping, 0.5 or 0.75 s for fig6), and
// the share of slow phases in a run varies from a quarter to nearly all,
// so the median of a run's set-ups jumps between the two. The repetitions
// are spread over the run: closed loops set up again at even intervals
// between passes, and the serving workload kServeSetUpsPerReplay times
// between replays and after the last.
constexpr size_t kShoppingSetUps = 40;  // ~13 ms each
constexpr size_t kFig6SetUps = 12;      // ~0.6 s each
// p99 needs at least ten samples beyond it.
constexpr size_t kMinPercentileSamples = 1010;
// Closed loops time every request at least this often, so that its
// fastest repetition is its cost.
constexpr size_t kMinPasses = 10;
// Serving: an offered rate well below saturation (workers under half
// busy); 2 workers + event loop + generator = 4 threads.
constexpr double kServeRate = 500.0;
constexpr size_t kServeWorkers = 2;
constexpr size_t kServeConnections = 2;
constexpr double kServeWarmupSeconds = 2.0;
// The measured window is split over this many replays of one stream, each
// on a freshly started server.
constexpr size_t kServeReplays = 5;
constexpr size_t kServeSetUpsPerReplay = 3;
constexpr double kZipfExponent = 1.0;
// EXPLAIN runs on the event-loop thread, so each one holds back the
// responses behind it; at 2% those delays make up the p99 population
// instead of sitting on its edge.
constexpr double kExplainShare = 0.02;
// A generator whose median send is later than this did not offer the
// stated rate. Stalls of the whole machine make single sends late too, but
// they delay the server alike and show in its latency instead.
constexpr double kMaxLagP50Ms = 1.0;
// The clustered corpus behind the serving snapshot.
constexpr size_t kServeDocs = 100000;
constexpr size_t kServeTopics = 64;

constexpr qec::core::ExpansionAlgorithm kAlgorithms[] = {
    qec::core::ExpansionAlgorithm::kIskr,
    qec::core::ExpansionAlgorithm::kPebc,
    qec::core::ExpansionAlgorithm::kFMeasure};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
  std::string snapshot;
  std::string prepare_snapshot;
};

bool ParseArgs(int argc, char** argv, Args* args, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      *error = "missing value for " + flag;
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        *error = "--trace takes 0 or 1";
        return false;
      }
      args->trace = value == "1";
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else if (flag == "--snapshot") {
      args->snapshot = value;
    } else if (flag == "--prepare-snapshot") {
      args->prepare_snapshot = value;
    } else {
      *error = "unknown flag " + flag;
      return false;
    }
    if (end != nullptr && (value.empty() || *end != '\0')) {
      *error = "bad number for " + flag + ": " + value;
      return false;
    }
  }
  if (!(args->seconds > 0.0)) {
    *error = "--seconds must be positive";
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Run metadata.

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000, nullptr) >= 0x80000004) {
    for (unsigned int i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    const std::string model(brand);
    const size_t first = model.find_first_not_of(' ');
    const size_t last = model.find_last_not_of(' ');
    if (first != std::string::npos) {
      return model.substr(first, last - first + 1);
    }
  }
#endif
  return "unknown";
}

std::string Compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string MetaJson() {
  return "{\"nproc\":" + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
         ",\"cpu_model\":" + Quote(CpuModel()) +
         ",\"compiler\":" + Quote(Compiler()) +
         ",\"build_type\":" + Quote(PIPEBENCH_BUILD_TYPE) +
         ",\"simd_tier\":" + Quote(qec::simd::ActiveTierName()) + "}";
}

/// Threads of this process, from /proc/self/status; -1 when unknown.
int ProcessThreads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::atoi(line.c_str() + 8);
  }
  return -1;
}

std::string JsonArray(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ",";
    out += NumberToString(values[i]);
  }
  return out + "]";
}

double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e9;
}

double MsBetween(int64_t from_ns, int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) / 1e6;
}

// ---------------------------------------------------------------------------
// Reporting.

struct Run {
  pipebench::ResultLine line;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

/// Wall and process CPU time of one request.
struct Cost {
  double ms = 0.0;
  double cpu_ms = 0.0;
};

/// Times one request: construct it just before the request, Stop() just
/// after.
class CostTimer {
 public:
  CostTimer()
      : cpu_s_(pipebench::ProcessCpuSeconds()), start_ns_(NowNs()) {}
  Cost Stop() const {
    const int64_t end_ns = NowNs();
    return {MsBetween(start_ns_, end_ns),
            (pipebench::ProcessCpuSeconds() - cpu_s_) * 1e3};
  }

 private:
  double cpu_s_;
  int64_t start_ns_;
};

/// Results of whole passes over a fixed request list. Every request is
/// timed once a pass; its cost is its fastest repetition. On a shared
/// machine other tenants slow single repetitions by up to ~1.6x, in
/// phases from milliseconds to minutes, while the fastest of many
/// repetitions stays within a few percent: it is the request's cost on a
/// quiet machine.
struct PassStats {
  /// One per timed request, in order; `ms` is the request's cost.
  std::vector<Sample> samples;
  /// Per request: the fastest repetition, and the least process CPU time.
  std::vector<double> floor_ms;
  std::vector<double> floor_cpu_ms;
  size_t passes = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

/// A single closed-loop client: runs whole passes over requests 0..n-1
/// until `seconds` have passed and at least `min_passes` passes and
/// `min_samples` requests were timed. `run_one(i, &ok)` serves request i,
/// sets whether its output matched its reference, and returns its Cost
/// (the check excluded). Between passes, `set_up()` runs `set_ups` times
/// at even intervals over the window.
template <typename Fn, typename SetUp>
PassStats RunPasses(size_t n, double seconds, size_t min_passes,
                    size_t min_samples, Fn&& run_one, size_t set_ups,
                    SetUp&& set_up) {
  PassStats stats;
  stats.floor_ms.assign(n, HUGE_VAL);
  stats.floor_cpu_ms.assign(n, HUGE_VAL);
  const int64_t start = NowNs();
  const int64_t soft_end = start + static_cast<int64_t>(seconds * 1e9);
  const int64_t hard_end =
      start + static_cast<int64_t>((3 * seconds + 60) * 1e9);
  const int64_t set_up_every =
      static_cast<int64_t>(seconds * 1e9 / static_cast<double>(set_ups + 1));
  size_t set_ups_done = 0;
  do {
    for (size_t i = 0; i < n; ++i) {
      bool ok = false;
      const Cost cost = run_one(i, &ok);
      stats.floor_ms[i] = std::min(stats.floor_ms[i], cost.ms);
      stats.floor_cpu_ms[i] = std::min(stats.floor_cpu_ms[i], cost.cpu_ms);
      stats.samples.push_back({0.0, static_cast<uint32_t>(i)});
      ++stats.attempted;
      if (!ok) ++stats.failed;
    }
    ++stats.passes;
    if (set_ups_done < set_ups &&
        NowNs() >= start + static_cast<int64_t>(set_ups_done + 1) *
                               set_up_every) {
      set_up();
      ++set_ups_done;
    }
  } while ((NowNs() < soft_end || stats.passes < min_passes ||
            stats.samples.size() < min_samples) &&
           NowNs() < hard_end);
  for (Sample& sample : stats.samples) {
    sample.ms = stats.floor_ms[sample.query];
  }
  return stats;
}

/// Requests per second of request time when every request takes its cost.
double FloorThroughput(const PassStats& stats) {
  const double total_ms =
      std::accumulate(stats.floor_ms.begin(), stats.floor_ms.end(), 0.0);
  return total_ms > 0.0
             ? static_cast<double>(stats.floor_ms.size()) / (total_ms / 1e3)
             : 0.0;
}

void Tally(const PassStats& stats, Run* run) {
  run->attempted += stats.attempted;
  run->failed += stats.failed;
}

/// p50 and p99 of `samples`, with the query behind each. p99 needs at
/// least ten samples beyond its rank.
void ReportLatency(std::vector<Sample>* samples,
                   const std::vector<std::string>& names, Run* run) {
  if (pipebench::SamplesBeyond(samples->size(), 0.99) <
      pipebench::kMinTailSamples) {
    run->line.Error("only " + std::to_string(samples->size()) +
                    " latency samples; p99 needs " +
                    std::to_string(kMinPercentileSamples));
    return;
  }
  const Sample p99 = pipebench::PercentileSample(samples, 0.99);
  const Sample p50 = pipebench::PercentileSample(samples, 0.50);
  run->line.Metric("latency_p50_ms", p50.ms, "ms");
  run->line.Metric("latency_p99_ms", p99.ms, "ms");
  run->line.Detail("samples", std::to_string(samples->size()));
  run->line.Detail("p50_query", Quote(names[p50.query]));
  run->line.Detail("p99_query", Quote(names[p99.query]));
}

/// Closed loops: throughput, CPU and latency from each request's cost.
void ReportClosedLoop(PassStats* stats, const std::vector<std::string>& names,
                      Run* run) {
  run->line.Metric("throughput_qps", FloorThroughput(*stats), "1/s");
  run->line.Metric("cpu_ms_per_query",
                   std::accumulate(stats->floor_cpu_ms.begin(),
                                   stats->floor_cpu_ms.end(), 0.0) /
                       static_cast<double>(stats->floor_cpu_ms.size()),
                   "ms");
  run->line.Detail("passes", std::to_string(stats->passes));
  ReportLatency(&stats->samples, names, run);
}

void ReportCommon(const std::vector<double>& setup_s, double set_score_mean,
                  double peak_rss_mb, Run* run) {
  run->line.Metric("setup_s",
                   *std::min_element(setup_s.begin(), setup_s.end()), "s");
  run->line.Metric(
      "success_ratio",
      run->attempted == 0
          ? 0.0
          : static_cast<double>(run->attempted - run->failed) /
                static_cast<double>(run->attempted),
      "ratio");
  run->line.Metric("set_score_mean", set_score_mean, "score");
  run->line.Metric("peak_rss_mb", peak_rss_mb, "MiB");
  run->line.Detail("setup_runs_s", JsonArray(setup_s));
}

/// Per-layer metrics of a traced run: mean self time per request that
/// entered the layer, work counts per traced request, and the share of
/// request time spent in the clustering and in the expansion layers.
void ReportLayers(const SpanRecorder& spans, const LayerCounts& counts,
                  uint64_t requests, Run* run) {
  const auto totals = spans.Totals();
  auto find = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? pipebench::SpanTotals{} : it->second;
  };
  auto self_us = [&](const char* name) {
    const pipebench::SpanTotals t = find(name);
    return t.requests == 0
               ? 0.0
               : t.self_ns / static_cast<double>(t.requests) / 1e3;
  };
  auto per = [](double value, uint64_t n) {
    return n == 0 ? 0.0 : value / static_cast<double>(n);
  };
  auto ratio = [](uint64_t part, uint64_t rest) {
    return part + rest == 0 ? 0.0
                            : static_cast<double>(part) /
                                  static_cast<double>(part + rest);
  };
  const double request_ns = find(pipebench::kSpanRequest).total_ns;
  auto share = [&](std::initializer_list<const char*> names) {
    double self = 0.0;
    for (const char* name : names) self += find(name).self_ns;
    return request_ns > 0.0 ? self / request_ns : 0.0;
  };
  pipebench::ResultLine& out = run->line;
  out.Metric("text.analyze_us", self_us(pipebench::kSpanAnalyze), "us");
  out.Metric("index.search_us", self_us(pipebench::kSpanSearch), "us");
  out.Metric("index.results", per(counts.results, requests), "count");
  out.Metric("core.universe.build_us", self_us(pipebench::kSpanUniverse),
             "us");
  out.Metric("core.universe.words", per(counts.universe_words, requests),
             "count");
  out.Metric("core.universe.memo_hit_ratio",
             ratio(counts.memo_hits, counts.memo_misses), "ratio");
  out.Metric("core.universe.scratch_reuse_ratio",
             ratio(counts.scratch_reuses, counts.scratch_allocs), "ratio");
  out.Metric("cluster.vectorize_us", self_us(pipebench::kSpanVectorize),
             "us");
  out.Metric("cluster.kmeans_us", self_us(pipebench::kSpanKMeans), "us");
  out.Metric("cluster.k_tried", per(counts.k_tried, requests), "count");
  out.Metric("cluster.k_chosen", per(counts.k_chosen, requests), "count");
  out.Metric("cluster.silhouette_us", self_us(pipebench::kSpanSilhouette),
             "us");
  out.Metric("cluster.silhouette_pairs",
             per(counts.silhouette_pairs, requests), "count");
  out.Metric("cluster.share",
             share({pipebench::kSpanVectorize, pipebench::kSpanKMeans,
                    pipebench::kSpanSilhouette}),
             "ratio");
  out.Metric("core.candidates.select_us",
             self_us(pipebench::kSpanCandidates), "us");
  out.Metric("core.candidates.count", per(counts.candidates, requests),
             "count");
  out.Metric("core.expand.iskr_us", self_us(pipebench::kSpanExpandIskr),
             "us");
  out.Metric("core.expand.pebc_us", self_us(pipebench::kSpanExpandPebc),
             "us");
  out.Metric("core.expand.fmeasure_us",
             self_us(pipebench::kSpanExpandFMeasure), "us");
  out.Metric("core.expand.candidates_evaluated",
             per(counts.candidates_evaluated, requests), "count");
  out.Metric("core.expand.iskr_steps",
             per(counts.iskr_steps, find(pipebench::kSpanExpandIskr).requests),
             "count");
  out.Metric("core.expand.pebc_samples",
             per(counts.pebc_samples,
                 find(pipebench::kSpanExpandPebc).requests),
             "count");
  out.Metric("core.share",
             share({pipebench::kSpanCandidates, pipebench::kSpanExpandIskr,
                    pipebench::kSpanExpandPebc,
                    pipebench::kSpanExpandFMeasure}),
             "ratio");
  out.Detail("traced_requests", std::to_string(requests));
  out.Detail("memo_hits", std::to_string(counts.memo_hits));
  out.Detail("memo_misses", std::to_string(counts.memo_misses));
}

void WriteSpans(const SpanRecorder& spans, const Args& args, Run* run) {
  const std::string path = args.out_dir + "/spans_" + args.workload +
                           "_seed" + std::to_string(args.seed) + ".jsonl";
  if (!spans.WriteJsonLines(path)) {
    run->line.Error("cannot write " + path);
    return;
  }
  run->line.Detail("spans_file", Quote(path));
  run->line.Detail("spans", std::to_string(spans.spans().size()));
}

// ---------------------------------------------------------------------------
// shopping_pipeline: ExpandText through the whole engine, all results.

qec::core::QueryExpanderOptions ShoppingOptions() {
  qec::core::QueryExpanderOptions options;
  options.top_k_results = 0;  // all results, the paper's shopping setting
  return options;
}

void RunShoppingPipeline(const Args& args, Run* run) {
  const qec::core::QueryExpanderOptions options = ShoppingOptions();
  std::unique_ptr<qec::index::InvertedIndex> index;
  std::unique_ptr<qec::doc::Corpus> corpus;
  std::optional<qec::core::QueryExpander> expander;
  std::vector<double> setup_s;
  auto set_up = [&] {
    expander.reset();
    index.reset();
    corpus.reset();
    const int64_t start = NowNs();
    corpus = std::make_unique<qec::doc::Corpus>(
        qec::datagen::ShoppingGenerator(pipebench::PaperScaleShopping())
            .Generate());
    index = std::make_unique<qec::index::InvertedIndex>(*corpus);
    expander.emplace(*index, options);
    setup_s.push_back(SecondsSince(start));
  };
  set_up();

  const std::vector<NamedQuery> queries =
      pipebench::ShoppingQuerySet(*index, args.seed, /*sample=*/true);
  std::vector<std::string> names;
  for (const NamedQuery& q : queries) names.push_back(q.name);
  run->line.Detail("requests_per_pass", std::to_string(queries.size()));

  // Warm-up pass: its outputs are the reference for every later pass.
  std::vector<qec::core::ExpansionOutcome> reference;
  double score_sum = 0.0;
  for (const NamedQuery& q : queries) {
    qec::Result<qec::core::ExpansionOutcome> outcome =
        expander->ExpandText(q.text);
    if (!outcome.ok()) {
      run->line.Error("query '" + q.name + "': " +
                      outcome.status().ToString());
      return;
    }
    score_sum += outcome->set_score;
    reference.push_back(std::move(*outcome));
  }
  const double set_score_mean =
      score_sum / static_cast<double>(queries.size());
  // The peak resident set of a set-up and one pass over every request.
  // The set-ups interleaved with the window rebuild on a heap that the
  // requests fragmented, which would move the peak by ~4% between runs.
  const double peak_rss_mb = pipebench::PeakRssMb();

  auto untraced = [&](size_t i, bool* ok) {
    const CostTimer timer;
    const qec::Result<qec::core::ExpansionOutcome> outcome =
        expander->ExpandText(queries[i].text);
    const Cost cost = timer.Stop();
    *ok = outcome.ok() && pipebench::SameOutcome(*outcome, reference[i]);
    return cost;
  };

  if (!args.trace) {
    PassStats stats =
        RunPasses(queries.size(), args.seconds, kMinPasses,
                  kMinPercentileSamples, untraced, kShoppingSetUps, set_up);
    Tally(stats, run);
    ReportClosedLoop(&stats, names, run);
    ReportCommon(setup_s, set_score_mean, peak_rss_mb, run);
    return;
  }

  PassStats plain = RunPasses(queries.size(), args.seconds / 2, kMinPasses,
                              0, untraced, 0, [] {});
  SpanRecorder spans;
  LayerCounts counts;
  uint64_t request = 0;
  auto traced = [&](size_t i, bool* ok) {
    const CostTimer timer;
    const qec::Result<pipebench::TracedExpansion> result = [&] {
      ScopedSpan root(&spans, pipebench::kSpanRequest, request);
      return pipebench::TracedExpandText(*index, options, queries[i].text,
                                         &spans, request);
    }();
    const Cost cost = timer.Stop();
    ++request;
    *ok = result.ok() &&
          pipebench::SameOutcome(result->outcome, reference[i]);
    if (result.ok()) counts.Add(result->counts);
    return cost;
  };
  PassStats traced_stats = RunPasses(queries.size(), args.seconds / 2,
                                    kMinPasses, 0, traced, 0, [] {});
  Tally(plain, run);
  Tally(traced_stats, run);
  ReportLayers(spans, counts, request, run);
  run->line.Metric("trace.overhead_ratio",
                   FloorThroughput(traced_stats) / FloorThroughput(plain),
                   "ratio");
  WriteSpans(spans, args, run);
}

// ---------------------------------------------------------------------------
// fig6_expand: ExpandClustered over universes clustered during set-up.

struct Fig6Input {
  std::string name;
  size_t dataset = 0;
  std::vector<qec::TermId> user_terms;
  std::vector<qec::index::RankedResult> results;
  qec::cluster::Clustering clustering;
};

struct Fig6Data {
  qec::eval::DatasetBundle datasets[2];
  std::vector<Fig6Input> inputs;
};

qec::core::QueryExpanderOptions Fig6Options(
    qec::core::ExpansionAlgorithm algorithm) {
  qec::core::QueryExpanderOptions options;
  options.algorithm = algorithm;
  options.memoize_set_algebra = true;  // the server's default
  return options;
}

/// Builds both datasets, retrieves and clusters every input: all results
/// on shopping, top-30 on Wikipedia, as fig6 does.
qec::Status BuildFig6(uint64_t seed, Fig6Data* data) {
  *data = Fig6Data();
  data->datasets[0] =
      qec::eval::MakeShoppingBundle(pipebench::PaperScaleShopping());
  data->datasets[1] = qec::eval::MakeWikipediaBundle();
  auto add = [&](size_t dataset, const std::string& name,
                 const std::string& text, size_t top_k) -> qec::Status {
    const qec::eval::DatasetBundle& bundle = data->datasets[dataset];
    qec::Result<qec::eval::QueryCase> query_case =
        qec::eval::PrepareQueryCase(bundle, text, top_k);
    if (!query_case.ok()) return query_case.status();
    data->inputs.push_back(
        {name, dataset, query_case->user_terms,
         bundle.index->Search(query_case->user_terms, top_k),
         std::move(query_case->clustering)});
    return qec::Status::Ok();
  };
  // The whole df band: every term expands with all three algorithms, and
  // the median falls between the ISKR/PEBC and the F-measure requests, so
  // leaving terms out would move p50 with the seed.
  for (const NamedQuery& q : pipebench::ShoppingQuerySet(
           *data->datasets[0].index, seed, /*sample=*/false)) {
    QEC_RETURN_IF_ERROR(add(0, q.name, q.text, 0));
  }
  for (const auto& q : data->datasets[1].queries) {
    QEC_RETURN_IF_ERROR(add(1, q.id, q.text, 30));
  }
  return qec::Status::Ok();
}

/// A new universe over the input's results with its own set-algebra memo,
/// as the engine builds one for every request (QueryExpander::Expand), so
/// the memo only reuses what one request computes.
std::unique_ptr<qec::core::ResultUniverse> FreshUniverse(
    const Fig6Data& data, const Fig6Input& input) {
  auto universe = std::make_unique<qec::core::ResultUniverse>(
      *data.datasets[input.dataset].corpus, input.results);
  universe->EnableSetAlgebraCache();
  return universe;
}

void RunFig6Expand(const Args& args, Run* run) {
  Fig6Data data;
  // expanders[dataset * 3 + algorithm]
  std::vector<qec::core::QueryExpander> expanders;
  std::vector<double> setup_s;
  auto set_up = [&] {
    expanders.clear();
    const int64_t start = NowNs();
    const qec::Status built = BuildFig6(args.seed, &data);
    if (!built.ok()) {
      run->line.Error("set-up: " + built.ToString());
      return false;
    }
    for (const qec::eval::DatasetBundle& dataset : data.datasets) {
      for (qec::core::ExpansionAlgorithm algorithm : kAlgorithms) {
        expanders.emplace_back(*dataset.index, Fig6Options(algorithm));
      }
    }
    setup_s.push_back(SecondsSince(start));
    return true;
  };
  if (!set_up()) return;
  // Request j expands input j / 3 with algorithm j % 3. Each request gets
  // a fresh universe, built before its timer starts.
  const size_t n = data.inputs.size() * 3;
  std::vector<std::string> names;
  for (const Fig6Input& input : data.inputs) {
    for (qec::core::ExpansionAlgorithm algorithm : kAlgorithms) {
      names.push_back(input.name + "/" +
                      std::string(qec::core::AlgorithmName(algorithm)));
    }
  }
  auto expander_of = [&](size_t j) -> const qec::core::QueryExpander& {
    return expanders[data.inputs[j / 3].dataset * 3 + j % 3];
  };
  run->line.Detail("requests_per_pass", std::to_string(n));

  std::vector<qec::core::ExpansionOutcome> reference;
  double score_sum = 0.0;
  for (size_t j = 0; j < n; ++j) {
    const Fig6Input& input = data.inputs[j / 3];
    reference.push_back(expander_of(j).ExpandClustered(
        input.user_terms, *FreshUniverse(data, input), input.clustering));
    score_sum += reference.back().set_score;
  }
  const double set_score_mean = score_sum / static_cast<double>(n);
  const double peak_rss_mb = pipebench::PeakRssMb();  // as for shopping

  auto untraced = [&](size_t j, bool* ok) {
    const Fig6Input& input = data.inputs[j / 3];
    const auto universe = FreshUniverse(data, input);
    const CostTimer timer;
    const qec::core::ExpansionOutcome outcome = expander_of(j).ExpandClustered(
        input.user_terms, *universe, input.clustering);
    const Cost cost = timer.Stop();
    *ok = pipebench::SameOutcome(outcome, reference[j]);
    return cost;
  };

  if (!args.trace) {
    PassStats stats =
        RunPasses(n, args.seconds, kMinPasses, kMinPercentileSamples,
                  untraced, kFig6SetUps, set_up);
    Tally(stats, run);
    ReportClosedLoop(&stats, names, run);
    ReportCommon(setup_s, set_score_mean, peak_rss_mb, run);
    return;
  }

  PassStats plain =
      RunPasses(n, args.seconds / 2, kMinPasses, 0, untraced, 0, [] {});
  SpanRecorder spans;
  LayerCounts counts;
  uint64_t request = 0;
  auto traced = [&](size_t j, bool* ok) {
    const Fig6Input& input = data.inputs[j / 3];
    const auto universe = FreshUniverse(data, input);
    const CostTimer timer;
    qec::core::ExpansionOutcome outcome;
    {
      ScopedSpan root(&spans, pipebench::kSpanRequest, request);
      outcome = pipebench::TracedExpandClustered(
          *data.datasets[input.dataset].index, expander_of(j).options(),
          input.user_terms, *universe, input.clustering, &spans, request,
          &counts);
    }
    const Cost cost = timer.Stop();
    ++request;
    *ok = pipebench::SameOutcome(outcome, reference[j]);
    return cost;
  };
  PassStats traced_stats =
      RunPasses(n, args.seconds / 2, kMinPasses, 0, traced, 0, [] {});
  Tally(plain, run);
  Tally(traced_stats, run);
  ReportLayers(spans, counts, request, run);
  run->line.Metric("trace.overhead_ratio",
                   FloorThroughput(traced_stats) / FloorThroughput(plain),
                   "ratio");
  WriteSpans(spans, args, run);
}

// ---------------------------------------------------------------------------
// serve_open_zipf: open loop against NetServer + QecServer over a snapshot.

qec::server::ServerOptions ServeOptions() {
  qec::server::ServerOptions options;
  options.num_threads = kServeWorkers;
  return options;
}

/// What a plain EXPAND request runs with (QecServer::EffectiveOptions).
qec::core::QueryExpanderOptions ServeExpanderOptions() {
  const qec::server::ServerOptions options = ServeOptions();
  qec::core::QueryExpanderOptions expander = options.expander;
  expander.memoize_set_algebra = options.enable_set_algebra_cache;
  return expander;
}

int PrepareSnapshot(const std::string& path) {
  qec::datagen::ClusteredOptions options;
  options.num_docs = kServeDocs;
  options.num_clusters = kServeTopics;
  const qec::doc::Corpus corpus =
      qec::datagen::ClusteredGenerator(options).Generate();
  const qec::index::InvertedIndex index(corpus);
  const std::string tmp = path + ".tmp";
  const qec::Status written = qec::storage::WriteSnapshot(index, tmp);
  if (!written.ok()) {
    std::fprintf(stderr, "pipebench_driver: %s\n",
                 written.ToString().c_str());
    return 1;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::perror("pipebench_driver: rename");
    return 1;
  }
  return 0;
}

/// Corpus, index, server and front end, torn down front end first.
struct ServeStack {
  std::unique_ptr<qec::doc::Corpus> corpus;
  std::unique_ptr<qec::index::InvertedIndex> index;
  std::unique_ptr<qec::server::QecServer> server;
  std::unique_ptr<qec::server::net::NetServer> net;

  ServeStack() = default;
  ServeStack(const ServeStack&) = delete;
  ServeStack& operator=(const ServeStack&) = delete;
  ~ServeStack() { Reset(); }

  void Reset() {
    net.reset();
    server.reset();
    index.reset();
    corpus.reset();
  }
};

struct StorageTimes {
  double read_s = 0.0;
  double load_corpus_s = 0.0;
  double load_index_s = 0.0;
};

/// The serving set-up: load the snapshot and start serving it.
qec::Status StartServeStack(const std::string& snapshot, ServeStack* stack,
                            StorageTimes* times) {
  const int64_t t0 = NowNs();
  qec::Result<std::string> blob = qec::storage::ReadSnapshotBlob(snapshot);
  if (!blob.ok()) return blob.status();
  const int64_t t1 = NowNs();
  qec::Result<qec::storage::SnapshotReader> reader =
      qec::storage::SnapshotReader::Open(*blob);
  if (!reader.ok()) return reader.status();
  qec::Result<qec::doc::Corpus> corpus = reader->LoadCorpus();
  if (!corpus.ok()) return corpus.status();
  stack->corpus = std::make_unique<qec::doc::Corpus>(std::move(*corpus));
  const int64_t t2 = NowNs();
  qec::Result<qec::index::InvertedIndex> index =
      reader->LoadIndex(*stack->corpus);
  if (!index.ok()) return index.status();
  stack->index =
      std::make_unique<qec::index::InvertedIndex>(std::move(*index));
  if (reader->HasSection(qec::storage::kSectionPerm)) {
    qec::Result<std::vector<qec::DocId>> perm = reader->ReadPermutation();
    if (!perm.ok()) return perm.status();
    stack->index->SetExternalIds(std::move(*perm));
  }
  const int64_t t3 = NowNs();
  stack->server = std::make_unique<qec::server::QecServer>(*stack->index,
                                                           ServeOptions());
  stack->net =
      std::make_unique<qec::server::net::NetServer>(stack->server.get());
  QEC_RETURN_IF_ERROR(stack->net->Start());
  times->read_s = static_cast<double>(t1 - t0) / 1e9;
  times->load_corpus_s = static_cast<double>(t2 - t1) / 1e9;
  times->load_index_s = static_cast<double>(t3 - t2) / 1e9;
  return qec::Status::Ok();
}

/// The number after `key` at or after `from` in `line`; NaN when absent.
double NumberAfter(const std::string& line, const std::string& key,
                   size_t from = 0) {
  const size_t pos = from == std::string::npos ? from : line.find(key, from);
  if (pos == std::string::npos) return std::nan("");
  return std::strtod(line.c_str() + pos + key.size(), nullptr);
}

/// Drops the value of every `"key":<number>` field (volatile timings).
std::string EraseNumbers(std::string line, const std::string& key) {
  for (size_t pos = line.find(key); pos != std::string::npos;
       pos = line.find(key, pos + key.size())) {
    size_t end = pos + key.size();
    while (end < line.size() &&
           std::strchr("0123456789.-+eE", line[end]) != nullptr) {
      ++end;
    }
    line.erase(pos + key.size(), end - pos - key.size());
  }
  return line;
}

bool IsOk(const std::string& response) {
  return response.rfind("{\"status\":\"ok\"", 0) == 0;
}

void RunServeOpenZipf(const Args& args, Run* run) {
  if (args.snapshot.empty()) {
    run->line.Error("serve_open_zipf needs --snapshot");
    return;
  }
  ServeStack stack;
  std::vector<double> setup_s, read_s, load_corpus_s, load_index_s;
  auto set_up = [&] {
    stack.Reset();
    StorageTimes times;
    const int64_t start = NowNs();
    const qec::Status started = StartServeStack(args.snapshot, &stack, &times);
    if (!started.ok()) run->line.Error("set-up: " + started.ToString());
    setup_s.push_back(SecondsSince(start));
    read_s.push_back(times.read_s);
    load_corpus_s.push_back(times.load_corpus_s);
    load_index_s.push_back(times.load_index_s);
    return started.ok();
  };
  if (!set_up()) return;
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  const int threads = ProcessThreads();
  run->line.Detail("threads", std::to_string(threads));
  if (threads > nproc) {
    run->line.Error("the process runs " + std::to_string(threads) +
                    " threads on " + std::to_string(nproc) + " processors");
  }

  // The request stream of every replay: warm-up, STATS, measured window,
  // STATS.
  const std::vector<std::string> universe =
      pipebench::ClusteredQueryUniverse(*stack.index);
  const size_t warmup =
      static_cast<size_t>(std::llround(kServeRate * kServeWarmupSeconds));
  const size_t measured = static_cast<size_t>(std::llround(
      kServeRate * args.seconds / static_cast<double>(kServeReplays)));
  const std::vector<pipebench::StreamEntry> stream = pipebench::ZipfStream(
      universe.size(), warmup + measured, kZipfExponent, kExplainShare,
      args.seed);
  std::vector<std::string> lines;
  std::vector<int64_t> entry_of;  // stream index per line; -1 = STATS
  for (size_t i = 0; i < stream.size(); ++i) {
    if (i == warmup) {
      lines.push_back("STATS");
      entry_of.push_back(-1);
    }
    lines.push_back(std::string(stream[i].explain ? "EXPLAIN" : "EXPAND") +
                    " -- " + universe[stream[i].query]);
    entry_of.push_back(static_cast<int64_t>(i));
  }
  lines.push_back("STATS");
  entry_of.push_back(-1);
  const size_t first_measured = warmup + 1;
  const size_t end_measured = first_measured + measured;
  run->line.Detail("distinct_queries", std::to_string(universe.size()));
  run->line.Detail("offered_rate_per_s", NumberToString(kServeRate));
  run->line.Detail("replays", std::to_string(kServeReplays));

  // References: QueryExpander with the server's effective options for
  // EXPAND, ExplainJsonLine called directly for EXPLAIN. Computing the
  // EXPAND references is also the untraced replay of the traced run.
  const qec::core::QueryExpanderOptions expander_options =
      ServeExpanderOptions();
  std::vector<uint32_t> expand_queries, explain_queries;
  for (const pipebench::StreamEntry& e : stream) {
    (e.explain ? explain_queries : expand_queries).push_back(e.query);
  }
  for (std::vector<uint32_t>* list : {&expand_queries, &explain_queries}) {
    std::sort(list->begin(), list->end());
    list->erase(std::unique(list->begin(), list->end()), list->end());
  }
  std::unordered_map<uint32_t, qec::core::ExpansionOutcome> reference;
  const int64_t replay_start = NowNs();
  {
    const qec::core::QueryExpander reference_expander(*stack.index,
                                                      expander_options);
    for (uint32_t q : expand_queries) {
      qec::Result<qec::core::ExpansionOutcome> outcome =
          reference_expander.ExpandText(universe[q]);
      if (!outcome.ok()) {
        run->line.Error("query '" + universe[q] +
                        "': " + outcome.status().ToString());
        return;
      }
      reference.emplace(q, std::move(*outcome));
    }
  }
  const double replay_plain_s = SecondsSince(replay_start);
  std::unordered_map<uint32_t, std::string> reference_tail;
  for (const auto& [q, outcome] : reference) {
    reference_tail.emplace(q, qec::server::RenderOutcomeTail(outcome));
  }
  std::unordered_map<uint32_t, std::string> reference_explain;
  for (uint32_t q : explain_queries) {
    qec::Result<qec::server::ServeRequest> request =
        qec::server::ParseRequestLine("EXPLAIN -- " + universe[q]);
    if (!request.ok()) {
      run->line.Error("cannot parse EXPLAIN for '" + universe[q] + "'");
      return;
    }
    reference_explain.emplace(
        q, EraseNumbers(stack.server->ExplainJsonLine(*request),
                        "\"expansion_ms\":"));
  }
  double score_sum = 0.0;
  uint64_t scored = 0;
  for (size_t r = first_measured; r < end_measured; ++r) {
    const pipebench::StreamEntry& e = stream[static_cast<size_t>(entry_of[r])];
    if (e.explain) continue;
    score_sum += reference.at(e.query).set_score;
    ++scored;
  }

  // Replays of the same stream, every response checked. The first runs on
  // the server started above; before each later one, set-up runs again
  // kServeSetUpsPerReplay times and the last server started serves it. A
  // request's latency is its fastest replay, as a closed loop's request
  // cost is its fastest pass. The peak resident set is taken after the
  // first replay: the later set-ups rebuild the server on a heap that
  // worker threads fragmented, which moves the peak by ~10% between runs.
  std::vector<double> floor_ms(lines.size(), HUGE_VAL);
  std::vector<char> floor_hit(lines.size(), 0);
  std::vector<double> throughput, cpu_ms;
  std::vector<Sample> lag;
  std::string first_mismatch;
  // Server-layer sums over measured EXPAND lines (stages_ms), EXPLAIN
  // lines and the STATS verb.
  double queue_us = 0.0, lookup_us = 0.0, transport_us = 0.0;
  double miss_expansion_ms = 0.0, explain_ms = 0.0;
  double hits = 0.0, lookups = 0.0, shed = 0.0;
  uint64_t expands = 0, misses = 0, explains = 0;
  auto shed_of = [](const std::string& stats) {
    return NumberAfter(stats, "\"shed_queue_full\":") +
           NumberAfter(stats, "\"shed_deadline\":");
  };
  double peak_rss_mb = 0.0;
  for (size_t replay = 0; replay < kServeReplays; ++replay) {
    for (size_t i = 0; replay > 0 && i < kServeSetUpsPerReplay; ++i) {
      if (!set_up()) return;
    }
    pipebench::OpenLoopOptions load;
    load.port = stack.net->port();
    load.rate_per_second = kServeRate;
    load.connections = kServeConnections;
    load.cpu_mark = first_measured;
    const pipebench::OpenLoopRun result = pipebench::RunOpenLoop(lines, load);
    if (!result.error.empty()) {
      run->line.Error("load generator: " + result.error);
    }
    uint64_t measured_done = 0;
    int64_t window_end = 0;
    for (size_t r = 0; r < lines.size(); ++r) {
      const pipebench::OpenLoopRecord& rec = result.records[r];
      if (rec.sent_ns >= 0) {
        lag.push_back({MsBetween(rec.due_ns, rec.sent_ns), 0});
      }
      if (entry_of[r] < 0) continue;
      const pipebench::StreamEntry& e =
          stream[static_cast<size_t>(entry_of[r])];
      bool ok = rec.done_ns >= 0 && IsOk(rec.response);
      if (ok && e.explain) {
        ok = EraseNumbers(rec.response, "\"expansion_ms\":") ==
             reference_explain[e.query];
      } else if (ok) {
        const size_t tail = rec.response.find(",\"clusters\":");
        ok = tail != std::string::npos &&
             rec.response.compare(tail, std::string::npos,
                                  reference_tail[e.query]) == 0;
      }
      ++run->attempted;
      if (!ok) {
        ++run->failed;
        if (first_mismatch.empty()) {
          first_mismatch = lines[r] + " -> " + rec.response.substr(0, 300);
        }
      }
      if (r < first_measured || r >= end_measured || rec.done_ns < 0) {
        continue;
      }
      ++measured_done;
      window_end = std::max(window_end, rec.done_ns);
      const double client_ms = MsBetween(rec.sent_ns, rec.done_ns);
      if (e.explain) {
        explain_ms += client_ms;
        ++explains;
        continue;
      }
      const bool hit =
          rec.response.find("\"cached\":true") != std::string::npos;
      const double ms = MsBetween(rec.due_ns, rec.done_ns);
      if (ms < floor_ms[r]) {
        floor_ms[r] = ms;
        floor_hit[r] = hit;
      }
      const size_t stages = rec.response.find("\"stages_ms\":{");
      const double queue =
          NumberAfter(rec.response, "\"queue_wait\":", stages);
      const double lookup =
          NumberAfter(rec.response, "\"cache_lookup\":", stages);
      const double expansion =
          NumberAfter(rec.response, "\"expansion\":", stages);
      const double serialize =
          NumberAfter(rec.response, "\"serialize\":", stages);
      queue_us += queue * 1e3;
      lookup_us += lookup * 1e3;
      transport_us +=
          (client_ms - (queue + lookup + expansion + serialize)) * 1e3;
      ++expands;
      if (!hit) {
        miss_expansion_ms += expansion;
        ++misses;
      }
    }
    const double window_s =
        static_cast<double>(window_end -
                            result.records[first_measured].due_ns) /
        1e9;
    throughput.push_back(
        window_s > 0.0 ? static_cast<double>(measured_done) / window_s : 0.0);
    cpu_ms.push_back(measured_done == 0
                         ? 0.0
                         : (result.cpu_at_end - result.cpu_at_mark) * 1e3 /
                               static_cast<double>(measured_done));
    const std::string& stats_before = result.records[warmup].response;
    const std::string& stats_after = result.records.back().response;
    const double replay_hits = NumberAfter(stats_after, "\"hits\":") -
                               NumberAfter(stats_before, "\"hits\":");
    hits += replay_hits;
    lookups += replay_hits + NumberAfter(stats_after, "\"misses\":") -
               NumberAfter(stats_before, "\"misses\":");
    shed += shed_of(stats_after) - shed_of(stats_before);
    if (replay == 0) peak_rss_mb = pipebench::PeakRssMb();
  }
  if (!first_mismatch.empty()) {
    run->line.Error("output mismatch: " + first_mismatch);
  }
  const double lag_p50_ms =
      lag.empty() ? 0.0 : pipebench::PercentileSample(&lag, 0.50).ms;
  const double lag_p99_ms =
      lag.empty() ? 0.0 : pipebench::PercentileSample(&lag, 0.99).ms;
  run->line.Detail("lag_p50_ms", NumberToString(lag_p50_ms));
  run->line.Detail("lag_p99_ms", NumberToString(lag_p99_ms));
  run->line.Detail("lag_max_ms",
                   NumberToString(lag.empty() ? 0.0 : lag.back().ms));
  if (lag_p50_ms > kMaxLagP50Ms) {
    run->line.Error("invalid run: the load generator fell behind its "
                    "schedule (median lag " +
                    std::to_string(lag_p50_ms) + " ms)");
  }

  if (!args.trace) {
    std::vector<Sample> latency;
    std::vector<std::string> names(2 * universe.size());
    for (size_t q = 0; q < universe.size(); ++q) {
      names[q] = universe[q] + " (hit)";
      names[universe.size() + q] = universe[q] + " (miss)";
    }
    for (size_t r = first_measured; r < end_measured; ++r) {
      if (floor_ms[r] == HUGE_VAL) continue;  // EXPLAIN or unanswered
      const uint32_t q = stream[static_cast<size_t>(entry_of[r])].query;
      latency.push_back(
          {floor_ms[r], static_cast<uint32_t>(
                            floor_hit[r] ? q : universe.size() + q)});
    }
    run->line.Metric("throughput_qps", Median(throughput), "1/s");
    run->line.Metric("cpu_ms_per_query",
                     *std::min_element(cpu_ms.begin(), cpu_ms.end()), "ms");
    ReportLatency(&latency, names, run);
    for (size_t i = 0; i < kServeSetUpsPerReplay; ++i) {
      if (!set_up()) return;
    }
    ReportCommon(setup_s,
                 scored == 0 ? 0.0 : score_sum / static_cast<double>(scored),
                 peak_rss_mb, run);
    return;
  }

  // Traced run: the server layer from each response's stages_ms and the
  // STATS verb, then the pipeline layers from a traced replay of every
  // distinct EXPAND query (what each one costs as a miss).
  auto per = [](double value, uint64_t n) {
    return n == 0 ? 0.0 : value / static_cast<double>(n);
  };
  run->line.Metric("server.queue_wait_us", per(queue_us, expands), "us");
  run->line.Metric("server.cache_lookup_us", per(lookup_us, expands), "us");
  run->line.Metric("server.expansion_ms", per(miss_expansion_ms, misses),
                   "ms");
  run->line.Metric("server.cache_hit_ratio",
                   lookups > 0.0 ? hits / lookups : 0.0, "ratio");
  run->line.Metric("server.shed", shed, "count");
  run->line.Metric("server.explain_ms", per(explain_ms, explains), "ms");
  run->line.Metric("server.net.transport_us", per(transport_us, expands),
                   "us");
  run->line.Metric("storage.read_s", Median(read_s), "s");
  run->line.Metric("storage.load_corpus_s", Median(load_corpus_s), "s");
  run->line.Metric("storage.load_index_s", Median(load_index_s), "s");
  run->line.Metric("loadgen.lag_p99_ms", lag_p99_ms, "ms");
  run->line.Metric("loadgen.sent", static_cast<double>(lag.size()), "count");

  SpanRecorder spans;
  LayerCounts counts;
  uint64_t request = 0;
  const int64_t traced_start = NowNs();
  for (uint32_t q : expand_queries) {
    const qec::Result<pipebench::TracedExpansion> traced = [&] {
      ScopedSpan root(&spans, pipebench::kSpanRequest, request);
      return pipebench::TracedExpandText(*stack.index, expander_options,
                                         universe[q], &spans, request);
    }();
    ++request;
    ++run->attempted;
    if (!traced.ok() ||
        !pipebench::SameOutcome(traced->outcome, reference.at(q))) {
      ++run->failed;
      run->line.Error("traced replay differs on '" + universe[q] + "'");
      continue;
    }
    counts.Add(traced->counts);
  }
  const double replay_traced_s = SecondsSince(traced_start);
  ReportLayers(spans, counts, request, run);
  run->line.Metric("trace.overhead_ratio",
                   replay_traced_s > 0.0 ? replay_plain_s / replay_traced_s
                                         : 0.0,
                   "ratio");
  WriteSpans(spans, args, run);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  std::string error;
  if (!ParseArgs(argc, argv, &args, &error)) {
    std::fprintf(stderr, "pipebench_driver: %s\n", error.c_str());
    return 2;
  }
  if (!args.prepare_snapshot.empty()) {
    return PrepareSnapshot(args.prepare_snapshot);
  }

  Run run;
  if (args.workload == "shopping_pipeline") {
    RunShoppingPipeline(args, &run);
  } else if (args.workload == "fig6_expand") {
    RunFig6Expand(args, &run);
  } else if (args.workload == "serve_open_zipf") {
    RunServeOpenZipf(args, &run);
  } else {
    std::fprintf(stderr, "pipebench_driver: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  run.line.Detail("meta", MetaJson());
  std::printf("%s\n", run.line.Render(run.attempted, run.failed).c_str());
  std::fflush(stdout);
  return run.line.has_errors() || run.failed > 0 ? 1 : 0;
}
