// Microbenchmarks (google-benchmark) for the individual components: index
// build and ranked search (a Wikipedia term and a serving-corpus topic
// term), k-means clustering (fixed and auto-k), the silhouette,
// result-universe construction, the three expansion algorithms, bitset
// algebra, and XML parsing.
//
// Also hosts the fused-kernel CI gate: `--kernel-gate[=metrics.json]` times
// the fused single-pass set-algebra kernels against the naive
// materialize-then-count/weigh formulation they replaced (1.3x bar) and
// writes the measurements as JSON.
//
// `--sweep-report[=metrics.json]` measures the scatter-gather benefit/cost
// sweeps (core::SweepOptions::threads) against the serial sweep on a
// clustered datagen corpus and reports end-to-end expansion speedups as
// JSON (report-only, no gate — results are byte-identical either way,
// which the test suite asserts).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cosine_space.h"
#include "cluster/kmeans.h"
#include "common/dynamic_bitset.h"
#include "common/random.h"
#include "core/candidates.h"
#include "core/expansion_context.h"
#include "core/fmeasure_expander.h"
#include "core/iskr.h"
#include "core/metrics.h"
#include "core/pebc.h"
#include "core/result_universe.h"
#include "datagen/clustered.h"
#include "datagen/shopping.h"
#include "datagen/wikipedia.h"
#include "doc/corpus.h"
#include "eval/harness.h"
#include "index/inverted_index.h"
#include "xml/xml.h"

namespace {

const qec::eval::DatasetBundle& WikiBundle() {
  static auto* bundle = [] {
    qec::datagen::WikipediaOptions options;
    options.docs_per_sense = 20;
    options.background_docs = 100;
    return new qec::eval::DatasetBundle(
        qec::eval::MakeWikipediaBundle(options));
  }();
  return *bundle;
}

void BM_IndexBuild(benchmark::State& state) {
  auto corpus = qec::datagen::ShoppingGenerator().Generate();
  for (auto _ : state) {
    qec::index::InvertedIndex index(corpus);
    benchmark::DoNotOptimize(index.DocumentFrequency(0));
  }
}
BENCHMARK(BM_IndexBuild);

void BM_SearchTopK(benchmark::State& state) {
  const auto& bundle = WikiBundle();
  auto terms = bundle.corpus->analyzer().AnalyzeReadOnly("java");
  for (auto _ : state) {
    auto results = bundle.index->Search(terms, 30);
    benchmark::DoNotOptimize(results);
  }
}
BENCHMARK(BM_SearchTopK);

// A topic term of the 100k-doc serving corpus (`clustered:100000:64`, the
// pipebench serve_open_zipf snapshot): ~950 matches ranked to the server's
// default top 30.
void BM_SearchTopKTopicTerm(benchmark::State& state) {
  static const auto* corpus =
      new qec::doc::Corpus(qec::datagen::ClusteredGenerator().Generate());
  static const auto* index = new qec::index::InvertedIndex(*corpus);
  const auto terms = corpus->analyzer().AnalyzeReadOnly("c48t8");
  for (auto _ : state) {
    auto results = index->Search(terms, 30);
    benchmark::DoNotOptimize(results);
  }
  state.counters["matches"] =
      static_cast<double>(index->DocumentFrequency(terms.at(0)));
}
BENCHMARK(BM_SearchTopKTopicTerm);

void BM_KMeansCluster(benchmark::State& state) {
  const auto& bundle = WikiBundle();
  auto results =
      bundle.index->Search(bundle.corpus->analyzer().AnalyzeReadOnly("java"),
                           static_cast<size_t>(state.range(0)));
  std::vector<qec::cluster::SparseVector> vectors;
  for (const auto& r : results) {
    vectors.push_back(
        qec::cluster::SparseVector::FromDocument(bundle.corpus->Get(r.doc)));
  }
  qec::cluster::KMeansOptions options;
  options.k = 5;
  for (auto _ : state) {
    auto clustering = qec::cluster::KMeans(options).Cluster(vectors);
    benchmark::DoNotOptimize(clustering);
  }
}
BENCHMARK(BM_KMeansCluster)->Arg(10)->Arg(30);

// The first `n` results, in rank order, of the term with the most results
// in fig6's shopping catalog (products_per_family = 30). shopping_pipeline
// retrieves 108 results per query on average; its largest query,
// `resolution`, retrieves 390 and sets its p99.
std::vector<qec::cluster::SparseVector> ShoppingVectors(size_t n) {
  static const auto* vectors = [] {
    qec::datagen::ShoppingOptions options;
    options.products_per_family = 30;
    const auto corpus = qec::datagen::ShoppingGenerator(options).Generate();
    const qec::index::InvertedIndex index(corpus);
    qec::TermId best = 0;
    for (qec::TermId t = 0; t < corpus.analyzer().vocabulary().size(); ++t) {
      if (index.DocumentFrequency(t) > index.DocumentFrequency(best)) best = t;
    }
    auto* out = new std::vector<qec::cluster::SparseVector>();
    for (const auto& r : index.Search({best})) {
      out->push_back(
          qec::cluster::SparseVector::FromDocument(corpus.Get(r.doc)));
    }
    return out;
  }();
  return {vectors->begin(),
          vectors->begin() + static_cast<long>(std::min(n, vectors->size()))};
}

// The engine's default clustering: k-means for every k <= 5, the best mean
// silhouette kept.
void BM_KMeansAutoK(benchmark::State& state) {
  const auto vectors = ShoppingVectors(static_cast<size_t>(state.range(0)));
  qec::cluster::KMeansOptions options;
  options.k = 5;
  options.auto_k = true;
  for (auto _ : state) {
    auto clustering = qec::cluster::KMeans(options).Cluster(vectors);
    benchmark::DoNotOptimize(clustering);
  }
}
BENCHMARK(BM_KMeansAutoK)->Arg(108)->Arg(300)->Arg(390);

void BM_MeanSilhouette(benchmark::State& state) {
  const auto vectors = ShoppingVectors(static_cast<size_t>(state.range(0)));
  qec::cluster::KMeansOptions options;
  options.k = 5;
  const auto clustering = qec::cluster::KMeans(options).Cluster(vectors);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        qec::cluster::MeanSilhouette(vectors, clustering));
  }
}
BENCHMARK(BM_MeanSilhouette)->Arg(108)->Arg(300)->Arg(390);

// Auto-k's scoring step alone: BM_KMeansAutoK's k = 2..5 candidates (fixed
// k from the same seed) scored from cluster sums.
void BM_MeanSilhouettesFromSums(benchmark::State& state) {
  const auto vectors = ShoppingVectors(static_cast<size_t>(state.range(0)));
  std::vector<qec::cluster::Clustering> candidates;
  for (size_t k = 2; k <= 5; ++k) {
    qec::cluster::KMeansOptions options;
    options.k = k;
    candidates.push_back(qec::cluster::KMeans(options).Cluster(vectors));
  }
  const qec::cluster::TermRows rows = qec::cluster::RowsOf(vectors);
  const qec::cluster::CosineSpace space(rows);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        qec::cluster::MeanSilhouettesFromSums(space, candidates));
  }
}
BENCHMARK(BM_MeanSilhouettesFromSums)->Arg(108)->Arg(300)->Arg(390);

void BM_UniverseBuild(benchmark::State& state) {
  const auto& bundle = WikiBundle();
  auto results = bundle.index->Search(
      bundle.corpus->analyzer().AnalyzeReadOnly("java"), 30);
  for (auto _ : state) {
    qec::core::ResultUniverse universe(*bundle.corpus, results);
    benchmark::DoNotOptimize(universe.size());
  }
}
BENCHMARK(BM_UniverseBuild);

struct ExpansionSetup {
  std::unique_ptr<qec::core::ResultUniverse> universe;
  qec::core::ExpansionContext context;
};

ExpansionSetup MakeExpansionSetup() {
  const auto& bundle = WikiBundle();
  auto qc_result = qec::eval::PrepareQueryCase(bundle, "java");
  auto& qc = *qc_result;
  auto candidates = qec::core::SelectCandidates(*qc.universe, *bundle.index,
                                                qc.user_terms, {});
  auto members = qc.clustering.Members();
  qec::DynamicBitset bits = qc.universe->EmptySet();
  for (size_t i : members[0]) bits.Set(i);
  ExpansionSetup setup;
  setup.context = qec::core::MakeContext(*qc.universe, qc.user_terms,
                                         std::move(bits), candidates);
  setup.universe = std::move(qc.universe);
  setup.context.universe = setup.universe.get();
  return setup;
}

void BM_IskrExpand(benchmark::State& state) {
  auto setup = MakeExpansionSetup();
  for (auto _ : state) {
    auto r = qec::core::IskrExpander().Expand(setup.context);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_IskrExpand);

void BM_PebcExpand(benchmark::State& state) {
  auto setup = MakeExpansionSetup();
  for (auto _ : state) {
    auto r = qec::core::PebcExpander().Expand(setup.context);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_PebcExpand);

void BM_FMeasureExpand(benchmark::State& state) {
  auto setup = MakeExpansionSetup();
  for (auto _ : state) {
    auto r = qec::core::FMeasureExpander().Expand(setup.context);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_FMeasureExpand);

// ----------------------------------------------------- fused vs naive --

struct KernelSetup {
  std::unique_ptr<qec::doc::Corpus> corpus;
  std::unique_ptr<qec::core::ResultUniverse> universe;
  /// a = retrieved R(q), b = docs with candidate keyword k, c = other
  /// clusters U, d = target cluster C (complement of c, as in a real
  /// expansion context). Densities mirror the ISKR inner loop: docs_k
  /// covers most of the retrieved set, so few bits survive a & ~b.
  qec::DynamicBitset a, b, c, d;

  explicit KernelSetup(size_t bits)
      : a(bits), b(bits), c(bits), d(bits) {
    qec::Rng rng(42);
    corpus = std::make_unique<qec::doc::Corpus>();
    std::vector<qec::index::RankedResult> results;
    for (size_t i = 0; i < bits; ++i) {
      qec::DocId id = corpus->AddTextDocument(std::to_string(i), "t");
      results.push_back({id, 0.05 + rng.UniformDouble() * 4.0});
    }
    universe = std::make_unique<qec::core::ResultUniverse>(*corpus, results);
    for (size_t i = 0; i < bits; ++i) {
      if (rng.Bernoulli(0.4)) a.Set(i);
      if (rng.Bernoulli(0.9)) b.Set(i);
      if (rng.Bernoulli(0.55)) {
        c.Set(i);
      } else {
        d.Set(i);
      }
    }
  }
};

void BM_WeightOfAndNotAndFused(benchmark::State& state) {
  KernelSetup s(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.universe->WeightOfAndNotAnd(s.a, s.b, s.c));
  }
}
BENCHMARK(BM_WeightOfAndNotAndFused)->Arg(512)->Arg(4096);

void BM_WeightOfAndNotAndNaive(benchmark::State& state) {
  KernelSetup s(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    qec::DynamicBitset t = s.a;
    t.AndNot(s.b);
    t &= s.c;
    benchmark::DoNotOptimize(s.universe->TotalWeight(t));
  }
}
BENCHMARK(BM_WeightOfAndNotAndNaive)->Arg(512)->Arg(4096);

void BM_AndNotAndCountFused(benchmark::State& state) {
  KernelSetup s(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.a.AndNotAndCount(s.b, s.c));
  }
}
BENCHMARK(BM_AndNotAndCountFused)->Arg(512)->Arg(4096);

void BM_AndNotAndCountNaive(benchmark::State& state) {
  KernelSetup s(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    qec::DynamicBitset t = s.a;
    t.AndNot(s.b);
    t &= s.c;
    benchmark::DoNotOptimize(t.Count());
  }
}
BENCHMARK(BM_AndNotAndCountNaive)->Arg(512)->Arg(4096);

void BM_BitsetAndCount(benchmark::State& state) {
  qec::DynamicBitset a(static_cast<size_t>(state.range(0)));
  qec::DynamicBitset b(static_cast<size_t>(state.range(0)));
  for (size_t i = 0; i < a.size(); i += 3) a.Set(i);
  for (size_t i = 0; i < b.size(); i += 7) b.Set(i);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.AndCount(b));
  }
}
BENCHMARK(BM_BitsetAndCount)->Arg(512)->Arg(4096);

void BM_XmlParse(benchmark::State& state) {
  qec::datagen::WikipediaOptions options;
  options.docs_per_sense = 2;
  options.background_docs = 0;
  auto articles =
      qec::datagen::WikipediaGenerator(options).GenerateArticlesXml();
  for (auto _ : state) {
    for (const auto& a : articles) {
      auto parsed = qec::xml::Parse(a);
      benchmark::DoNotOptimize(parsed);
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(articles.size()));
}
BENCHMARK(BM_XmlParse);

// ------------------------------------------------------- --kernel-gate --

/// Best-of-reps ns/op for `fn` (steady clock, warm-up excluded).
template <typename Fn>
double TimeNsPerOp(Fn&& fn, int iters) {
  for (int i = 0; i < iters / 10; ++i) fn();
  double best = 1e300;
  for (int rep = 0; rep < 5; ++rep) {
    auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) fn();
    auto t1 = std::chrono::steady_clock::now();
    double ns =
        std::chrono::duration<double, std::nano>(t1 - t0).count() / iters;
    if (ns < best) best = ns;
  }
  return best;
}

/// Times fused kernels against their naive materialize-then-count/weigh
/// counterparts and enforces the 1.3x CI bar. Writes a JSON metrics blob
/// to `out_path` (if non-empty) and always prints it to stdout.
int RunKernelGate(const std::string& out_path) {
  // The naive arm's Count()/TotalWeight calls run the same popcount loops
  // as the fused arm, so the gate measures only the fusion margin —
  // skipping the materialized temporaries and extra passes — which is
  // ~1.45x; the bar keeps margin below that.
  constexpr double kRequiredSpeedup = 1.3;
  constexpr size_t kBits = 4096;
  constexpr int kIters = 50000;
  KernelSetup s(kBits);

  // The gated unit is one full ISKR add-entry evaluation — benefit,
  // cost, and the kills-cluster check — fused (two WeightOfAndNotAnd
  // passes plus an early-exit three-way Intersects, zero allocations)
  // against the exact formulation the kernels replaced (four materialized
  // bitsets, two TotalWeight passes, two Counts). Sinks defeat dead-code
  // elimination across the timed calls.
  double weight_sink = 0.0;
  size_t count_sink = 0;
  const double fused_entry_ns = TimeNsPerOp(
      [&] {
        const double benefit = s.universe->WeightOfAndNotAnd(s.a, s.b, s.c);
        const double cost = s.universe->WeightOfAndNotAnd(s.a, s.b, s.d);
        if (cost > 0.0) count_sink += !s.a.Intersects(s.b, s.d) ? 1 : 0;
        weight_sink += benefit + cost;
      },
      kIters);
  const double naive_entry_ns = TimeNsPerOp(
      [&] {
        qec::DynamicBitset eliminated = s.a;
        eliminated.AndNot(s.b);
        qec::DynamicBitset in_u = eliminated;
        in_u &= s.c;
        qec::DynamicBitset in_c = eliminated;
        in_c &= s.d;
        const double benefit = s.universe->TotalWeight(in_u);
        const double cost = s.universe->TotalWeight(in_c);
        if (cost > 0.0) {
          qec::DynamicBitset retrieved_c = s.a;
          retrieved_c &= s.d;
          count_sink += in_c.Count() == retrieved_c.Count() ? 1 : 0;
        }
        weight_sink += benefit + cost;
      },
      kIters);
  // Informational single-kernel pairs (not gated individually).
  const double fused_count_ns = TimeNsPerOp(
      [&] { count_sink += s.a.AndNotAndCount(s.b, s.c); }, kIters);
  const double naive_count_ns = TimeNsPerOp(
      [&] {
        qec::DynamicBitset t = s.a;
        t.AndNot(s.b);
        t &= s.c;
        count_sink += t.Count();
      },
      kIters);
  benchmark::DoNotOptimize(weight_sink);
  benchmark::DoNotOptimize(count_sink);

  const double entry_speedup = naive_entry_ns / fused_entry_ns;
  const double count_speedup = naive_count_ns / fused_count_ns;
  const bool pass = entry_speedup >= kRequiredSpeedup;

  char json[1024];
  std::snprintf(
      json, sizeof(json),
      "{\n"
      "  \"bits\": %zu,\n"
      "  \"required_speedup\": %.1f,\n"
      "  \"iskr_add_entry_eval\": {\"fused_ns\": %.1f, \"naive_ns\": %.1f,"
      " \"speedup\": %.2f},\n"
      "  \"and_not_and_count\": {\"fused_ns\": %.1f, \"naive_ns\": %.1f,"
      " \"speedup\": %.2f},\n"
      "  \"pass\": %s\n"
      "}\n",
      kBits, kRequiredSpeedup, fused_entry_ns, naive_entry_ns, entry_speedup,
      fused_count_ns, naive_count_ns, count_speedup, pass ? "true" : "false");
  std::cout << json;
  if (!out_path.empty()) {
    std::ofstream out(out_path);
    out << json;
  }
  if (!pass) {
    std::cerr << "kernel gate FAILED: fused kernels must be >= "
              << kRequiredSpeedup << "x the naive formulation\n";
    return 1;
  }
  return 0;
}

// ------------------------------------------------------ --sweep-report --

/// Times serial vs scatter-gather (sweep_threads=4) expansion per
/// algorithm over one prebuilt ExpansionContext on a clustered datagen
/// corpus — sweeps isolated from retrieval and clustering, same idiom as
/// the kernel gate. The sweeps distribute whole candidate evaluations and
/// merge in candidate order, so the outputs are byte-identical — only the
/// wall clock moves.
int RunSweepReport(const std::string& out_path, size_t docs,
                   size_t clusters) {
  constexpr size_t kSweepThreads = 4;
  constexpr int kSweepReps = 5;
  qec::datagen::ClusteredOptions options;
  options.num_docs = docs;
  options.num_clusters = clusters;
  qec::doc::Corpus corpus =
      qec::datagen::ClusteredGenerator(options).Generate();
  qec::index::InvertedIndex index(corpus);

  // Universe: every result of one topic term; cluster: the results also
  // carrying a sibling topic term (a realistic sub-cluster).
  const auto& vocab = corpus.analyzer().vocabulary();
  const std::vector<qec::TermId> user_terms = {vocab.Lookup("c0t0")};
  auto results = index.Search(user_terms);
  qec::core::ResultUniverse universe(corpus, results);
  qec::DynamicBitset bits =
      universe.Retrieve({vocab.Lookup("c0t1")});
  qec::core::CandidateOptions candidate_options;
  candidate_options.fraction = 1.0;  // widest sweeps: every candidate
  auto candidates = qec::core::SelectCandidates(universe, index, user_terms,
                                                candidate_options);
  auto context = qec::core::MakeContext(universe, user_terms,
                                        std::move(bits), candidates);

  auto median_ns = [&](auto&& expand) {
    std::vector<double> samples;
    for (int i = 0; i < kSweepReps; ++i) {
      auto t0 = std::chrono::steady_clock::now();
      auto r = expand();
      auto t1 = std::chrono::steady_clock::now();
      benchmark::DoNotOptimize(r);
      samples.push_back(
          std::chrono::duration<double, std::nano>(t1 - t0).count());
    }
    std::sort(samples.begin(), samples.end());
    return samples[samples.size() / 2];
  };

  double serial_s[3] = {0, 0, 0};
  double sharded_s[3] = {0, 0, 0};
  for (int threaded = 0; threaded < 2; ++threaded) {
    double* out = threaded != 0 ? sharded_s : serial_s;
    const size_t threads = threaded != 0 ? kSweepThreads : 1;
    const qec::core::SweepOptions sweep{/*threads=*/threads};
    qec::core::IskrOptions iskr;
    out[0] = median_ns([&] {
               return qec::core::IskrExpander(iskr, sweep).Expand(context);
             }) /
             1e9;
    qec::core::PebcOptions pebc;
    out[1] = median_ns([&] {
               return qec::core::PebcExpander(pebc, sweep).Expand(context);
             }) /
             1e9;
    qec::core::FMeasureOptions fmeasure;
    out[2] = median_ns([&] {
               return qec::core::FMeasureExpander(fmeasure, sweep)
                   .Expand(context);
             }) /
             1e9;
  }

  char json[1024];
  std::snprintf(
      json, sizeof(json),
      "{\n"
      "  \"docs\": %zu,\n"
      "  \"clusters\": %zu,\n"
      "  \"sweep_threads\": %zu,\n"
      "  \"iskr\": {\"serial_ms\": %.2f, \"sharded_ms\": %.2f,"
      " \"speedup\": %.2f},\n"
      "  \"pebc\": {\"serial_ms\": %.2f, \"sharded_ms\": %.2f,"
      " \"speedup\": %.2f},\n"
      "  \"fmeasure\": {\"serial_ms\": %.2f, \"sharded_ms\": %.2f,"
      " \"speedup\": %.2f}\n"
      "}\n",
      docs, clusters, kSweepThreads, serial_s[0] * 1e3, sharded_s[0] * 1e3,
      serial_s[0] / sharded_s[0], serial_s[1] * 1e3, sharded_s[1] * 1e3,
      serial_s[1] / sharded_s[1], serial_s[2] * 1e3, sharded_s[2] * 1e3,
      serial_s[2] / sharded_s[2]);
  std::cout << json;
  if (!out_path.empty()) {
    std::ofstream out(out_path);
    out << json;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  size_t docs = 400000;
  size_t clusters = 256;
  std::string sweep_out;
  bool sweep_mode = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--docs=", 0) == 0) {
      docs = static_cast<size_t>(std::atoll(arg.c_str() + 7));
    } else if (arg.rfind("--clusters=", 0) == 0) {
      clusters = static_cast<size_t>(std::atoll(arg.c_str() + 11));
    } else if (arg == "--sweep-report" ||
               arg.rfind("--sweep-report=", 0) == 0) {
      sweep_mode = true;
      const size_t eq = arg.find('=');
      if (eq != std::string::npos) sweep_out = arg.substr(eq + 1);
    }
  }
  if (sweep_mode) return RunSweepReport(sweep_out, docs, clusters);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--kernel-gate" || arg.rfind("--kernel-gate=", 0) == 0) {
      const size_t eq = arg.find('=');
      return RunKernelGate(eq == std::string::npos ? std::string()
                                                   : arg.substr(eq + 1));
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
