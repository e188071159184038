// Golden outputs of PebcExpander over the Fig. 6 inputs: every strategy,
// at sweep threads 1 and 4, for each cluster of the shopping queries
// QS1-QS10 (all results, 30 products per family) and the Wikipedia queries
// QW1-QW10 (top 30). Each row of golden/pebc.txt pins the expanded query,
// the quality doubles bit for bit, the iteration and recomputation counts
// and every PebcStats field, so any change to which keywords PEBC weighs,
// in what order, or how it counts them fails here.
//
// To regenerate the file from the code under test, run
//   QEC_PEBC_GOLDEN_OUT=pebc.txt pebc_golden_test --gtest_filter='*Threads1'
// which appends every row to pebc.txt instead of comparing (threads 4
// must reproduce the same rows).

#include <gtest/gtest.h>

#include <bit>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/candidates.h"
#include "core/expansion_context.h"
#include "core/pebc.h"
#include "eval/harness.h"

namespace qec::core {
namespace {

std::string_view StrategyName(PebcStrategy strategy) {
  switch (strategy) {
    case PebcStrategy::kFixedOrder:
      return "fixed";
    case PebcStrategy::kRandomSubset:
      return "subset";
    case PebcStrategy::kRandomSingleResult:
      break;
  }
  return "single";
}

std::string Hex(double value) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64,
                std::bit_cast<uint64_t>(value));
  return buf;
}

double FromHex(const std::string& hex) {
  return std::bit_cast<double>(std::strtoull(hex.c_str(), nullptr, 16));
}

/// One row of golden/pebc.txt, "<query id> <cluster> <strategy>" first.
struct GoldenRow {
  std::string key;
  std::string query;  // the terms, comma-separated
  QueryQuality quality;
  size_t iterations = 0;
  size_t value_recomputations = 0;
  PebcStats stats;
};

std::string Format(const GoldenRow& r) {
  std::ostringstream out;
  out << r.key << ' ' << r.query << ' ' << Hex(r.quality.precision) << ' '
      << Hex(r.quality.recall) << ' ' << Hex(r.quality.f_measure) << ' '
      << r.iterations << ' ' << r.value_recomputations << ' '
      << r.stats.samples_drawn << ' ' << r.stats.rounds << ' '
      << r.stats.intervals_zoomed << ' ' << r.stats.candidates_evaluated
      << ' ' << Hex(r.stats.best_target_percent);
  return out.str();
}

GoldenRow Parse(const std::string& line) {
  std::istringstream in(line);
  GoldenRow r;
  std::string id, cluster, strategy, precision, recall, f, best;
  in >> id >> cluster >> strategy >> r.query >> precision >> recall >> f >>
      r.iterations >> r.value_recomputations >> r.stats.samples_drawn >>
      r.stats.rounds >> r.stats.intervals_zoomed >>
      r.stats.candidates_evaluated >> best;
  r.key = id + ' ' + cluster + ' ' + strategy;
  r.quality = {FromHex(precision), FromHex(recall), FromHex(f)};
  r.stats.best_target_percent = FromHex(best);
  return r;
}

/// Rows of the expected file, by key.
std::map<std::string, GoldenRow> LoadGolden() {
  std::map<std::string, GoldenRow> rows;
  std::ifstream in(QEC_PEBC_GOLDEN);
  for (std::string line; std::getline(in, line);) {
    if (line.empty()) continue;
    GoldenRow row = Parse(line);
    rows.emplace(row.key, std::move(row));
  }
  return rows;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

struct Dataset {
  eval::DatasetBundle bundle;
  size_t top_k = 0;
};

class PebcGoldenTest
    : public ::testing::TestWithParam<std::tuple<PebcStrategy, size_t>> {
 protected:
  static void SetUpTestSuite() {
    datagen::ShoppingOptions shopping;
    shopping.products_per_family = 30;
    datasets_ = new std::vector<Dataset>();
    datasets_->push_back({eval::MakeShoppingBundle(shopping), 0});
    datasets_->push_back({eval::MakeWikipediaBundle(), 30});
  }
  static void TearDownTestSuite() {
    delete datasets_;
    datasets_ = nullptr;
  }

  static std::vector<Dataset>* datasets_;
};

std::vector<Dataset>* PebcGoldenTest::datasets_ = nullptr;

TEST_P(PebcGoldenTest, MatchesGoldenPerCluster) {
  const auto [strategy, threads] = GetParam();
  const PebcExpander expander(PebcOptions{.strategy = strategy},
                              SweepOptions{.threads = threads});
  const std::map<std::string, GoldenRow> golden = LoadGolden();
  const char* out_path = std::getenv("QEC_PEBC_GOLDEN_OUT");
  std::ofstream out;
  if (out_path != nullptr) out.open(out_path, std::ios::app);
  ASSERT_TRUE(out_path != nullptr || !golden.empty())
      << "no golden rows in " << QEC_PEBC_GOLDEN;

  size_t compared = 0;
  for (const Dataset& dataset : *datasets_) {
    const auto& vocab = dataset.bundle.corpus->analyzer().vocabulary();
    for (const datagen::WorkloadQuery& wq : dataset.bundle.queries) {
      auto qc = eval::PrepareQueryCase(dataset.bundle, wq.text, dataset.top_k);
      ASSERT_TRUE(qc.ok()) << wq.id << ": " << qc.status().ToString();
      const std::vector<TermId> candidates = SelectCandidates(
          *qc->universe, *dataset.bundle.index, qc->user_terms);
      const auto members = qc->clustering.Members();
      for (size_t c = 0; c < members.size(); ++c) {
        DynamicBitset cluster = qc->universe->EmptySet();
        for (size_t i : members[c]) cluster.Set(i);
        const ExpansionContext context = MakeContext(
            *qc->universe, qc->user_terms, std::move(cluster), candidates);
        const ExpansionResult result = expander.Expand(context);
        std::string query;
        for (TermId t : result.query) {
          if (!query.empty()) query += ',';
          query += vocab.TermString(t);
        }
        const GoldenRow got{.key = wq.id + ' ' + std::to_string(c) + ' ' +
                                   std::string(StrategyName(strategy)),
                            .query = std::move(query),
                            .quality = result.quality,
                            .iterations = result.iterations,
                            .value_recomputations = result.value_recomputations,
                            .stats = result.pebc_stats};
        if (out_path != nullptr) {
          out << Format(got) << '\n';
          continue;
        }
        const auto it = golden.find(got.key);
        ASSERT_NE(it, golden.end()) << "no golden row for " << got.key;
        const GoldenRow& want = it->second;
        EXPECT_EQ(want.query, got.query) << got.key;
        EXPECT_TRUE(SameBits(want.quality.precision, got.quality.precision))
            << got.key;
        EXPECT_TRUE(SameBits(want.quality.recall, got.quality.recall))
            << got.key;
        EXPECT_TRUE(SameBits(want.quality.f_measure, got.quality.f_measure))
            << got.key;
        EXPECT_EQ(want.iterations, got.iterations) << got.key;
        EXPECT_EQ(want.value_recomputations, got.value_recomputations)
            << got.key;
        EXPECT_EQ(want.stats.samples_drawn, got.stats.samples_drawn)
            << got.key;
        EXPECT_EQ(want.stats.rounds, got.stats.rounds) << got.key;
        EXPECT_EQ(want.stats.intervals_zoomed, got.stats.intervals_zoomed)
            << got.key;
        EXPECT_EQ(want.stats.candidates_evaluated,
                  got.stats.candidates_evaluated)
            << got.key;
        EXPECT_TRUE(SameBits(want.stats.best_target_percent,
                             got.stats.best_target_percent))
            << got.key;
        ++compared;
      }
    }
  }
  if (out_path == nullptr) {
    // Every golden row of this strategy was produced by the run.
    size_t expected = 0;
    for (const auto& [key, row] : golden) {
      if (key.ends_with(' ' + std::string(StrategyName(strategy)))) ++expected;
    }
    EXPECT_EQ(compared, expected);
  }
}

INSTANTIATE_TEST_SUITE_P(
    StrategiesAndThreads, PebcGoldenTest,
    ::testing::Combine(::testing::Values(PebcStrategy::kFixedOrder,
                                         PebcStrategy::kRandomSubset,
                                         PebcStrategy::kRandomSingleResult),
                       ::testing::Values(size_t{1}, size_t{4})),
    [](const auto& info) {
      std::string name(StrategyName(std::get<0>(info.param)));
      name[0] = static_cast<char>(name[0] - 'a' + 'A');
      return name + "Threads" + std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace qec::core
