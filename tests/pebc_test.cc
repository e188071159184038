// PEBC tests, built around the paper's Examples 4.2-4.4: U = {R1..R10},
// keywords k1..k4 with
//   benefit(k1)=4 {R1..R4},  cost 2     benefit(k2)=6 {R5..R10}, cost 6
//   benefit(k3)=3 {R3,R4,R8}, cost 1    benefit(k4)=4 {R4..R7},  cost 4
// and all keyword costs hitting *distinct* results of C. The paper shows
// the fixed-order strategy (Sec. 4.1) can only eliminate 5 or 10 results
// when asked for 7, while the random-single-result strategy (Sec. 4.3) can
// reach exactly 7 (e.g. {k1, k4}).

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "core/expansion_context.h"
#include "core/pebc.h"
#include "core/result_universe.h"
#include "doc/corpus.h"

namespace qec::core {
namespace {

class Example42Fixture : public ::testing::Test {
 protected:
  Example42Fixture() {
    // C first (13 docs): keyword costs are disjoint. k1 misses docs c0,c1;
    // k2 misses c2..c7; k3 misses c8; k4 misses c9..c12.
    for (int i = 0; i < 13; ++i) {
      std::string body = "q";
      auto contains = [&](int lo, int hi) { return i < lo || i > hi; };
      if (contains(0, 1)) body += " k1";
      if (contains(2, 7)) body += " k2";
      if (contains(8, 8)) body += " k3";
      if (contains(9, 12)) body += " k4";
      std::string name = "c";
      name += std::to_string(i);
      ids_.push_back(corpus_.AddTextDocument(name, body));
    }
    cluster_size_ = ids_.size();
    // U: R1..R10. k eliminates R iff absent.
    struct Row {
      bool k1, k2, k3, k4;
    };
    // Presence flags derived from the elimination sets above.
    std::vector<Row> u_rows = {
        {false, true, true, true},    // R1:  elim by k1
        {false, true, true, true},    // R2:  elim by k1
        {false, true, false, true},   // R3:  elim by k1,k3
        {false, true, false, false},  // R4:  elim by k1,k3,k4
        {true, false, true, false},   // R5:  elim by k2,k4
        {true, false, true, false},   // R6:  elim by k2,k4
        {true, false, true, false},   // R7:  elim by k2,k4
        {true, false, false, true},   // R8:  elim by k2,k3
        {true, false, true, true},    // R9:  elim by k2
        {true, false, true, true},    // R10: elim by k2
    };
    for (size_t i = 0; i < u_rows.size(); ++i) {
      std::string body = "q";
      if (u_rows[i].k1) body += " k1";
      if (u_rows[i].k2) body += " k2";
      if (u_rows[i].k3) body += " k3";
      if (u_rows[i].k4) body += " k4";
      std::string name = "u";
      name += std::to_string(i);
      ids_.push_back(corpus_.AddTextDocument(name, body));
    }
    universe_ = std::make_unique<ResultUniverse>(corpus_, ids_);
    DynamicBitset cluster(universe_->size());
    for (size_t i = 0; i < cluster_size_; ++i) cluster.Set(i);
    context_ = std::make_unique<ExpansionContext>(
        MakeContext(*universe_, {T("q")}, cluster,
                    {T("k1"), T("k2"), T("k3"), T("k4")}));
  }

  TermId T(const std::string& w) const {
    return corpus_.analyzer().vocabulary().Lookup(w);
  }

  /// Runs one sampling round at exactly one x% target and returns the
  /// achieved elimination percentages over `seeds` seeds.
  std::set<int> AchievedAtTarget(PebcStrategy strategy, double target,
                                 int seeds) {
    std::set<int> achieved;
    for (int s = 1; s <= seeds; ++s) {
      PebcOptions options;
      options.strategy = strategy;
      options.seed = static_cast<uint64_t>(s);
      options.num_iterations = 1;
      options.num_segments = 1;  // probes 2 points; we pin via trace lookup
      PebcExpander pebc(options);
      std::vector<PebcSample> trace;
      // Use a custom interval by exploiting that segment boundaries of
      // [0,100] with 10 segments include the target.
      options.num_segments = 10;
      pebc = PebcExpander(options);
      trace.clear();
      pebc.ExpandWithTrace(*context_, &trace);
      for (const auto& sample : trace) {
        if (std::abs(sample.target_percent - target) < 1e-9) {
          achieved.insert(static_cast<int>(std::lround(
              sample.achieved_percent)));
        }
      }
    }
    return achieved;
  }

  doc::Corpus corpus_;
  std::vector<DocId> ids_;
  size_t cluster_size_;
  std::unique_ptr<ResultUniverse> universe_;
  std::unique_ptr<ExpansionContext> context_;
};

TEST_F(Example42Fixture, FixedOrderCannotHitSeventyPercent) {
  // Sec. 4.1: keywords are always selected in benefit/cost order
  // (k3 → k1 → ...), so the achievable elimination counts around 7 are
  // only 5 ({k3,k1}) or 10 (all). Never 7.
  std::set<int> achieved =
      AchievedAtTarget(PebcStrategy::kFixedOrder, 70.0, 10);
  EXPECT_TRUE(achieved.find(70) == achieved.end())
      << "fixed-order reached 70%, contradicting Example 4.2";
  for (int a : achieved) EXPECT_TRUE(a == 50 || a == 100) << a;
}

TEST_F(Example42Fixture, RandomSingleResultCanHitSeventyPercent) {
  // Sec. 4.3 / Example 4.4: picking results one at a time can find
  // {k1, k4} eliminating exactly 7 of 10.
  std::set<int> achieved =
      AchievedAtTarget(PebcStrategy::kRandomSingleResult, 70.0, 40);
  EXPECT_TRUE(achieved.find(70) != achieved.end())
      << "random-single-result never reached the 70% target in 40 seeds";
}

TEST_F(Example42Fixture, ZeroTargetLeavesUserQuery) {
  PebcOptions options;
  options.num_iterations = 1;
  options.num_segments = 1;
  PebcExpander pebc(options);
  std::vector<PebcSample> trace;
  pebc.ExpandWithTrace(*context_, &trace);
  ASSERT_FALSE(trace.empty());
  EXPECT_DOUBLE_EQ(trace[0].target_percent, 0.0);
  EXPECT_DOUBLE_EQ(trace[0].achieved_percent, 0.0);
  EXPECT_EQ(trace[0].query.size(), 1u);  // just "q"
}

TEST_F(Example42Fixture, HundredTargetEliminatesEverything) {
  PebcOptions options;
  options.num_iterations = 1;
  options.num_segments = 1;
  options.strategy = PebcStrategy::kFixedOrder;
  PebcExpander pebc(options);
  std::vector<PebcSample> trace;
  pebc.ExpandWithTrace(*context_, &trace);
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_DOUBLE_EQ(trace[1].target_percent, 100.0);
  EXPECT_NEAR(trace[1].achieved_percent, 100.0, 1e-9);
}

TEST_F(Example42Fixture, ReturnsBestSampleByFMeasure) {
  PebcOptions options;
  options.num_segments = 4;
  options.num_iterations = 2;
  PebcExpander pebc(options);
  std::vector<PebcSample> trace;
  ExpansionResult result = pebc.ExpandWithTrace(*context_, &trace);
  double best_f = 0.0;
  for (const auto& s : trace) best_f = std::max(best_f, s.f_measure);
  EXPECT_NEAR(result.quality.f_measure, best_f, 1e-12);
  EXPECT_EQ(result.iterations, trace.size());
}

TEST_F(Example42Fixture, ScratchArenaStopsAllocatingAfterWarmup) {
  // Zero heap allocations per benefit/cost evaluation in the steady
  // state: each PEBC expansion leases exactly four buffers (retrieved,
  // saved, selected, blocked) from the universe's scratch arena, and
  // after a warm-up run every lease is served from the pool.
  PebcExpander pebc;
  pebc.Expand(*context_);  // Warm the arena.
  const ScratchArenaStats before =
      universe_->scratch_arena_stats();
  constexpr size_t kRuns = 3;
  for (size_t i = 0; i < kRuns; ++i) pebc.Expand(*context_);
  const ScratchArenaStats after =
      universe_->scratch_arena_stats();
  EXPECT_EQ(after.allocs, before.allocs);
  EXPECT_EQ(after.reuses, before.reuses + kRuns * 4);
}

TEST_F(Example42Fixture, DeterministicForFixedSeed) {
  PebcOptions options;
  options.seed = 777;
  ExpansionResult a = PebcExpander(options).Expand(*context_);
  ExpansionResult b = PebcExpander(options).Expand(*context_);
  EXPECT_EQ(a.query, b.query);
  EXPECT_DOUBLE_EQ(a.quality.f_measure, b.quality.f_measure);
}

TEST_F(Example42Fixture, TraceTargetsSpanTheInterval) {
  PebcOptions options;
  options.num_segments = 2;
  options.num_iterations = 3;
  PebcExpander pebc(options);
  std::vector<PebcSample> trace;
  pebc.ExpandWithTrace(*context_, &trace);
  // 3 iterations × 3 points.
  ASSERT_EQ(trace.size(), 9u);
  // First round spans [0, 100].
  EXPECT_DOUBLE_EQ(trace[0].target_percent, 0.0);
  EXPECT_DOUBLE_EQ(trace[1].target_percent, 50.0);
  EXPECT_DOUBLE_EQ(trace[2].target_percent, 100.0);
  // Later rounds zoom: interval width halves each time.
  EXPECT_NEAR(trace[5].target_percent - trace[3].target_percent, 50.0, 1e-9);
  EXPECT_NEAR(trace[8].target_percent - trace[6].target_percent, 25.0, 1e-9);
}

TEST_F(Example42Fixture, RandomSubsetStrategyRuns) {
  PebcOptions options;
  options.strategy = PebcStrategy::kRandomSubset;
  ExpansionResult r = PebcExpander(options).Expand(*context_);
  EXPECT_GE(r.quality.f_measure, 0.0);
  EXPECT_LE(r.quality.f_measure, 1.0);
  EXPECT_FALSE(r.query.empty());
}

TEST_F(Example42Fixture, AllStrategiesProduceValidQueries) {
  for (auto strategy :
       {PebcStrategy::kFixedOrder, PebcStrategy::kRandomSubset,
        PebcStrategy::kRandomSingleResult}) {
    PebcOptions options;
    options.strategy = strategy;
    ExpansionResult r = PebcExpander(options).Expand(*context_);
    // The query always contains the user query term.
    ASSERT_FALSE(r.query.empty());
    EXPECT_EQ(r.query[0], T("q"));
    // And never duplicates a keyword.
    std::set<TermId> unique(r.query.begin(), r.query.end());
    EXPECT_EQ(unique.size(), r.query.size());
  }
}

// A degenerate context: U empty (single cluster covering everything).
TEST(PebcEdgeTest, EmptyOthersIsHandled) {
  doc::Corpus corpus;
  std::vector<DocId> ids;
  ids.push_back(corpus.AddTextDocument("0", "q a"));
  ids.push_back(corpus.AddTextDocument("1", "q b"));
  ResultUniverse universe(corpus, ids);
  DynamicBitset cluster = universe.FullSet();
  ExpansionContext ctx = MakeContext(
      universe, {corpus.analyzer().vocabulary().Lookup("q")}, cluster,
      {corpus.analyzer().vocabulary().Lookup("a")});
  ExpansionResult r = PebcExpander().Expand(ctx);
  // Nothing to eliminate: the user query itself is optimal (F = 1).
  EXPECT_DOUBLE_EQ(r.quality.f_measure, 1.0);
}

}  // namespace
}  // namespace qec::core
