// ISKR tests, including a faithful reconstruction of the paper's running
// example (Examples 3.1 and 3.2): cluster C = {R1..R8}, U = {R1'..R10'},
// candidate keywords job/store/location/fruit with the elimination sets of
// the Example 3.1 table. The documented walkthrough adds job, store,
// location, then *removes* job, ending at q = {apple, store, location}.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "cluster/kmeans.h"
#include "common/sweep_pool.h"
#include "core/candidates.h"
#include "core/expansion_context.h"
#include "core/iskr.h"
#include "core/result_universe.h"
#include "datagen/shopping.h"
#include "doc/corpus.h"
#include "index/inverted_index.h"

namespace qec::core {
namespace {

/// ISKR and ExplainAddedTerms score an addition with the same evaluator,
/// so without removals the EXPLAIN rows of ISKR's final query are exactly
/// its refinement steps, doubles included. Returns the step count.
size_t ExpectExplainEqualsAddOnlySteps(const ExpansionContext& context) {
  IskrOptions options;
  options.allow_removal = false;
  std::vector<IskrStep> steps;
  const ExpansionResult result =
      IskrExpander(options).ExpandWithTrace(context, &steps);
  const std::vector<TermExplain> rows =
      ExplainAddedTerms(context, result.query);
  EXPECT_EQ(rows.size(), steps.size());
  for (size_t i = 0; i < std::min(rows.size(), steps.size()); ++i) {
    EXPECT_EQ(rows[i].term, steps[i].keyword);
    EXPECT_FALSE(rows[i].is_removal);
    EXPECT_EQ(rows[i].benefit, steps[i].benefit);
    EXPECT_EQ(rows[i].cost, steps[i].cost);
    EXPECT_EQ(rows[i].value, steps[i].value);
  }
  return steps.size();
}

/// Builds the Example 3.1 corpus. Keyword k "eliminates" result R iff k is
/// absent from R, so each document contains "apple" plus every keyword NOT
/// in its elimination row:
///   E(job)      = C:{R1..R6}   U:{R1'..R8'}
///   E(store)    = C:{R1..R4}   U:{R1'..R4', R9'}
///   E(location) = C:{R2..R5}   U:{R5'..R8', R10'}
///   E(fruit)    = C:{R1..R3}   U:{R2'..R4'}
class PaperExampleFixture : public ::testing::Test {
 protected:
  PaperExampleFixture() {
    // C: R1..R8 (indices 0..7).
    Add({"fruitless"}, /*job=*/false, /*store=*/false, /*location=*/true,
        /*fruit=*/false);                       // R1
    Add({}, false, false, false, false);        // R2
    Add({}, false, false, false, false);        // R3
    Add({}, false, false, false, true);         // R4
    Add({}, false, true, false, true);          // R5
    Add({}, false, true, true, true);           // R6
    Add({}, true, true, true, true);            // R7
    Add({}, true, true, true, true);            // R8
    // U: R1'..R10' (indices 8..17).
    Add({}, false, false, true, true);          // R1'
    Add({}, false, false, true, false);         // R2'
    Add({}, false, false, true, false);         // R3'
    Add({}, false, false, true, false);         // R4'
    Add({}, false, true, false, true);          // R5'
    Add({}, false, true, false, true);          // R6'
    Add({}, false, true, false, true);          // R7'
    Add({}, false, true, false, true);          // R8'
    Add({}, true, false, true, true);           // R9'
    Add({}, true, true, false, true);           // R10'

    universe_ = std::make_unique<ResultUniverse>(corpus_, doc_ids_);
    DynamicBitset cluster(universe_->size());
    for (size_t i = 0; i < 8; ++i) cluster.Set(i);
    context_ = std::make_unique<ExpansionContext>(MakeContext(
        *universe_, {T("apple")}, cluster,
        {T("job"), T("store"), T("location"), T("fruit")}));
  }

  void Add(const std::vector<std::string>& extra, bool job, bool store,
           bool location, bool fruit) {
    std::string body = "apple";
    if (job) body += " job";
    if (store) body += " store";
    if (location) body += " location";
    if (fruit) body += " fruit";
    for (const auto& w : extra) body.append(" ").append(w);
    std::string name = "r";
    name += std::to_string(doc_ids_.size());
    doc_ids_.push_back(corpus_.AddTextDocument(name, body));
  }

  TermId T(const std::string& w) const {
    return corpus_.analyzer().vocabulary().Lookup(w);
  }

  std::set<std::string> QueryWords(const ExpansionResult& r) const {
    std::set<std::string> words;
    for (TermId t : r.query) {
      words.emplace(corpus_.analyzer().vocabulary().TermString(t));
    }
    return words;
  }

  doc::Corpus corpus_;
  std::vector<DocId> doc_ids_;
  std::unique_ptr<ResultUniverse> universe_;
  std::unique_ptr<ExpansionContext> context_;
};

TEST_F(PaperExampleFixture, EliminationSetsMatchExampleTable) {
  // Sanity-check the fixture against the Example 3.1 table.
  auto elim_in = [&](const std::string& kw, size_t begin, size_t end) {
    DynamicBitset e = universe_->FullSet();
    e.AndNot(universe_->DocsWithTerm(T(kw)));
    size_t count = 0;
    for (size_t i = begin; i < end; ++i) {
      if (e.Test(i)) ++count;
    }
    return count;
  };
  EXPECT_EQ(elim_in("job", 0, 8), 6u);        // R1..R6
  EXPECT_EQ(elim_in("job", 8, 18), 8u);       // R1'..R8'
  EXPECT_EQ(elim_in("store", 0, 8), 4u);      // R1..R4
  EXPECT_EQ(elim_in("store", 8, 18), 5u);     // R1'..R4', R9'
  EXPECT_EQ(elim_in("location", 0, 8), 4u);   // R2..R5
  EXPECT_EQ(elim_in("location", 8, 18), 5u);  // R5'..R8', R10'
  EXPECT_EQ(elim_in("fruit", 0, 8), 3u);      // R1..R3
  EXPECT_EQ(elim_in("fruit", 8, 18), 3u);     // R2'..R4'
}

TEST_F(PaperExampleFixture, IskrReproducesWalkthrough) {
  IskrExpander iskr;
  ExpansionResult result = iskr.Expand(*context_);
  // Example 3.2: job is added first (value 8/6) but later removed; the
  // final query is {apple, store, location}.
  EXPECT_EQ(QueryWords(result),
            (std::set<std::string>{"apple", "store", "location"}));
  // Final result set: C ∩ store ∩ location = {R6, R7, R8}; nothing in U.
  EXPECT_DOUBLE_EQ(result.quality.precision, 1.0);
  EXPECT_DOUBLE_EQ(result.quality.recall, 3.0 / 8.0);
  // The walkthrough performs 4 refinements: +job, +store, +location, -job.
  EXPECT_EQ(result.iterations, 4u);
}

TEST_F(PaperExampleFixture, RemovalDisabledKeepsJob) {
  IskrOptions options;
  options.allow_removal = false;
  IskrExpander iskr(options);
  ExpansionResult result = iskr.Expand(*context_);
  EXPECT_EQ(QueryWords(result),
            (std::set<std::string>{"apple", "job", "store", "location"}));
  // Without removal, R6 stays lost: recall 2/8.
  EXPECT_DOUBLE_EQ(result.quality.recall, 2.0 / 8.0);
  EXPECT_DOUBLE_EQ(result.quality.precision, 1.0);
}

TEST_F(PaperExampleFixture, ExplainAddedTermsEqualsAddOnlySteps) {
  EXPECT_EQ(ExpectExplainEqualsAddOnlySteps(*context_), 3u);
}

TEST(IskrShoppingTest, ExplainAddedTermsEqualsAddOnlySteps) {
  const doc::Corpus corpus = datagen::ShoppingGenerator().Generate();
  const index::InvertedIndex index(corpus);
  CandidateOptions candidate_options;
  candidate_options.fraction = 1.0;
  size_t steps = 0;
  for (const char* text : {"canon products", "digital camera", "tv plasma"}) {
    SCOPED_TRACE(text);
    const std::vector<TermId> terms = corpus.analyzer().AnalyzeReadOnly(text);
    const ResultUniverse universe(corpus, index.Search(terms, 0));
    std::vector<cluster::SparseVector> vectors;
    for (size_t i = 0; i < universe.size(); ++i) {
      vectors.push_back(cluster::SparseVector::FromDocument(
          corpus.Get(universe.doc_at(i))));
    }
    const cluster::Clustering clustering =
        cluster::KMeans({.k = 5, .max_iterations = 50, .seed = 42,
                         .auto_k = true})
            .Cluster(vectors);
    const std::vector<TermId> candidates =
        SelectCandidates(universe, index, terms, candidate_options);
    for (const std::vector<size_t>& members : clustering.Members()) {
      DynamicBitset cluster = universe.EmptySet();
      for (size_t i : members) cluster.Set(i);
      steps += ExpectExplainEqualsAddOnlySteps(
          MakeContext(universe, terms, std::move(cluster), candidates));
    }
  }
  EXPECT_GT(steps, 0u);
}

TEST_F(PaperExampleFixture, RemovalImprovesFMeasure) {
  IskrOptions no_removal;
  no_removal.allow_removal = false;
  double f_without = IskrExpander(no_removal).Expand(*context_).quality.f_measure;
  double f_with = IskrExpander().Expand(*context_).quality.f_measure;
  EXPECT_GT(f_with, f_without);
}

TEST_F(PaperExampleFixture, IncrementalMaintenanceTouchesFewKeywords) {
  IskrExpander iskr;
  ExpansionResult result = iskr.Expand(*context_);
  // Addition entries follow the affected-only rule; removal entries (at
  // most |q| - 1 ≤ 3 here) are recomputed every step. Initial fill is 4.
  EXPECT_LE(result.value_recomputations, 4u + result.iterations * 8u);
  EXPECT_GE(result.value_recomputations, 4u);
}

TEST_F(PaperExampleFixture, TraceMatchesExampleTables) {
  // The trace must reproduce the paper's Example 3.1/3.2 numbers exactly:
  //   step 1: add job      (benefit 8, cost 6, value 1.33)
  //   step 2: add store    (benefit 1, cost 0, value ∞ — the paper's
  //                         table prints "1" but adds it, i.e. treats a
  //                         free improvement as always worth taking)
  //   step 3: add location (benefit 1, cost 0)
  //   step 4: REMOVE job   (benefit 1, cost 0 — Example 3.2)
  std::vector<IskrStep> trace;
  IskrExpander iskr;
  ExpansionResult result = iskr.ExpandWithTrace(*context_, &trace);
  ASSERT_EQ(trace.size(), 4u);

  EXPECT_EQ(corpus_.analyzer().vocabulary().TermString(trace[0].keyword),
            "job");
  EXPECT_FALSE(trace[0].is_removal);
  EXPECT_DOUBLE_EQ(trace[0].benefit, 8.0);
  EXPECT_DOUBLE_EQ(trace[0].cost, 6.0);
  EXPECT_NEAR(trace[0].value, 8.0 / 6.0, 1e-12);

  // store and location both have benefit 1, cost 0 after job; order
  // between them is a tie broken by term id — accept either order.
  std::set<std::string> middle = {
      std::string(corpus_.analyzer().vocabulary().TermString(trace[1].keyword)),
      std::string(
          corpus_.analyzer().vocabulary().TermString(trace[2].keyword))};
  EXPECT_EQ(middle, (std::set<std::string>{"store", "location"}));
  for (int i : {1, 2}) {
    EXPECT_FALSE(trace[i].is_removal);
    EXPECT_DOUBLE_EQ(trace[i].benefit, 1.0);
    EXPECT_DOUBLE_EQ(trace[i].cost, 0.0);
  }

  EXPECT_EQ(corpus_.analyzer().vocabulary().TermString(trace[3].keyword),
            "job");
  EXPECT_TRUE(trace[3].is_removal);
  EXPECT_DOUBLE_EQ(trace[3].benefit, 1.0);  // regains R6
  EXPECT_DOUBLE_EQ(trace[3].cost, 0.0);     // no U result comes back
  EXPECT_DOUBLE_EQ(trace[3].f_measure_after, result.quality.f_measure);
}

TEST_F(PaperExampleFixture, ParallelSweepMatchesSerialByteForByte) {
  // The initial candidate sweep fans out over sweep_threads, but each
  // entry is computed whole by one thread and merged in candidate-index
  // order — every field of the result, including the doubles in the
  // trace, must be bit-identical to the serial sweep.
  std::vector<IskrStep> serial_trace;
  ExpansionResult serial =
      IskrExpander(IskrOptions{}, SweepOptions{/*threads=*/1})
          .ExpandWithTrace(*context_, &serial_trace);

  for (size_t sweep : {size_t{2}, size_t{3}, size_t{8}, size_t{0}}) {
    SCOPED_TRACE("sweep_threads=" + std::to_string(sweep));
    std::vector<IskrStep> trace;
    ExpansionResult parallel =
        IskrExpander(IskrOptions{}, SweepOptions{/*threads=*/sweep})
            .ExpandWithTrace(*context_, &trace);
    EXPECT_EQ(parallel.query, serial.query);
    EXPECT_EQ(parallel.iterations, serial.iterations);
    EXPECT_EQ(parallel.value_recomputations, serial.value_recomputations);
    EXPECT_EQ(parallel.quality.precision, serial.quality.precision);
    EXPECT_EQ(parallel.quality.recall, serial.quality.recall);
    EXPECT_EQ(parallel.quality.f_measure, serial.quality.f_measure);
    ASSERT_EQ(trace.size(), serial_trace.size());
    for (size_t i = 0; i < trace.size(); ++i) {
      EXPECT_EQ(trace[i].keyword, serial_trace[i].keyword);
      EXPECT_EQ(trace[i].is_removal, serial_trace[i].is_removal);
      EXPECT_EQ(trace[i].benefit, serial_trace[i].benefit);
      EXPECT_EQ(trace[i].cost, serial_trace[i].cost);
      EXPECT_EQ(trace[i].value, serial_trace[i].value);
      EXPECT_EQ(trace[i].f_measure_after, serial_trace[i].f_measure_after);
    }
  }
}

TEST_F(PaperExampleFixture, ScratchArenaStopsAllocatingAfterWarmup) {
  // Acceptance criterion for the fused-kernel layer: zero heap
  // allocations per benefit/cost evaluation in the steady state. Each
  // expansion leases exactly three buffers (retrieved, delta, without)
  // from the universe's scratch arena; after a warm-up run every lease
  // must be served from the pool, never freshly allocated.
  IskrExpander iskr;
  iskr.Expand(*context_);  // Warm the arena.
  const ScratchArenaStats before =
      universe_->scratch_arena_stats();
  constexpr size_t kRuns = 3;
  for (size_t i = 0; i < kRuns; ++i) iskr.Expand(*context_);
  const ScratchArenaStats after =
      universe_->scratch_arena_stats();
  EXPECT_EQ(after.allocs, before.allocs);
  EXPECT_EQ(after.reuses, before.reuses + kRuns * 3);
}

TEST_F(PaperExampleFixture, SweepPoolStopsSpawningAfterWarmup) {
  // Thread-side mirror of ScratchArenaStopsAllocatingAfterWarmup: a
  // parallel sweep used to spawn a fresh std::vector<std::thread> per
  // candidate scan. With the persistent SweepPool a single warm-up
  // expansion sizes the pool; every later sweep must be served entirely
  // by parked workers — zero thread spawns in the steady state.
  IskrExpander iskr(IskrOptions{}, SweepOptions{/*threads=*/4});
  iskr.Expand(*context_);  // Warm the pool.
  const common::SweepPool::Stats before =
      common::SweepPool::Instance().GetStats();
  constexpr size_t kRuns = 3;
  for (size_t i = 0; i < kRuns; ++i) iskr.Expand(*context_);
  const common::SweepPool::Stats after =
      common::SweepPool::Instance().GetStats();
  EXPECT_EQ(after.spawns, before.spawns);
  EXPECT_GT(after.runs, before.runs);
  // Every parallel run brings >= 1 helper, and with spawns flat each
  // helper start is a reuse. (The exact count varies: sweeps clamp the
  // thread count to the shrinking candidate list.)
  EXPECT_GE(after.reuses - before.reuses, after.runs - before.runs);
}

TEST_F(PaperExampleFixture, TraceFMeasureIsFinalQuality) {
  std::vector<IskrStep> trace;
  ExpansionResult result = IskrExpander().ExpandWithTrace(*context_, &trace);
  ASSERT_FALSE(trace.empty());
  EXPECT_DOUBLE_EQ(trace.back().f_measure_after, result.quality.f_measure);
}

// ------------------------------------------------ small synthetic cases --

class TinyFixture : public ::testing::Test {
 protected:
  void Build(const std::vector<std::string>& bodies, size_t cluster_size,
             const std::vector<std::string>& candidates) {
    for (size_t i = 0; i < bodies.size(); ++i) {
      ids_.push_back(corpus_.AddTextDocument(std::to_string(i), bodies[i]));
    }
    universe_ = std::make_unique<ResultUniverse>(corpus_, ids_);
    DynamicBitset cluster(universe_->size());
    for (size_t i = 0; i < cluster_size; ++i) cluster.Set(i);
    std::vector<TermId> cand_ids;
    for (const auto& c : candidates) {
      cand_ids.push_back(corpus_.analyzer().vocabulary().Lookup(c));
    }
    context_ = std::make_unique<ExpansionContext>(
        MakeContext(*universe_, {corpus_.analyzer().vocabulary().Lookup("q")},
                    cluster, cand_ids));
  }

  doc::Corpus corpus_;
  std::vector<DocId> ids_;
  std::unique_ptr<ResultUniverse> universe_;
  std::unique_ptr<ExpansionContext> context_;
};

TEST_F(TinyFixture, PerfectSeparatorIsChosen) {
  Build({"q cat tail", "q cat whisker", "q dog bone", "q dog bark"}, 2,
        {"cat", "dog", "tail"});
  ExpansionResult r = IskrExpander().Expand(*context_);
  EXPECT_DOUBLE_EQ(r.quality.f_measure, 1.0);
  ASSERT_EQ(r.query.size(), 2u);
  EXPECT_EQ(corpus_.analyzer().vocabulary().TermString(r.query[1]), "cat");
}

TEST_F(TinyFixture, NoUsefulKeywordLeavesQueryUnchanged) {
  // Every candidate appears in all results: nothing can be eliminated.
  Build({"q common", "q common", "q common"}, 2, {"common"});
  ExpansionResult r = IskrExpander().Expand(*context_);
  EXPECT_EQ(r.query.size(), 1u);
  EXPECT_EQ(r.iterations, 0u);
  // q retrieves everything: precision 2/3, recall 1.
  EXPECT_NEAR(r.quality.precision, 2.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(r.quality.recall, 1.0);
}

TEST_F(TinyFixture, EmptyCandidateListIsFine) {
  Build({"q a", "q b"}, 1, {});
  ExpansionResult r = IskrExpander().Expand(*context_);
  EXPECT_EQ(r.query.size(), 1u);
  EXPECT_EQ(r.value_recomputations, 0u);
}

TEST_F(TinyFixture, SingletonClusterGetsSelectiveQuery) {
  Build({"q unique special", "q other noise", "q other hum"}, 1,
        {"unique", "special", "other"});
  ExpansionResult r = IskrExpander().Expand(*context_);
  EXPECT_DOUBLE_EQ(r.quality.f_measure, 1.0);
}

TEST_F(TinyFixture, WeightedResultsPrioritizeHighRank) {
  // Two candidate keywords; "hot" keeps the heavy in-cluster doc, "cold"
  // keeps the light one. The weighted benefit/cost must prefer "hot".
  std::vector<std::string> bodies = {"q hot heavy", "q cold light",
                                     "q noise other"};
  for (size_t i = 0; i < bodies.size(); ++i) {
    ids_.push_back(corpus_.AddTextDocument(std::to_string(i), bodies[i]));
  }
  std::vector<index::RankedResult> ranked = {
      {ids_[0], 10.0}, {ids_[1], 1.0}, {ids_[2], 5.0}};
  universe_ = std::make_unique<ResultUniverse>(corpus_, ranked);
  DynamicBitset cluster(3);
  cluster.Set(0);
  cluster.Set(1);
  auto T = [&](const char* w) {
    return corpus_.analyzer().vocabulary().Lookup(w);
  };
  ExpansionContext ctx =
      MakeContext(*universe_, {T("q")}, cluster, {T("hot"), T("cold")});
  ExpansionResult r = IskrExpander().Expand(ctx);
  // "hot" eliminates U (benefit 5) at cost of losing doc1 (weight 1):
  // value 5. "cold" eliminates U (5) at cost of doc0 (10): value 0.5.
  ASSERT_EQ(r.query.size(), 2u);
  EXPECT_EQ(corpus_.analyzer().vocabulary().TermString(r.query[1]), "hot");
}

TEST_F(TinyFixture, StopsWhenValueNotAboveOne) {
  // Adding "even" eliminates one U doc but also one C doc (value exactly
  // 1): ISKR must not take it.
  Build({"q even", "q", "q even", "q"}, 2, {"even"});
  // C = {0,1}, U = {2,3}. E(even) = {1,3}: benefit 1 (doc3), cost 1 (doc1).
  ExpansionResult r = IskrExpander().Expand(*context_);
  EXPECT_EQ(r.query.size(), 1u);
  EXPECT_EQ(r.iterations, 0u);
}

TEST_F(TinyFixture, DeterministicAcrossRuns) {
  Build({"q cat a", "q cat b", "q dog c", "q dog d"}, 2, {"cat", "dog"});
  ExpansionResult a = IskrExpander().Expand(*context_);
  ExpansionResult b = IskrExpander().Expand(*context_);
  EXPECT_EQ(a.query, b.query);
  EXPECT_EQ(a.iterations, b.iterations);
}

}  // namespace
}  // namespace qec::core
