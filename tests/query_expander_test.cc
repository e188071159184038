// Tests for candidate selection and the end-to-end QueryExpander engine.

#include <gtest/gtest.h>

#include <chrono>
#include <set>

#include "cluster/cosine_space.h"
#include "cluster/hac.h"
#include "core/candidates.h"
#include "core/query_expander.h"
#include "datagen/clustered.h"
#include "datagen/shopping.h"
#include "doc/corpus.h"
#include "index/inverted_index.h"
#include "obs/metrics.h"

namespace qec::core {
namespace {

class EngineFixture : public ::testing::Test {
 protected:
  EngineFixture() {
    // Two clear senses of "apple" plus one outlier.
    corpus_.AddTextDocument("s0", "apple store iphone retail apple");
    corpus_.AddTextDocument("s1", "apple store retail launch apple");
    corpus_.AddTextDocument("s2", "apple store iphone keynote apple");
    corpus_.AddTextDocument("f0", "apple fruit orchard harvest");
    corpus_.AddTextDocument("f1", "apple fruit cider orchard");
    corpus_.AddTextDocument("x0", "banana bread recipe");
    index_ = std::make_unique<index::InvertedIndex>(corpus_);
  }

  TermId T(const std::string& w) const {
    return corpus_.analyzer().vocabulary().Lookup(w);
  }

  doc::Corpus corpus_;
  std::unique_ptr<index::InvertedIndex> index_;
};

// ------------------------------------------------------ SelectCandidates

TEST_F(EngineFixture, CandidatesExcludeUserQueryTerms) {
  auto results = index_->Search({T("apple")});
  ResultUniverse universe(corpus_, results);
  CandidateOptions options;
  options.fraction = 1.0;
  auto candidates =
      SelectCandidates(universe, *index_, {T("apple")}, options);
  for (TermId c : candidates) EXPECT_NE(c, T("apple"));
  EXPECT_FALSE(candidates.empty());
}

TEST_F(EngineFixture, CandidatesDropUniversalTerms) {
  // "apple" appears in every result but is the query term anyway; craft a
  // term in all results: every apple doc also has... none. So instead check
  // that a term present in all universe docs is dropped when flagged.
  doc::Corpus corpus;
  std::vector<DocId> ids;
  ids.push_back(corpus.AddTextDocument("0", "q omni red"));
  ids.push_back(corpus.AddTextDocument("1", "q omni blue"));
  index::InvertedIndex idx(corpus);
  ResultUniverse universe(corpus, ids);
  CandidateOptions options;
  options.fraction = 1.0;
  auto vocab = [&](const char* w) {
    return corpus.analyzer().vocabulary().Lookup(w);
  };
  auto candidates = SelectCandidates(universe, idx, {vocab("q")}, options);
  std::set<TermId> set(candidates.begin(), candidates.end());
  EXPECT_EQ(set.count(vocab("omni")), 0u);
  EXPECT_EQ(set.count(vocab("red")), 1u);
  options.drop_universal_terms = false;
  candidates = SelectCandidates(universe, idx, {vocab("q")}, options);
  set = std::set<TermId>(candidates.begin(), candidates.end());
  EXPECT_EQ(set.count(vocab("omni")), 1u);
}

TEST_F(EngineFixture, CandidateFractionLimitsCount) {
  auto results = index_->Search({T("apple")});
  ResultUniverse universe(corpus_, results);
  CandidateOptions all;
  all.fraction = 1.0;
  CandidateOptions fifth;
  fifth.fraction = 0.2;
  auto full = SelectCandidates(universe, *index_, {T("apple")}, all);
  auto top = SelectCandidates(universe, *index_, {T("apple")}, fifth);
  EXPECT_LT(top.size(), full.size());
  EXPECT_GE(top.size(), 1u);
  // The top-20% list is a prefix of the full TF-IDF ordering.
  for (size_t i = 0; i < top.size(); ++i) EXPECT_EQ(top[i], full[i]);
}

TEST_F(EngineFixture, MaxCandidatesCap) {
  auto results = index_->Search({T("apple")});
  ResultUniverse universe(corpus_, results);
  CandidateOptions options;
  options.fraction = 1.0;
  options.max_candidates = 2;
  auto candidates =
      SelectCandidates(universe, *index_, {T("apple")}, options);
  EXPECT_EQ(candidates.size(), 2u);
}

// --------------------------------------------------------- QueryExpander

TEST_F(EngineFixture, ExpandTextFullPipeline) {
  QueryExpanderOptions options;
  options.max_clusters = 2;
  options.candidates.fraction = 1.0;
  QueryExpander expander(*index_, options);
  auto outcome = expander.ExpandText("apple");
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->num_results_used, 5u);
  EXPECT_GE(outcome->num_clusters, 1u);
  EXPECT_LE(outcome->num_clusters, 2u);
  EXPECT_EQ(outcome->queries.size(), outcome->num_clusters);
  EXPECT_GT(outcome->set_score, 0.0);
  EXPECT_LE(outcome->set_score, 1.0);
  for (const auto& eq : outcome->queries) {
    EXPECT_EQ(eq.keywords[0], "apple");
    EXPECT_EQ(eq.keywords.size(), eq.terms.size());
  }
}

TEST_F(EngineFixture, SeparatesSensesPerfectly) {
  QueryExpanderOptions options;
  options.max_clusters = 2;
  options.candidates.fraction = 1.0;
  QueryExpander expander(*index_, options);
  auto outcome = expander.ExpandText("apple");
  ASSERT_TRUE(outcome.ok());
  // "store" docs vs "fruit" docs are fully separable.
  EXPECT_DOUBLE_EQ(outcome->set_score, 1.0);
}

TEST_F(EngineFixture, UnknownQueryIsInvalidArgument) {
  QueryExpander expander(*index_);
  auto outcome = expander.ExpandText("zzzunknown");
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(EngineFixture, NoResultsIsNotFound) {
  QueryExpander expander(*index_);
  // Both words known, but no document contains both.
  auto outcome = expander.ExpandText("banana iphone");
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kNotFound);
}

TEST_F(EngineFixture, TopKLimitsUniverse) {
  QueryExpanderOptions options;
  options.top_k_results = 3;
  options.max_clusters = 2;
  QueryExpander expander(*index_, options);
  auto outcome = expander.ExpandText("apple");
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->num_results_used, 3u);
}

TEST_F(EngineFixture, AllAlgorithmsRunThroughEngine) {
  for (auto algorithm :
       {ExpansionAlgorithm::kIskr, ExpansionAlgorithm::kPebc,
        ExpansionAlgorithm::kFMeasure}) {
    QueryExpanderOptions options;
    options.algorithm = algorithm;
    options.max_clusters = 2;
    options.candidates.fraction = 1.0;
    QueryExpander expander(*index_, options);
    auto outcome = expander.ExpandText("apple");
    ASSERT_TRUE(outcome.ok()) << AlgorithmName(algorithm);
    EXPECT_FALSE(outcome->queries.empty());
  }
}

TEST_F(EngineFixture, UnrankedWeightsOption) {
  QueryExpanderOptions options;
  options.use_ranking_weights = false;
  options.max_clusters = 2;
  options.candidates.fraction = 1.0;
  QueryExpander expander(*index_, options);
  auto outcome = expander.ExpandText("apple");
  ASSERT_TRUE(outcome.ok());
  EXPECT_GT(outcome->set_score, 0.0);
}

TEST_F(EngineFixture, MaxClustersBoundsQueries) {
  QueryExpanderOptions options;
  options.max_clusters = 5;
  QueryExpander expander(*index_, options);
  auto outcome = expander.ExpandText("apple");
  ASSERT_TRUE(outcome.ok());
  EXPECT_LE(outcome->queries.size(), 5u);
}

// ---------------------------------------------------------------- phases

TEST_F(EngineFixture, ExpandTextTimesEveryPhaseButMinimize) {
  auto outcome = QueryExpander(*index_).ExpandText("apple");
  ASSERT_TRUE(outcome.ok());
  for (size_t i = 0; i < kNumPhases; ++i) {
    const Phase phase = static_cast<Phase>(i);
    SCOPED_TRACE(std::string(kPhaseNames[i]));
    if (phase == Phase::kMinimize) {
      EXPECT_EQ(outcome->phases[phase], 0u);
    } else {
      EXPECT_GT(outcome->phases[phase], 0u);
    }
  }
}

TEST_F(EngineFixture, MinimizePhaseRunsWithMinimizeQueries) {
  QueryExpanderOptions options;
  options.minimize_queries = true;
  auto outcome = QueryExpander(*index_, options).ExpandText("apple");
  ASSERT_TRUE(outcome.ok());
  EXPECT_GT(outcome->phases[Phase::kMinimize], 0u);
  EXPECT_EQ(outcome->phases.expansion_ns(),
            outcome->phases[Phase::kExpand] +
                outcome->phases[Phase::kMinimize]);
}

TEST_F(EngineFixture, PhasesSumToNoMoreThanTheWallClock) {
  const QueryExpander expander(*index_);
  const auto start = std::chrono::steady_clock::now();
  auto outcome = expander.ExpandText("apple");
  const std::chrono::nanoseconds wall =
      std::chrono::steady_clock::now() - start;
  ASSERT_TRUE(outcome.ok());
  uint64_t sum = 0;
  for (uint64_t ns : outcome->phases.ns) sum += ns;
  EXPECT_LE(sum, static_cast<uint64_t>(wall.count()));
}

TEST_F(EngineFixture, ExpandClusteredTimesOnlyItsOwnPhases) {
  QueryExpanderOptions options;
  options.minimize_queries = true;
  const QueryExpander expander(*index_, options);
  const std::vector<TermId> terms = {T("apple")};
  const ResultUniverse universe(corpus_, index_->Search(terms));
  cluster::KMeansOptions kmeans;
  kmeans.k = 2;
  const cluster::CosineSpace space(universe.term_rows());
  const cluster::Clustering clustering = cluster::KMeans(kmeans).Cluster(space);
  const ExpansionOutcome outcome =
      expander.ExpandClustered(terms, universe, clustering);
  for (size_t i = 0; i < kNumPhases; ++i) {
    const Phase phase = static_cast<Phase>(i);
    SCOPED_TRACE(std::string(kPhaseNames[i]));
    if (phase == Phase::kCandidates || phase == Phase::kExpand ||
        phase == Phase::kMinimize) {
      EXPECT_GT(outcome.phases[phase], 0u);
    } else {
      EXPECT_EQ(outcome.phases[phase], 0u);
    }
  }
}

#ifndef QEC_DISABLE_TRACING
TEST_F(EngineFixture, ExpandTextRecordsOneClusterPhaseSample) {
  const obs::Histogram* cluster_ns =
      obs::MetricsRegistry::Global().GetHistogram("engine/phase/cluster_ns");
  const uint64_t before = cluster_ns->count();
  ASSERT_TRUE(QueryExpander(*index_).ExpandText("apple").ok());
  EXPECT_EQ(cluster_ns->count(), before + 1);
}
#endif

// ---------------------------------------------------------- determinism

// Threaded per-cluster expansion and the opt-in set-algebra memo are pure
// execution strategies: they must produce byte-identical outcomes to the
// serial, uncached pipeline for every algorithm.
// Everything an execution strategy (threads, memo, sweeps, kernel tier)
// could perturb: queries, qualities, the work counters and EXPLAIN rows,
// all compared exactly.
void ExpectIdenticalOutcomes(const ExpansionOutcome& a,
                             const ExpansionOutcome& b) {
  EXPECT_EQ(a.num_clusters, b.num_clusters);
  EXPECT_EQ(a.num_results_used, b.num_results_used);
  EXPECT_EQ(a.set_score, b.set_score);  // exact, not approximate
  EXPECT_EQ(a.iskr_stats.steps, b.iskr_stats.steps);
  EXPECT_EQ(a.iskr_stats.additions, b.iskr_stats.additions);
  EXPECT_EQ(a.iskr_stats.removals, b.iskr_stats.removals);
  EXPECT_EQ(a.iskr_stats.candidates_evaluated,
            b.iskr_stats.candidates_evaluated);
  EXPECT_EQ(a.pebc_stats.samples_drawn, b.pebc_stats.samples_drawn);
  EXPECT_EQ(a.pebc_stats.rounds, b.pebc_stats.rounds);
  EXPECT_EQ(a.pebc_stats.intervals_zoomed, b.pebc_stats.intervals_zoomed);
  EXPECT_EQ(a.pebc_stats.candidates_evaluated,
            b.pebc_stats.candidates_evaluated);
  EXPECT_EQ(a.pebc_stats.best_target_percent,
            b.pebc_stats.best_target_percent);
  ASSERT_EQ(a.queries.size(), b.queries.size());
  for (size_t i = 0; i < a.queries.size(); ++i) {
    const ExpandedQuery& qa = a.queries[i];
    const ExpandedQuery& qb = b.queries[i];
    EXPECT_EQ(qa.terms, qb.terms);
    EXPECT_EQ(qa.keywords, qb.keywords);
    EXPECT_EQ(qa.cluster_index, qb.cluster_index);
    EXPECT_EQ(qa.cluster_size, qb.cluster_size);
    EXPECT_EQ(qa.quality.precision, qb.quality.precision);
    EXPECT_EQ(qa.quality.recall, qb.quality.recall);
    EXPECT_EQ(qa.quality.f_measure, qb.quality.f_measure);
    EXPECT_EQ(qa.iterations, qb.iterations);
    EXPECT_EQ(qa.value_recomputations, qb.value_recomputations);
    ASSERT_EQ(qa.term_details.size(), qb.term_details.size());
    for (size_t r = 0; r < qa.term_details.size(); ++r) {
      const TermExplain& ra = qa.term_details[r];
      const TermExplain& rb = qb.term_details[r];
      EXPECT_EQ(ra.term, rb.term);
      EXPECT_EQ(ra.is_removal, rb.is_removal);
      EXPECT_EQ(ra.benefit, rb.benefit);
      EXPECT_EQ(ra.cost, rb.cost);
      EXPECT_EQ(ra.value, rb.value);
    }
  }
}

class DeterminismFixture
    : public ::testing::TestWithParam<ExpansionAlgorithm> {
 protected:
  DeterminismFixture()
      : corpus_(datagen::ShoppingGenerator().Generate()), index_(corpus_) {}

  ExpansionOutcome Run(size_t num_threads, bool memoize,
                       size_t sweep_threads = 1, bool explain = false) const {
    QueryExpanderOptions options;
    options.algorithm = GetParam();
    options.candidates.fraction = 1.0;
    options.num_threads = num_threads;
    options.memoize_set_algebra = memoize;
    options.sweep.threads = sweep_threads;
    options.explain_terms = explain;
    QueryExpander expander(index_, options);
    auto outcome = expander.ExpandText("canon products");
    EXPECT_TRUE(outcome.ok()) << outcome.status().ToString();
    return std::move(outcome).value();
  }

  doc::Corpus corpus_;
  index::InvertedIndex index_;
};

TEST_P(DeterminismFixture, ThreadedMatchesSerial) {
  const ExpansionOutcome serial = Run(1, false);
  EXPECT_GT(serial.num_clusters, 1u);  // threading must have real work
  for (size_t threads : {size_t{2}, size_t{8}, size_t{0}}) {
    SCOPED_TRACE("num_threads=" + std::to_string(threads));
    ExpectIdenticalOutcomes(serial, Run(threads, false));
  }
}

TEST_P(DeterminismFixture, MemoizedSetAlgebraMatchesUncached) {
  const ExpansionOutcome plain = Run(1, false);
  ExpectIdenticalOutcomes(plain, Run(1, true));
  // Memo + threads together (the server's configuration).
  ExpectIdenticalOutcomes(plain, Run(8, true));
}

TEST_P(DeterminismFixture, ParallelCandidateSweepMatchesSerial) {
  // Every algorithm fans its candidate sweeps out over sweep_threads
  // ParallelFor workers; the option is a pure execution strategy and must
  // leave every outcome byte-identical.
  const ExpansionOutcome serial = Run(1, false, /*sweep_threads=*/1);
  for (size_t sweep : {size_t{2}, size_t{8}, size_t{0}}) {
    SCOPED_TRACE("sweep_threads=" + std::to_string(sweep));
    ExpectIdenticalOutcomes(serial, Run(1, false, sweep));
  }
  // All execution strategies at once: cluster threads + memo + sweep.
  ExpectIdenticalOutcomes(serial, Run(8, true, 8));
}

TEST_P(DeterminismFixture, ExplainRowsMatchAcrossExecutionStrategies) {
  const ExpansionOutcome serial = Run(1, false, 1, /*explain=*/true);
  size_t rows = 0;
  for (const ExpandedQuery& q : serial.queries) rows += q.term_details.size();
  EXPECT_GT(rows, 0u);
  ExpectIdenticalOutcomes(serial, Run(8, true, 8, /*explain=*/true));
}

INSTANTIATE_TEST_SUITE_P(Algorithms, DeterminismFixture,
                         ::testing::Values(ExpansionAlgorithm::kIskr,
                                           ExpansionAlgorithm::kPebc,
                                           ExpansionAlgorithm::kFMeasure),
                         [](const auto& info) {
                           return std::string(AlgorithmName(info.param)) ==
                                          "F-measure"
                                      ? "FMeasure"
                                      : std::string(AlgorithmName(info.param));
                         });

// The engine clusters one CosineSpace built from the universe's term rows;
// clustering the results' SparseVector list instead, then expanding that
// clustering, must give the same outcome.
class EngineSpaceRouteTest
    : public ::testing::TestWithParam<ClusteringAlgorithm> {};

TEST_P(EngineSpaceRouteTest, ExpandTextMatchesClusteringSparseVectors) {
  datagen::ShoppingOptions shopping;
  shopping.products_per_family = 30;
  const doc::Corpus corpus = datagen::ShoppingGenerator(shopping).Generate();
  const index::InvertedIndex index(corpus);
  QueryExpanderOptions options;
  options.top_k_results = 0;  // all results
  options.clustering = GetParam();
  const QueryExpander expander(index, options);
  for (const char* query : {"canon products", "tv plasma", "camera"}) {
    SCOPED_TRACE(query);
    auto outcome = expander.ExpandText(query);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();

    const std::vector<TermId> terms =
        corpus.analyzer().AnalyzeReadOnly(query);
    const ResultUniverse universe(corpus, index.Search(terms));
    std::vector<cluster::SparseVector> points;
    for (size_t i = 0; i < universe.size(); ++i) {
      points.push_back(cluster::SparseVector::FromDocument(
          corpus.Get(universe.doc_at(i))));
    }
    cluster::Clustering clustering;
    switch (GetParam()) {
      case ClusteringAlgorithm::kKMeans: {
        cluster::KMeansOptions kmeans = options.kmeans;
        kmeans.k = options.max_clusters;
        clustering = cluster::KMeans(kmeans).Cluster(points);
        break;
      }
      case ClusteringAlgorithm::kHac:
        clustering = cluster::Hac({.k = options.max_clusters,
                                   .auto_k = options.kmeans.auto_k})
                         .Cluster(points);
        break;
      case ClusteringAlgorithm::kDynamic:
        clustering = cluster::SelectBestClustering(
            points, options.max_clusters, options.kmeans.seed);
        break;
    }
    ExpectIdenticalOutcomes(
        expander.ExpandClustered(terms, universe, clustering), *outcome);
  }
}

INSTANTIATE_TEST_SUITE_P(Clusterings, EngineSpaceRouteTest,
                         ::testing::Values(ClusteringAlgorithm::kKMeans,
                                           ClusteringAlgorithm::kHac,
                                           ClusteringAlgorithm::kDynamic),
                         [](const auto& info) {
                           switch (info.param) {
                             case ClusteringAlgorithm::kKMeans:
                               return "KMeans";
                             case ClusteringAlgorithm::kHac:
                               return "Hac";
                             case ClusteringAlgorithm::kDynamic:
                               break;
                           }
                           return "Dynamic";
                         });

TEST(AlgorithmNameTest, AllNamesDistinct) {
  EXPECT_EQ(AlgorithmName(ExpansionAlgorithm::kIskr), "ISKR");
  EXPECT_EQ(AlgorithmName(ExpansionAlgorithm::kPebc), "PEBC");
  EXPECT_EQ(AlgorithmName(ExpansionAlgorithm::kFMeasure), "F-measure");
}

// ---------------------------------------------------------- explain_terms

TEST_F(EngineFixture, ExplainTermsOffByDefault) {
  QueryExpanderOptions options;
  options.candidates.fraction = 1.0;
  QueryExpander expander(*index_, options);
  auto outcome = expander.ExpandText("apple");
  ASSERT_TRUE(outcome.ok());
  for (const auto& query : outcome->queries) {
    EXPECT_TRUE(query.term_details.empty());
  }
}

TEST_F(EngineFixture, ExplainTermsCoverEveryChangedTermForAllAlgorithms) {
  for (auto algorithm :
       {ExpansionAlgorithm::kIskr, ExpansionAlgorithm::kPebc,
        ExpansionAlgorithm::kFMeasure}) {
    QueryExpanderOptions options;
    options.algorithm = algorithm;
    options.max_clusters = 2;
    options.candidates.fraction = 1.0;
    options.explain_terms = true;
    QueryExpander expander(*index_, options);
    auto outcome = expander.ExpandText("apple");
    ASSERT_TRUE(outcome.ok()) << AlgorithmName(algorithm);
    for (const auto& query : outcome->queries) {
      // Every term the algorithm added beyond the user query has a
      // benefit/cost row (ISKR removals additionally trace removals).
      std::set<TermId> explained;
      for (const auto& detail : query.term_details) {
        EXPECT_GE(detail.benefit, 0.0) << AlgorithmName(algorithm);
        EXPECT_GE(detail.cost, 0.0) << AlgorithmName(algorithm);
        if (!detail.is_removal) explained.insert(detail.term);
      }
      for (TermId term : query.terms) {
        if (term == T("apple")) continue;
        EXPECT_TRUE(explained.count(term) > 0)
            << AlgorithmName(algorithm) << " missing term " << term;
      }
    }
  }
}

TEST_F(EngineFixture, ExplainTermsDoNotChangeExpansionResults) {
  for (auto algorithm :
       {ExpansionAlgorithm::kIskr, ExpansionAlgorithm::kPebc,
        ExpansionAlgorithm::kFMeasure}) {
    QueryExpanderOptions options;
    options.algorithm = algorithm;
    options.max_clusters = 2;
    options.candidates.fraction = 1.0;
    QueryExpander plain(*index_, options);
    options.explain_terms = true;
    QueryExpander explained(*index_, options);
    auto a = plain.ExpandText("apple");
    auto b = explained.ExpandText("apple");
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_DOUBLE_EQ(a->set_score, b->set_score) << AlgorithmName(algorithm);
    ASSERT_EQ(a->queries.size(), b->queries.size());
    for (size_t i = 0; i < a->queries.size(); ++i) {
      EXPECT_EQ(a->queries[i].terms, b->queries[i].terms)
          << AlgorithmName(algorithm);
    }
  }
}

TEST(SweepThreadsTest, ThreadedSweepsMatchSerialExactly) {
  datagen::ClusteredOptions options;
  options.num_docs = 400;
  options.num_clusters = 4;
  doc::Corpus corpus = datagen::ClusteredGenerator(options).Generate();
  index::InvertedIndex index(corpus);
  for (auto algorithm :
       {core::ExpansionAlgorithm::kIskr, core::ExpansionAlgorithm::kPebc,
        core::ExpansionAlgorithm::kFMeasure}) {
    core::QueryExpanderOptions serial;
    serial.algorithm = algorithm;
    core::QueryExpanderOptions threaded = serial;
    threaded.sweep.threads = 4;
    core::QueryExpander a(index, serial);
    core::QueryExpander b(index, threaded);
    auto ra = a.ExpandText("c0t0");
    auto rb = b.ExpandText("c0t0");
    ASSERT_TRUE(ra.ok()) << ra.status().ToString();
    ASSERT_TRUE(rb.ok()) << rb.status().ToString();
    ASSERT_EQ(ra->set_score, rb->set_score);  // exact
    ASSERT_EQ(ra->queries.size(), rb->queries.size());
    for (size_t i = 0; i < ra->queries.size(); ++i) {
      EXPECT_EQ(ra->queries[i].terms, rb->queries[i].terms);
      EXPECT_EQ(ra->queries[i].value_recomputations,
                rb->queries[i].value_recomputations);
    }
  }
}

}  // namespace
}  // namespace qec::core
