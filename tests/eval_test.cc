// Tests for the evaluation layer: user-study simulator objective metrics,
// rater panel behaviour, the table printer, and the experiment harness.

#include <gtest/gtest.h>

#include "eval/harness.h"
#include "eval/table_printer.h"
#include "eval/user_study.h"

namespace qec::eval {
namespace {

using baselines::SuggestedQuery;

class UserStudyFixture : public ::testing::Test {
 protected:
  UserStudyFixture() {
    ids_.push_back(corpus_.AddTextDocument("0", "apple store iphone"));
    ids_.push_back(corpus_.AddTextDocument("1", "apple store retail"));
    ids_.push_back(corpus_.AddTextDocument("2", "apple fruit orchard"));
    ids_.push_back(corpus_.AddTextDocument("3", "apple fruit cider"));
    universe_ = std::make_unique<core::ResultUniverse>(corpus_, ids_);
    clustering_.assignment = {0, 0, 1, 1};
    clustering_.num_clusters = 2;
  }

  TermId T(const std::string& w) const {
    return corpus_.analyzer().vocabulary().Lookup(w);
  }

  SuggestedQuery Q(const std::vector<std::string>& words) const {
    SuggestedQuery q;
    q.keywords = words;
    for (const auto& w : words) {
      TermId t = T(w);
      if (t != kInvalidTermId) q.terms.push_back(t);
    }
    return q;
  }

  doc::Corpus corpus_;
  std::vector<DocId> ids_;
  std::unique_ptr<core::ResultUniverse> universe_;
  cluster::Clustering clustering_;
};

// ------------------------------------------------------ objective metrics

TEST_F(UserStudyFixture, PerfectClusterQueryScoresHigh) {
  double good = ObjectiveIndividualQuality(*universe_, clustering_,
                                           Q({"apple", "store"}));
  EXPECT_GT(good, 0.9);
}

TEST_F(UserStudyFixture, OffCorpusQueryScoresLow) {
  double off = ObjectiveIndividualQuality(*universe_, clustering_,
                                          Q({"apple", "zeppelin"}));
  EXPECT_LT(off, 0.3);
}

TEST_F(UserStudyFixture, PartialCoverageInBetween) {
  double partial = ObjectiveIndividualQuality(*universe_, clustering_,
                                              Q({"apple", "iphone"}));
  double good = ObjectiveIndividualQuality(*universe_, clustering_,
                                           Q({"apple", "store"}));
  EXPECT_LT(partial, good);
  EXPECT_GT(partial, 0.3);
}

TEST_F(UserStudyFixture, ComprehensivenessOfFullCover) {
  std::vector<SuggestedQuery> set = {Q({"apple", "store"}),
                                     Q({"apple", "fruit"})};
  EXPECT_DOUBLE_EQ(Comprehensiveness(*universe_, set), 1.0);
}

TEST_F(UserStudyFixture, ComprehensivenessOfPartialCover) {
  std::vector<SuggestedQuery> set = {Q({"apple", "store"})};
  EXPECT_DOUBLE_EQ(Comprehensiveness(*universe_, set), 0.5);
  EXPECT_DOUBLE_EQ(Comprehensiveness(*universe_, {}), 0.0);
}

TEST_F(UserStudyFixture, DiversityOfDisjointQueriesIsOne) {
  std::vector<SuggestedQuery> set = {Q({"apple", "store"}),
                                     Q({"apple", "fruit"})};
  EXPECT_DOUBLE_EQ(Diversity(*universe_, set), 1.0);
}

TEST_F(UserStudyFixture, DiversityOfNestedQueriesIsZero) {
  // {apple, iphone} ⊂ {apple, store}: overlap / min = 1 → diversity 0.
  std::vector<SuggestedQuery> set = {Q({"apple", "store"}),
                                     Q({"apple", "iphone"})};
  EXPECT_DOUBLE_EQ(Diversity(*universe_, set), 0.0);
}

TEST_F(UserStudyFixture, SingleQuerySetIsTriviallyDiverse) {
  EXPECT_DOUBLE_EQ(Diversity(*universe_, {Q({"apple", "store"})}), 1.0);
}

// -------------------------------------------------------------- rater sim

TEST_F(UserStudyFixture, GoodQueriesGetOptionA) {
  UserStudySimulator sim;
  auto a = sim.AssessIndividual(*universe_, clustering_, Q({"apple", "store"}));
  EXPECT_GT(a.mean_score, 4.0);
  EXPECT_GT(a.frac_a, 0.8);
  EXPECT_NEAR(a.frac_a + a.frac_b + a.frac_c, 1.0, 1e-9);
}

TEST_F(UserStudyFixture, BadQueriesGetOptionC) {
  UserStudySimulator sim;
  auto a = sim.AssessIndividual(*universe_, clustering_,
                                Q({"apple", "zeppelin"}));
  EXPECT_LT(a.mean_score, 2.5);
  EXPECT_GT(a.frac_c, 0.5);
}

TEST_F(UserStudyFixture, CollectiveComprehensiveDiverseGetsOptionC) {
  UserStudySimulator sim;
  auto a = sim.AssessCollective(
      *universe_, {Q({"apple", "store"}), Q({"apple", "fruit"})});
  EXPECT_GT(a.mean_score, 4.0);
  EXPECT_GT(a.frac_c, 0.8);  // Fig. 4: (C) = comprehensive and diverse
}

TEST_F(UserStudyFixture, CollectiveRedundantSetScoresLow) {
  UserStudySimulator sim;
  auto a = sim.AssessCollective(
      *universe_, {Q({"apple", "store"}), Q({"apple", "iphone"})});
  EXPECT_LT(a.mean_score, 3.0);
}

TEST_F(UserStudyFixture, DeterministicPanel) {
  UserStudySimulator sim;
  auto a = sim.AssessIndividual(*universe_, clustering_, Q({"apple", "store"}));
  auto b = sim.AssessIndividual(*universe_, clustering_, Q({"apple", "store"}));
  EXPECT_DOUBLE_EQ(a.mean_score, b.mean_score);
  EXPECT_DOUBLE_EQ(a.frac_a, b.frac_a);
}

// ----------------------------------------------------------- TablePrinter

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter t({"id", "value"});
  t.AddRow({"a", "1"});
  t.AddRow({"long-id", "2.5"});
  std::string out = t.ToString();
  EXPECT_NE(out.find("id       value"), std::string::npos);
  EXPECT_NE(out.find("long-id  2.5"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(TablePrinterTest, EmptyTableHasHeaderOnly) {
  TablePrinter t({"x"});
  std::string out = t.ToString();
  EXPECT_NE(out.find('x'), std::string::npos);
}

// --------------------------------------------------------------- harness

TEST(HarnessTest, BundlesAreReady) {
  auto shopping = MakeShoppingBundle();
  EXPECT_EQ(shopping.name, "shopping");
  EXPECT_EQ(shopping.queries.size(), 10u);
  EXPECT_GT(shopping.corpus->NumDocs(), 0u);

  datagen::WikipediaOptions small;
  small.docs_per_sense = 6;
  small.background_docs = 20;
  auto wikipedia = MakeWikipediaBundle(small);
  EXPECT_EQ(wikipedia.name, "wikipedia");
  EXPECT_EQ(wikipedia.queries.size(), 10u);
}

TEST(HarnessTest, PrepareQueryCaseBuildsSharedState) {
  auto bundle = MakeShoppingBundle();
  auto qc = PrepareQueryCase(bundle, "canon products");
  ASSERT_TRUE(qc.ok()) << qc.status().ToString();
  EXPECT_FALSE(qc->user_terms.empty());
  EXPECT_GT(qc->universe->size(), 0u);
  EXPECT_GE(qc->clustering.num_clusters, 1u);
  EXPECT_LE(qc->clustering.num_clusters, 5u);
  // Only the vectorize and cluster phases are timed.
  EXPECT_GT(qc->phases[core::Phase::kCluster], 0u);
  for (size_t p = 0; p < core::kNumPhases; ++p) {
    const auto phase = static_cast<core::Phase>(p);
    if (phase == core::Phase::kVectorize || phase == core::Phase::kCluster) {
      continue;
    }
    EXPECT_EQ(qc->phases[phase], 0u) << core::kPhaseNames[p];
  }
}

TEST(HarnessTest, PrepareQueryCaseRejectsUnknown) {
  auto bundle = MakeShoppingBundle();
  EXPECT_FALSE(PrepareQueryCase(bundle, "qqqq zzzz").ok());
}

TEST(HarnessTest, AllMethodsRunOnShoppingQuery) {
  auto bundle = MakeShoppingBundle();
  auto qc = PrepareQueryCase(bundle, "canon products");
  ASSERT_TRUE(qc.ok());
  baselines::QueryLogSuggester log(datagen::SyntheticQueryLog());
  for (Method m : TimingMethods()) {
    MethodRun run = RunMethod(bundle, *qc, m, &log, "canon products");
    EXPECT_FALSE(run.suggestions.empty()) << MethodName(m);
    EXPECT_GE(run.seconds, 0.0);
  }
  MethodRun google =
      RunMethod(bundle, *qc, Method::kGoogle, &log, "canon products");
  EXPECT_FALSE(google.suggestions.empty());
  EXPECT_LT(google.set_score, 0.0);  // inapplicable
}

TEST(HarnessTest, ClusterMethodsReportSetScore) {
  auto bundle = MakeShoppingBundle();
  auto qc = PrepareQueryCase(bundle, "canon products");
  ASSERT_TRUE(qc.ok());
  for (Method m : ScoreMethods()) {
    MethodRun run = RunMethod(bundle, *qc, m, nullptr, "canon products");
    EXPECT_GE(run.set_score, 0.0) << MethodName(m);
    EXPECT_LE(run.set_score, 1.0) << MethodName(m);
  }
}

TEST(HarnessTest, MethodNameAndLists) {
  EXPECT_EQ(MethodName(Method::kIskr), "ISKR");
  EXPECT_EQ(UserStudyMethods().size(), 5u);
  EXPECT_EQ(ScoreMethods().size(), 4u);
  EXPECT_EQ(TimingMethods().size(), 5u);
}

}  // namespace
}  // namespace qec::eval
