// Tests for core metrics (Sec. 2: weighted precision/recall/F-measure and
// the Eq. 1 set score) and the ResultUniverse set algebra.

#include <gtest/gtest.h>

#include "core/expansion_context.h"
#include "core/metrics.h"
#include "core/result_universe.h"
#include "doc/corpus.h"

namespace qec::core {
namespace {

class MetricsTest : public ::testing::Test {
 protected:
  MetricsTest() {
    // Four docs, all containing "q"; varying extra terms.
    ids_.push_back(corpus_.AddTextDocument("0", "q red green"));
    ids_.push_back(corpus_.AddTextDocument("1", "q red"));
    ids_.push_back(corpus_.AddTextDocument("2", "q green"));
    ids_.push_back(corpus_.AddTextDocument("3", "q blue"));
  }

  TermId T(const std::string& w) const {
    return corpus_.analyzer().vocabulary().Lookup(w);
  }

  doc::Corpus corpus_;
  std::vector<DocId> ids_;
};

TEST_F(MetricsTest, UniverseBasics) {
  ResultUniverse u(corpus_, ids_);
  EXPECT_EQ(u.size(), 4u);
  EXPECT_DOUBLE_EQ(u.total_weight(), 4.0);
  EXPECT_EQ(u.DocsWithTerm(T("red")).Count(), 2u);
  EXPECT_EQ(u.DocsWithTerm(T("q")).Count(), 4u);
  EXPECT_EQ(u.DocsWithTerm(99999).Count(), 0u);
  DynamicBitset without_red = u.FullSet();
  without_red.AndNot(u.DocsWithTerm(T("red")));
  EXPECT_EQ(without_red.Count(), 2u);
}

TEST_F(MetricsTest, RetrieveIsConjunctive) {
  ResultUniverse u(corpus_, ids_);
  EXPECT_EQ(u.Retrieve({T("q")}).Count(), 4u);
  EXPECT_EQ(u.Retrieve({T("q"), T("red")}).Count(), 2u);
  EXPECT_EQ(u.Retrieve({T("red"), T("green")}).Count(), 1u);
  EXPECT_EQ(u.Retrieve({T("red"), T("blue")}).Count(), 0u);
  EXPECT_EQ(u.Retrieve({}).Count(), 4u);
}

TEST_F(MetricsTest, RankedWeights) {
  std::vector<index::RankedResult> ranked = {
      {ids_[0], 4.0}, {ids_[1], 3.0}, {ids_[2], 2.0}, {ids_[3], 1.0}};
  ResultUniverse u(corpus_, ranked);
  EXPECT_DOUBLE_EQ(u.total_weight(), 10.0);
  DynamicBitset red = u.DocsWithTerm(T("red"));
  EXPECT_DOUBLE_EQ(u.TotalWeight(red), 7.0);
}

TEST_F(MetricsTest, NonPositiveScoresClamped) {
  std::vector<index::RankedResult> ranked = {{ids_[0], 0.0}, {ids_[1], -1.0}};
  ResultUniverse u(corpus_, ranked);
  EXPECT_GT(u.total_weight(), 0.0);
}

TEST_F(MetricsTest, TotalTermFrequencyAggregates) {
  ResultUniverse u(corpus_, ids_);
  EXPECT_EQ(u.TotalTermFrequency(T("red")), 2);
  EXPECT_EQ(u.TotalTermFrequency(T("q")), 4);
  EXPECT_EQ(u.TotalTermFrequency(99999), 0);
}

TEST_F(MetricsTest, DistinctTermsSorted) {
  ResultUniverse u(corpus_, ids_);
  const auto& terms = u.DistinctTerms();
  EXPECT_EQ(terms.size(), 4u);  // q red green blue
  for (size_t i = 1; i < terms.size(); ++i) EXPECT_LT(terms[i - 1], terms[i]);
}

// -------------------------------------------------------- EvaluateQuery --

TEST_F(MetricsTest, PerfectQuery) {
  ResultUniverse u(corpus_, ids_);
  DynamicBitset cluster(4);
  cluster.Set(0);
  cluster.Set(1);  // C = {docs containing red}
  DynamicBitset retrieved = u.Retrieve({T("q"), T("red")});
  QueryQuality q = EvaluateQuery(u, retrieved, cluster);
  EXPECT_DOUBLE_EQ(q.precision, 1.0);
  EXPECT_DOUBLE_EQ(q.recall, 1.0);
  EXPECT_DOUBLE_EQ(q.f_measure, 1.0);
}

TEST_F(MetricsTest, PartialOverlap) {
  ResultUniverse u(corpus_, ids_);
  DynamicBitset cluster(4);
  cluster.Set(0);
  cluster.Set(3);
  DynamicBitset retrieved = u.Retrieve({T("green")});  // docs 0, 2
  QueryQuality q = EvaluateQuery(u, retrieved, cluster);
  EXPECT_DOUBLE_EQ(q.precision, 0.5);
  EXPECT_DOUBLE_EQ(q.recall, 0.5);
  EXPECT_DOUBLE_EQ(q.f_measure, 0.5);
}

TEST_F(MetricsTest, EmptyRetrievedGivesZero) {
  ResultUniverse u(corpus_, ids_);
  DynamicBitset cluster(4);
  cluster.Set(0);
  QueryQuality q = EvaluateQuery(u, DynamicBitset(4), cluster);
  EXPECT_DOUBLE_EQ(q.precision, 0.0);
  EXPECT_DOUBLE_EQ(q.recall, 0.0);
  EXPECT_DOUBLE_EQ(q.f_measure, 0.0);
}

TEST_F(MetricsTest, EmptyClusterGivesZero) {
  ResultUniverse u(corpus_, ids_);
  QueryQuality q = EvaluateQuery(u, u.FullSet(), DynamicBitset(4));
  EXPECT_DOUBLE_EQ(q.recall, 0.0);
  EXPECT_DOUBLE_EQ(q.f_measure, 0.0);
}

TEST_F(MetricsTest, WeightedPrecisionRecall) {
  // Weights: doc0=4, doc1=3, doc2=2, doc3=1. C = {0,1} (weight 7).
  std::vector<index::RankedResult> ranked = {
      {ids_[0], 4.0}, {ids_[1], 3.0}, {ids_[2], 2.0}, {ids_[3], 1.0}};
  ResultUniverse u(corpus_, ranked);
  DynamicBitset cluster(4);
  cluster.Set(0);
  cluster.Set(1);
  // Retrieve "green": docs {0, 2} with weights {4, 2}.
  DynamicBitset retrieved = u.Retrieve({T("green")});
  QueryQuality q = EvaluateQuery(u, retrieved, cluster);
  EXPECT_DOUBLE_EQ(q.precision, 4.0 / 6.0);
  EXPECT_DOUBLE_EQ(q.recall, 4.0 / 7.0);
}

// --------------------------------------------------------- HarmonicMean --

TEST(HarmonicMeanTest, BasicValues) {
  EXPECT_DOUBLE_EQ(HarmonicMean({1.0, 1.0}), 1.0);
  EXPECT_DOUBLE_EQ(HarmonicMean({0.5}), 0.5);
  EXPECT_NEAR(HarmonicMean({1.0, 0.5}), 2.0 / 3.0, 1e-12);
}

TEST(HarmonicMeanTest, ZeroDominates) {
  EXPECT_DOUBLE_EQ(HarmonicMean({1.0, 0.0, 1.0}), 0.0);
}

TEST(HarmonicMeanTest, EmptyIsZero) { EXPECT_DOUBLE_EQ(HarmonicMean({}), 0.0); }

TEST(HarmonicMeanTest, BoundedByMinAndArithmeticMean) {
  std::vector<double> values{0.9, 0.4, 0.7};
  double hm = HarmonicMean(values);
  EXPECT_GE(hm, 0.4);                        // >= min
  EXPECT_LE(hm, (0.9 + 0.4 + 0.7) / 3.0);    // <= arithmetic mean
}

TEST(SetScoreTest, AggregatesFMeasures) {
  QueryQuality a;
  a.f_measure = 1.0;
  QueryQuality b;
  b.f_measure = 0.5;
  EXPECT_NEAR(SetScore({a, b}), 2.0 / 3.0, 1e-12);
}

// ------------------------------------------------------------ MakeContext

TEST_F(MetricsTest, MakeContextComplementsCluster) {
  ResultUniverse u(corpus_, ids_);
  DynamicBitset cluster(4);
  cluster.Set(1);
  cluster.Set(2);
  ExpansionContext ctx = MakeContext(u, {T("q")}, cluster, {T("red")});
  EXPECT_EQ(ctx.cluster.Count(), 2u);
  EXPECT_EQ(ctx.others.Count(), 2u);
  EXPECT_FALSE(ctx.cluster.Intersects(ctx.others));
  DynamicBitset all = ctx.cluster;
  all |= ctx.others;
  EXPECT_EQ(all.Count(), 4u);
}

TEST_F(MetricsTest, EvaluateAgainstCluster) {
  ResultUniverse u(corpus_, ids_);
  DynamicBitset cluster(4);
  cluster.Set(0);
  cluster.Set(1);
  ExpansionContext ctx = MakeContext(u, {T("q")}, cluster, {});
  QueryQuality q = EvaluateAgainstCluster(ctx, {T("q"), T("red")});
  EXPECT_DOUBLE_EQ(q.f_measure, 1.0);
}

}  // namespace
}  // namespace qec::core
