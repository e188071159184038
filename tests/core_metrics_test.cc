// Tests for core metrics (Sec. 2: weighted precision/recall/F-measure and
// the Eq. 1 set score) and the ResultUniverse set algebra.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>

#include "cluster/cosine_space.h"
#include "common/random.h"
#include "core/expansion_context.h"
#include "core/metrics.h"
#include "core/result_universe.h"
#include "datagen/shopping.h"
#include "datagen/wikipedia.h"
#include "datagen/workload.h"
#include "doc/corpus.h"
#include "index/inverted_index.h"

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

// ------------------------------------------------ Universe term lookups --

// DocsWithTerm, TotalTermFrequency, DistinctTerms and the term rows of `u`
// against a brute-force reference over its corpus: every vocabulary term,
// 200 TermIds past the vocabulary (past the presence bitmap's end) and the
// largest TermId.
void ExpectLookupsMatchCorpus(const ResultUniverse& u) {
  const doc::Corpus& corpus = u.corpus();
  const TermId vocab =
      static_cast<TermId>(corpus.analyzer().vocabulary().size());
  std::vector<TermId> distinct;
  for (TermId t = 0; t < vocab + 200; ++t) {
    DynamicBitset docs(u.size());
    int tf = 0;
    for (size_t i = 0; i < u.size(); ++i) {
      const int f = corpus.Get(u.doc_at(i)).TermFrequency(t);
      if (f > 0) docs.Set(i);
      tf += f;
    }
    if (docs.Any()) distinct.push_back(t);
    ASSERT_EQ(u.DocsWithTerm(t), docs) << "term " << t;
    ASSERT_EQ(u.TotalTermFrequency(t), tf) << "term " << t;
  }
  EXPECT_EQ(u.DocsWithTerm(kInvalidTermId), u.EmptySet());
  EXPECT_EQ(u.TotalTermFrequency(kInvalidTermId), 0);
  EXPECT_EQ(u.DistinctTerms(), distinct);

  // Row i is result i's term set over local ids (ranks in DistinctTerms),
  // weighted by term frequency.
  const cluster::TermRows& rows = u.term_rows();
  ASSERT_EQ(rows.size(), u.size());
  EXPECT_EQ(rows.dims, distinct.size());
  for (size_t i = 0; i < u.size(); ++i) {
    const doc::Document& d = corpus.Get(u.doc_at(i));
    ASSERT_EQ(rows.begin[i + 1] - rows.begin[i], d.term_set().size()) << i;
    for (size_t e = 0; e < d.term_set().size(); ++e) {
      const TermId t = d.term_set()[e];
      EXPECT_EQ(distinct[rows.term[rows.begin[i] + e]], t) << i;
      EXPECT_EQ(rows.weight[rows.begin[i] + e],
                static_cast<double>(d.TermFrequency(t)))
          << i;
    }
  }
}

TEST_F(MetricsTest, UniverseLookupsMatchCorpus) {
  ExpectLookupsMatchCorpus(ResultUniverse(corpus_, ids_));
}

TEST_F(MetricsTest, UniverseLookupsOfTermsOutsideTheResults) {
  // "green" is in the vocabulary but in neither result; "blue" has the
  // largest TermId, so every term above it lies past the results' terms.
  const ResultUniverse u(corpus_, std::vector<DocId>{ids_[1], ids_[3]});
  EXPECT_EQ(u.DocsWithTerm(T("green")), u.EmptySet());
  EXPECT_EQ(u.TotalTermFrequency(T("green")), 0);
  EXPECT_EQ(u.DocsWithTerm(T("blue")).ToIndices(), std::vector<size_t>{1});
  EXPECT_EQ(u.DocsWithTerm(T("blue") + 1), u.EmptySet());
  EXPECT_EQ(u.TotalTermFrequency(T("blue") + 1), 0);
  ExpectLookupsMatchCorpus(u);
}

TEST_F(MetricsTest, UniverseLookupsOfAnEmptyUniverse) {
  const ResultUniverse u(corpus_, std::vector<DocId>{});
  EXPECT_EQ(u.size(), 0u);
  EXPECT_TRUE(u.DistinctTerms().empty());
  EXPECT_EQ(u.term_rows().size(), 0u);
  EXPECT_EQ(u.term_rows().dims, 0u);
  EXPECT_EQ(u.DocsWithTerm(T("q")).size(), 0u);
  EXPECT_EQ(u.TotalTermFrequency(T("q")), 0);
  ExpectLookupsMatchCorpus(u);
}

TEST(UniverseLookupTest, RepeatedTermsAndDuplicateResults) {
  doc::Corpus corpus;
  corpus.AddTextDocument("0", "q red red red green");
  corpus.AddTextDocument("1", "q q blue");
  corpus.AddTextDocument("2", "");
  const ResultUniverse u(corpus, std::vector<DocId>{1, 0, 2, 0});
  EXPECT_EQ(u.TotalTermFrequency(corpus.analyzer().vocabulary().Lookup("red")),
            6);
  ExpectLookupsMatchCorpus(u);
}

TEST(UniverseLookupTest, ShoppingAllResultsAndACopyOutlivingItsSource) {
  datagen::ShoppingOptions options;
  options.products_per_family = 30;
  const doc::Corpus corpus = datagen::ShoppingGenerator(options).Generate();
  const index::InvertedIndex index(corpus);
  auto source = std::make_unique<ResultUniverse>(
      corpus, index.Search(corpus.analyzer().AnalyzeReadOnly("products")));
  ASSERT_GT(source->size(), 100u);
  ExpectLookupsMatchCorpus(*source);
  const ResultUniverse copy = *source;
  source.reset();
  ExpectLookupsMatchCorpus(copy);
}

// ------------------------------------------ Space from the universe rows --

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

// A cluster::CosineSpace over the universe's term rows equals the one
// over its results' SparseVectors bit for bit: norms, every point-block
// distance, centroid distances and centroid sums. Norms and point-block
// distances are also checked against SparseVector::Norm and
// SparseVector::Dot, which share no code with the space.
void ExpectSameSpaceAsSparseVectors(const ResultUniverse& u) {
  std::vector<cluster::SparseVector> points;
  for (size_t i = 0; i < u.size(); ++i) {
    points.push_back(
        cluster::SparseVector::FromDocument(u.corpus().Get(u.doc_at(i))));
  }
  const cluster::TermRows rows = cluster::RowsOf(points);
  const cluster::CosineSpace want(rows);
  const cluster::CosineSpace got(u.term_rows());
  const size_t n = want.size();
  ASSERT_EQ(got.size(), n);
  ASSERT_EQ(got.dims(), want.dims());
  for (size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(SameBits(got.norm(i), points[i].Norm())) << i;
    ASSERT_TRUE(SameBits(got.norm(i), want.norm(i))) << i;
  }
  // Point i's distances to every point, with i as a one-point block; the
  // upper half again from the blocks of ForEachPair.
  std::vector<double> tile(want.dims(), 0.0), a(n), b(n);
  std::vector<std::vector<double>> full(n);
  for (size_t i = 0; i < n; ++i) {
    got.PointDistances(i, 1, 0, tile.data(), a.data());
    want.PointDistances(i, 1, 0, tile.data(), b.data());
    for (size_t j = 0; j < n; ++j) {
      ASSERT_TRUE(SameBits(a[j], b[j])) << i << "," << j;
      const double norms = points[i].Norm() * points[j].Norm();
      const double sparse =
          norms == 0.0 ? 1.0 : 1.0 - points[i].Dot(points[j]) / norms;
      ASSERT_TRUE(SameBits(a[j], sparse)) << i << "," << j;
    }
    full[i] = a;
  }
  size_t pairs = 0;
  got.ForEachPair([&](size_t i, size_t j, double d) {
    ASSERT_TRUE(SameBits(d, full[i][j])) << i << "," << j;
    ASSERT_TRUE(SameBits(d, full[j][i])) << i << "," << j;
    ++pairs;
  });
  EXPECT_EQ(pairs, n * (n - 1) / 2);
  Rng rng(21);
  for (size_t k : {size_t{1}, size_t{3}, size_t{5}, size_t{9}}) {
    std::vector<double> centroids(want.dims() * k);
    for (double& x : centroids) {
      x = rng.Bernoulli(0.5) ? 0.0 : rng.UniformDouble();
    }
    std::vector<double> norms(k);
    for (double& x : norms) x = 0.5 + rng.UniformDouble();
    std::vector<double> da(n * k), db(n * k);
    got.CentroidDistances(0, n, centroids.data(), norms.data(), k, da.data());
    want.CentroidDistances(0, n, centroids.data(), norms.data(), k, db.data());
    for (size_t x = 0; x < n * k; ++x) {
      ASSERT_TRUE(SameBits(da[x], db[x])) << "k=" << k << " at " << x;
    }
    std::vector<double> sum_a(centroids.size(), 0.0), sum_b(sum_a);
    for (size_t i = 0; i < n; ++i) {
      got.AddTo(i, sum_a.data(), k, i % k);
      want.AddTo(i, sum_b.data(), k, i % k);
    }
    for (size_t x = 0; x < sum_a.size(); ++x) {
      ASSERT_TRUE(SameBits(sum_a[x], sum_b[x])) << "k=" << k << " at " << x;
    }
  }
}

TEST(SpaceFromUniverseTest, ShoppingAllResults) {
  datagen::ShoppingOptions options;
  options.products_per_family = 30;
  const doc::Corpus corpus = datagen::ShoppingGenerator(options).Generate();
  const index::InvertedIndex index(corpus);
  for (const char* query : {"products", "canon products", "tv plasma"}) {
    SCOPED_TRACE(query);
    const ResultUniverse u(
        corpus, index.Search(corpus.analyzer().AnalyzeReadOnly(query)));
    ASSERT_GT(u.size(), 1u);
    ExpectSameSpaceAsSparseVectors(u);
  }
}

TEST(SpaceFromUniverseTest, WikipediaTop30) {
  const doc::Corpus corpus = datagen::WikipediaGenerator().Generate();
  const index::InvertedIndex index(corpus);
  const auto queries = datagen::WikipediaQueries();
  for (size_t q = 0; q < 3 && q < queries.size(); ++q) {
    SCOPED_TRACE(queries[q].text);
    const ResultUniverse u(
        corpus,
        index.Search(corpus.analyzer().AnalyzeReadOnly(queries[q].text), 30));
    ASSERT_GT(u.size(), 1u);
    ExpectSameSpaceAsSparseVectors(u);
  }
}

TEST(SpaceFromUniverseTest, DuplicateAndEmptyDocuments) {
  doc::Corpus corpus;
  corpus.AddTextDocument("0", "camera lens lens zoom");
  corpus.AddTextDocument("1", "camera lens lens zoom");
  corpus.AddTextDocument("2", "camera tripod");
  corpus.AddTextDocument("3", "");
  corpus.AddTextDocument("4", "zoom zoom zoom");
  ExpectSameSpaceAsSparseVectors(
      ResultUniverse(corpus, std::vector<DocId>{0, 1, 2, 3, 0, 4, 1}));
  ExpectSameSpaceAsSparseVectors(ResultUniverse(corpus, std::vector<DocId>{}));
}

}  // namespace
}  // namespace qec::core
