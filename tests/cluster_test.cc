// Unit tests for qec_cluster: sparse vectors, the CosineSpace kernels,
// k-means and the silhouette.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "cluster/cosine_space.h"
#include "cluster/kmeans.h"
#include "cluster/sparse_vector.h"
#include "common/random.h"
#include "datagen/shopping.h"
#include "datagen/wikipedia.h"
#include "datagen/workload.h"
#include "doc/corpus.h"
#include "index/inverted_index.h"

namespace qec::cluster {
namespace {

SparseVector V(std::vector<std::pair<TermId, double>> entries) {
  return SparseVector(std::move(entries));
}

// ------------------------------------------------------------ SparseVector

TEST(SparseVectorTest, MergesDuplicatesAndDropsZeros) {
  SparseVector v = V({{3, 1.0}, {1, 2.0}, {3, 2.0}, {5, 0.0}});
  ASSERT_EQ(v.NumNonZero(), 2u);
  EXPECT_DOUBLE_EQ(v.Get(1), 2.0);
  EXPECT_DOUBLE_EQ(v.Get(3), 3.0);
  EXPECT_DOUBLE_EQ(v.Get(5), 0.0);
}

TEST(SparseVectorTest, DotProduct) {
  SparseVector a = V({{1, 2.0}, {3, 1.0}});
  SparseVector b = V({{1, 4.0}, {2, 5.0}, {3, 3.0}});
  EXPECT_DOUBLE_EQ(a.Dot(b), 2.0 * 4.0 + 1.0 * 3.0);
  EXPECT_DOUBLE_EQ(a.Dot(SparseVector()), 0.0);
}

TEST(SparseVectorTest, Norm) {
  EXPECT_DOUBLE_EQ(V({{0, 3.0}, {1, 4.0}}).Norm(), 5.0);
  EXPECT_DOUBLE_EQ(SparseVector().Norm(), 0.0);
}

TEST(SparseVectorTest, FromDocumentUsesTermFrequencies) {
  doc::Corpus corpus;
  DocId id = corpus.AddTextDocument("t", "apple apple store");
  SparseVector v = SparseVector::FromDocument(corpus.Get(id));
  TermId apple = corpus.analyzer().vocabulary().Lookup("apple");
  TermId store = corpus.analyzer().vocabulary().Lookup("store");
  EXPECT_DOUBLE_EQ(v.Get(apple), 2.0);
  EXPECT_DOUBLE_EQ(v.Get(store), 1.0);
}

// ------------------------------------------------------------ CosineSpace

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

std::vector<SparseVector> Vectorize(
    const doc::Corpus& corpus,
    const std::vector<index::RankedResult>& results) {
  std::vector<SparseVector> points;
  for (const auto& r : results) {
    points.push_back(SparseVector::FromDocument(corpus.Get(r.doc)));
  }
  return points;
}

// The first 200 results of the shopping catalog's most frequent term.
std::vector<SparseVector> ShoppingPoints() {
  datagen::ShoppingOptions options;
  options.products_per_family = 30;
  const doc::Corpus corpus = datagen::ShoppingGenerator(options).Generate();
  const index::InvertedIndex index(corpus);
  TermId best = 0;
  for (TermId t = 0; t < corpus.analyzer().vocabulary().size(); ++t) {
    if (index.DocumentFrequency(t) > index.DocumentFrequency(best)) best = t;
  }
  return Vectorize(corpus, index.Search({best}, 200));
}

// The top-30 results of the first three Wikipedia queries, concatenated.
std::vector<SparseVector> WikipediaPoints() {
  const doc::Corpus corpus = datagen::WikipediaGenerator().Generate();
  const index::InvertedIndex index(corpus);
  std::vector<SparseVector> points;
  const auto queries = datagen::WikipediaQueries();
  for (size_t q = 0; q < 3 && q < queries.size(); ++q) {
    auto vectors = Vectorize(
        corpus,
        index.Search(corpus.analyzer().AnalyzeReadOnly(queries[q].text), 30));
    points.insert(points.end(), vectors.begin(), vectors.end());
  }
  return points;
}

// Signed random weights over 30 terms, with zero vectors and duplicates;
// term 30, held by about 70% of the points with either sign, puts a
// product of each sign into most pairs' dot products.
std::vector<SparseVector> RandomPoints() {
  Rng rng(16);
  std::vector<SparseVector> points;
  while (points.size() < 150) {
    if (!points.empty() && rng.Bernoulli(0.1)) {
      points.push_back(points[rng.UniformInt(points.size())]);
      continue;
    }
    std::vector<std::pair<TermId, double>> entries;
    if (!rng.Bernoulli(0.08)) {
      for (size_t e = 0, nnz = 1 + rng.UniformInt(8); e < nnz; ++e) {
        double w = 0.25 + 3.0 * rng.UniformDouble();
        if (rng.Bernoulli(0.2)) w = -w;
        entries.emplace_back(static_cast<TermId>(rng.UniformInt(30)), w);
      }
      if (rng.Bernoulli(0.75)) {
        entries.emplace_back(30, rng.Bernoulli(0.5) ? 1.5 : -2.0);
      }
    }
    points.push_back(SparseVector(std::move(entries)));
  }
  return points;
}

std::vector<std::vector<SparseVector>> KernelInputs() {
  return {ShoppingPoints(), WikipediaPoints(), RandomPoints()};
}

TEST(CosineSpaceTest, PointBlocksMatchBothSidesAndSparseDot) {
  for (const auto& points : KernelInputs()) {
    const TermRows rows = RowsOf(points);
    const CosineSpace space(rows);
    const size_t n = space.size();
    ASSERT_GT(n, 1u);
    // Blocks of every width load each point as a column once; the tile
    // must be all +0.0 again after every call.
    for (size_t width : {size_t{1}, size_t{3}, kPointBlock}) {
      std::vector<std::vector<double>> d(n, std::vector<double>(n));
      std::vector<double> tile(space.dims() * width, 0.0), out(n * width);
      for (size_t first = 0; first < n; first += width) {
        const size_t count = std::min(width, n - first);
        space.PointDistances(first, count, 0, tile.data(), out.data());
        for (double x : tile) ASSERT_TRUE(SameBits(x, 0.0)) << first;
        for (size_t j = 0; j < n; ++j) {
          for (size_t c = 0; c < count; ++c) d[j][first + c] = out[j * count + c];
        }
      }
      for (size_t i = 0; i < n; ++i) {
        for (size_t j = 0; j < n; ++j) {
          ASSERT_TRUE(SameBits(d[i][j], d[j][i])) << i << "," << j;
          const double norms = points[i].Norm() * points[j].Norm();
          const double sparse =
              norms == 0.0 ? 1.0 : 1.0 - points[i].Dot(points[j]) / norms;
          ASSERT_TRUE(SameBits(d[i][j], sparse))
              << "width " << width << " " << i << "," << j;
        }
      }
      if (width != kPointBlock) continue;
      // ForEachPair visits every pair i < j once, in ascending (i, j)
      // order, with the same distance.
      size_t next_i = 0, next_j = 1;
      space.ForEachPair([&](size_t i, size_t j, double dist) {
        ASSERT_EQ(i, next_i);
        ASSERT_EQ(j, next_j);
        ASSERT_TRUE(SameBits(dist, d[i][j])) << i << "," << j;
        if (++next_j == n) next_j = ++next_i + 1;
      });
      EXPECT_EQ(next_i, n - 1);
    }
  }
}

TEST(CosineSpaceTest, CentroidDistancesMatchColumnByColumnReference) {
  Rng rng(8);
  for (const auto& points : KernelInputs()) {
    const TermRows rows = RowsOf(points);
    const CosineSpace space(rows);
    // Local term ids are the ranks of the points' distinct TermIds.
    std::vector<TermId> terms;
    for (const SparseVector& p : points) {
      for (const auto& [t, w] : p.entries()) terms.push_back(t);
    }
    std::sort(terms.begin(), terms.end());
    terms.erase(std::unique(terms.begin(), terms.end()), terms.end());
    ASSERT_EQ(terms.size(), space.dims());
    for (size_t k = 1; k <= 10; ++k) {
      std::vector<double> centroids(space.dims() * k);
      for (double& x : centroids) {
        x = rng.Bernoulli(0.3) ? 0.0 : rng.UniformDouble() - 0.25;
      }
      std::vector<double> norms(k);
      for (double& x : norms) x = 0.5 + rng.UniformDouble();
      norms[k - 1] = 0.0;  // a zero centroid is at distance 1
      // One call over the points after the first: out[(i - 1) * k + c].
      std::vector<double> all((points.size() - 1) * k);
      space.CentroidDistances(1, points.size(), centroids.data(), norms.data(),
                              k, all.data());
      for (size_t i = 1; i < points.size(); ++i) {
        const double* out = &all[(i - 1) * k];
        const double norm_i = points[i].Norm();
        for (size_t c = 0; c < k; ++c) {
          double dot = 0.0;
          for (const auto& [t, w] : points[i].entries()) {
            const size_t local = static_cast<size_t>(
                std::lower_bound(terms.begin(), terms.end(), t) -
                terms.begin());
            dot += w * centroids[local * k + c];
          }
          const double want = norm_i == 0.0 || norms[c] == 0.0
                                  ? 1.0
                                  : 1.0 - dot / (norm_i * norms[c]);
          ASSERT_TRUE(SameBits(out[c], want))
              << "k=" << k << " point " << i << " column " << c;
        }
      }
    }
  }
}

TEST(MeanSilhouettesTest, PassesSplitAtTheBudgetMatchSingleScores) {
  // 40 clusterings of 100 clusters over 300 points hold 1.2M sums, more
  // than one pass may: the batch is scored in several passes and must
  // equal each clustering scored alone.
  std::vector<SparseVector> points = RandomPoints();
  const std::vector<SparseVector> more = ShoppingPoints();
  points.insert(points.end(), more.begin(), more.begin() + 150);
  Rng rng(40);
  std::vector<Clustering> clusterings(40);
  for (Clustering& c : clusterings) {
    c.num_clusters = 100;
    for (size_t i = 0; i < points.size(); ++i) {
      c.assignment.push_back(static_cast<int>(rng.UniformInt(100)));
    }
  }
  const TermRows rows = RowsOf(points);
  const std::vector<double> scores =
      MeanSilhouettes(CosineSpace(rows), clusterings);
  ASSERT_EQ(scores.size(), clusterings.size());
  for (size_t c = 0; c < clusterings.size(); ++c) {
    EXPECT_TRUE(SameBits(scores[c], MeanSilhouette(points, clusterings[c])))
        << c;
  }
}

// ----------------------------------------------------------------- KMeans

std::vector<SparseVector> ThreeObviousGroups() {
  // Group 0 on terms {0,1}, group 1 on {10,11}, group 2 on {20,21}.
  std::vector<SparseVector> points;
  for (int g = 0; g < 3; ++g) {
    for (int i = 0; i < 5; ++i) {
      TermId base = static_cast<TermId>(g * 10);
      points.push_back(V({{base, 3.0 + i * 0.1}, {base + 1, 2.0}}));
    }
  }
  return points;
}

TEST(KMeansTest, SeparatesObviousGroups) {
  KMeansOptions options;
  options.k = 3;
  Clustering c = KMeans(options).Cluster(ThreeObviousGroups());
  EXPECT_EQ(c.num_clusters, 3u);
  // All points of one group share a label; different groups differ.
  for (int g = 0; g < 3; ++g) {
    for (int i = 1; i < 5; ++i) {
      EXPECT_EQ(c.assignment[g * 5 + i], c.assignment[g * 5]);
    }
  }
  EXPECT_NE(c.assignment[0], c.assignment[5]);
  EXPECT_NE(c.assignment[5], c.assignment[10]);
  EXPECT_NE(c.assignment[0], c.assignment[10]);
}

TEST(KMeansTest, KIsAnUpperBound) {
  // 15 points, 3 natural groups, but k=5 allowed: never more than 5.
  KMeansOptions options;
  options.k = 5;
  Clustering c = KMeans(options).Cluster(ThreeObviousGroups());
  EXPECT_LE(c.num_clusters, 5u);
  EXPECT_GE(c.num_clusters, 3u);
}

TEST(KMeansTest, DeterministicForFixedSeed) {
  KMeansOptions options;
  options.k = 3;
  options.seed = 99;
  auto points = ThreeObviousGroups();
  Clustering a = KMeans(options).Cluster(points);
  Clustering b = KMeans(options).Cluster(points);
  EXPECT_EQ(a.assignment, b.assignment);
}

TEST(KMeansTest, EmptyInput) {
  Clustering c = KMeans().Cluster({});
  EXPECT_EQ(c.num_clusters, 0u);
  EXPECT_TRUE(c.assignment.empty());
}

TEST(KMeansTest, SinglePoint) {
  Clustering c = KMeans().Cluster({V({{1, 1.0}})});
  EXPECT_EQ(c.num_clusters, 1u);
  EXPECT_EQ(c.assignment, (std::vector<int>{0}));
}

TEST(KMeansTest, KOnePutsEverythingTogether) {
  KMeansOptions options;
  options.k = 1;
  Clustering c = KMeans(options).Cluster(ThreeObviousGroups());
  EXPECT_EQ(c.num_clusters, 1u);
}

TEST(KMeansTest, KGreaterOrEqualNMakesSingletons) {
  KMeansOptions options;
  options.k = 10;
  std::vector<SparseVector> points = {V({{1, 1.0}}), V({{2, 1.0}}),
                                      V({{3, 1.0}})};
  Clustering c = KMeans(options).Cluster(points);
  EXPECT_EQ(c.num_clusters, 3u);
  EXPECT_NE(c.assignment[0], c.assignment[1]);
  EXPECT_NE(c.assignment[1], c.assignment[2]);
}

TEST(KMeansTest, IdenticalPointsDoNotCrash) {
  KMeansOptions options;
  options.k = 3;
  std::vector<SparseVector> points(6, V({{1, 1.0}, {2, 2.0}}));
  Clustering c = KMeans(options).Cluster(points);
  EXPECT_GE(c.num_clusters, 1u);
  EXPECT_LE(c.num_clusters, 3u);
  EXPECT_EQ(c.assignment.size(), 6u);
}

TEST(KMeansTest, LabelsAreDense) {
  KMeansOptions options;
  options.k = 4;
  Clustering c = KMeans(options).Cluster(ThreeObviousGroups());
  std::vector<bool> seen(c.num_clusters, false);
  for (int a : c.assignment) {
    ASSERT_GE(a, 0);
    ASSERT_LT(static_cast<size_t>(a), c.num_clusters);
    seen[static_cast<size_t>(a)] = true;
  }
  for (bool s : seen) EXPECT_TRUE(s);
}

TEST(KMeansTest, ZeroIterationsStillAssignsEveryPoint) {
  // One assignment pass always runs, so max_iterations = 0 labels every
  // point, exactly as max_iterations = 1 does.
  const std::vector<SparseVector> points = {
      V({{0, 1.0}}), V({{0, 2.0}, {1, 0.1}}), V({{5, 1.0}}),
      V({{5, 3.0}}), V({{9, 1.0}}),           V({{9, 1.0}, {8, 0.2}})};
  const Clustering zero =
      KMeans({.k = 3, .max_iterations = 0}).Cluster(points);
  const Clustering one = KMeans({.k = 3, .max_iterations = 1}).Cluster(points);
  ASSERT_EQ(zero.assignment.size(), points.size());
  ASSERT_GE(zero.num_clusters, 1u);
  for (int a : zero.assignment) {
    EXPECT_GE(a, 0);
    EXPECT_LT(static_cast<size_t>(a), zero.num_clusters);
  }
  EXPECT_EQ(zero.assignment, one.assignment);
  EXPECT_EQ(zero.num_clusters, one.num_clusters);
  // Auto-k: every k's only pass reads the shared start's distances.
  const Clustering auto_zero =
      KMeans({.k = 4, .max_iterations = 0, .auto_k = true}).Cluster(points);
  const Clustering auto_one =
      KMeans({.k = 4, .max_iterations = 1, .auto_k = true}).Cluster(points);
  ASSERT_EQ(auto_zero.assignment.size(), points.size());
  ASSERT_GE(auto_zero.num_clusters, 2u);
  for (int a : auto_zero.assignment) {
    EXPECT_GE(a, 0);
    EXPECT_LT(static_cast<size_t>(a), auto_zero.num_clusters);
  }
  EXPECT_EQ(auto_zero.assignment, auto_one.assignment);
  EXPECT_EQ(auto_zero.num_clusters, auto_one.num_clusters);
}

TEST(KMeansTest, MembersPartitionInput) {
  KMeansOptions options;
  options.k = 3;
  auto points = ThreeObviousGroups();
  Clustering c = KMeans(options).Cluster(points);
  auto members = c.Members();
  size_t total = 0;
  for (const auto& m : members) total += m.size();
  EXPECT_EQ(total, points.size());
}

// ------------------------------------------------------------- Silhouette

TEST(MeanSilhouetteTest, SeparatedGroupsScoreHigh) {
  KMeansOptions options;
  options.k = 3;
  auto points = ThreeObviousGroups();
  Clustering c = KMeans(options).Cluster(points);
  EXPECT_GT(MeanSilhouette(points, c), 0.9);
  EXPECT_LE(MeanSilhouette(points, c), 1.0);
}

TEST(MeanSilhouetteTest, NeutralCases) {
  auto points = ThreeObviousGroups();
  Clustering one;
  one.assignment.assign(points.size(), 0);
  one.num_clusters = 1;
  EXPECT_EQ(MeanSilhouette(points, one), 0.0);
  EXPECT_EQ(MeanSilhouette({}, Clustering{}), 0.0);
  // Every point a singleton: every point scores 0.
  Clustering singletons;
  for (size_t i = 0; i < points.size(); ++i) {
    singletons.assignment.push_back(static_cast<int>(i));
  }
  singletons.num_clusters = points.size();
  EXPECT_EQ(MeanSilhouette(points, singletons), 0.0);
}

TEST(MeanSilhouetteTest, ZeroVectorsAreAtDistanceOne) {
  // Two zero vectors in one cluster, two orthogonal points in the other:
  // every distance is 1, so a = b and every point scores 0.
  std::vector<SparseVector> points = {SparseVector(), SparseVector(),
                                      V({{1, 1.0}}), V({{2, 1.0}})};
  Clustering c;
  c.assignment = {0, 0, 1, 1};
  c.num_clusters = 2;
  EXPECT_EQ(MeanSilhouette(points, c), 0.0);
}

TEST(MeanSilhouetteDeathTest, AssignmentSizeMismatchDies) {
  auto points = ThreeObviousGroups();
  Clustering short_assignment;
  short_assignment.assignment = {0, 1};
  short_assignment.num_clusters = 2;
  EXPECT_DEATH(MeanSilhouette(points, short_assignment), "Check failed");
}

TEST(MeanSilhouetteDeathTest, LabelOutOfRangeDies) {
  auto points = ThreeObviousGroups();
  Clustering c = KMeans(KMeansOptions{.k = 3}).Cluster(points);
  ASSERT_EQ(c.num_clusters, 3u);
  c.assignment.back() = 3;
  EXPECT_DEATH(MeanSilhouette(points, c), "Check failed");
  c.assignment.back() = -1;
  EXPECT_DEATH(MeanSilhouette(points, c), "Check failed");
}

// ------------------------------------------------- Silhouette from sums

// The PaperScale shopping catalog (products_per_family = 30, as fig6 and
// the pipeline benchmark use) and its index.
struct ShoppingCatalog {
  ShoppingCatalog()
      : corpus(datagen::ShoppingGenerator(Options()).Generate()),
        index(corpus) {}
  static datagen::ShoppingOptions Options() {
    datagen::ShoppingOptions options;
    options.products_per_family = 30;
    return options;
  }
  doc::Corpus corpus;
  index::InvertedIndex index;
};

const ShoppingCatalog& Catalog() {
  static const auto* catalog = new ShoppingCatalog();
  return *catalog;
}

// All results of each Table 1 shopping query (QS1-QS10), in rank order.
std::vector<std::vector<SparseVector>> ShoppingQueryResults() {
  const ShoppingCatalog& catalog = Catalog();
  std::vector<std::vector<SparseVector>> lists;
  for (const auto& q : datagen::ShoppingQueries()) {
    lists.push_back(Vectorize(
        catalog.corpus,
        catalog.index.Search(catalog.corpus.analyzer().AnalyzeReadOnly(q.text),
                             0)));
  }
  return lists;
}

// The first n results of the catalog term with the most results.
std::vector<SparseVector> ShoppingAllResults(size_t n) {
  const ShoppingCatalog& catalog = Catalog();
  TermId best = 0;
  for (TermId t = 0; t < catalog.corpus.analyzer().vocabulary().size(); ++t) {
    if (catalog.index.DocumentFrequency(t) >
        catalog.index.DocumentFrequency(best)) {
      best = t;
    }
  }
  std::vector<SparseVector> points =
      Vectorize(catalog.corpus, catalog.index.Search({best}, 0));
  EXPECT_GE(points.size(), n);
  points.resize(std::min(n, points.size()));
  return points;
}

// The top-30 list of each Wikipedia Table 1 query (QW1-QW10).
std::vector<std::vector<SparseVector>> WikipediaLists() {
  const doc::Corpus corpus = datagen::WikipediaGenerator().Generate();
  const index::InvertedIndex index(corpus);
  std::vector<std::vector<SparseVector>> lists;
  for (const auto& q : datagen::WikipediaQueries()) {
    lists.push_back(Vectorize(
        corpus, index.Search(corpus.analyzer().AnalyzeReadOnly(q.text), 30)));
  }
  return lists;
}

// Signed one-term points over three terms with weights 1, 2 or 4: every
// unit vector and every cluster sum is exact, and so, on these points, is
// every distance sum of either silhouette form; the two must agree bit for
// bit.
std::vector<SparseVector> OneTermDuplicates() {
  Rng rng(7);
  std::vector<SparseVector> points;
  while (points.size() < 120) {
    const auto t = static_cast<TermId>(rng.UniformInt(3));
    const double w = static_cast<double>(1 << rng.UniformInt(3));
    points.push_back(V({{t, rng.Bernoulli(0.3) ? -w : w}}));
  }
  return points;
}

// The k-means clustering and two random labelings of `n` points for each
// k in 2..8 and 12 (12 takes CentroidDistances' generic path). The first
// labeling draws each label from [0, k); the second has k + 1 clusters:
// point 0 alone in cluster k - 1, cluster k empty, the rest drawn from
// [0, k - 1).
std::vector<Clustering> Labelings(const std::vector<SparseVector>& points,
                                  uint64_t seed) {
  const size_t n = points.size();
  Rng rng(seed);
  std::vector<Clustering> labelings;
  for (size_t k : {2, 3, 4, 5, 6, 7, 8, 12}) {
    labelings.push_back(KMeans(KMeansOptions{.k = k}).Cluster(points));
    Clustering drawn, shaped;
    drawn.num_clusters = k;
    shaped.num_clusters = k + 1;
    for (size_t i = 0; i < n; ++i) {
      drawn.assignment.push_back(static_cast<int>(rng.UniformInt(k)));
      shaped.assignment.push_back(
          static_cast<int>(i == 0 ? k - 1 : rng.UniformInt(k - 1)));
    }
    labelings.push_back(std::move(drawn));
    labelings.push_back(std::move(shaped));
  }
  return labelings;
}

// Scores every labeling of `points` in both forms and returns the largest
// absolute difference.
double MaxSumFormError(const std::vector<SparseVector>& points,
                       uint64_t seed) {
  const TermRows rows = RowsOf(points);
  const CosineSpace space(rows);
  const std::vector<Clustering> labelings = Labelings(points, seed);
  const std::vector<double> pairwise = MeanSilhouettes(space, labelings);
  const std::vector<double> sums = MeanSilhouettesFromSums(space, labelings);
  EXPECT_EQ(sums.size(), labelings.size());
  double max_error = 0.0;
  for (size_t c = 0; c < labelings.size(); ++c) {
    max_error = std::max(max_error, std::abs(sums[c] - pairwise[c]));
  }
  return max_error;
}

TEST(SumSilhouetteTest, MatchesPairwiseWithin1e12) {
  for (size_t n : {108, 300, 390}) {
    EXPECT_LE(MaxSumFormError(ShoppingAllResults(n), n), 1e-12)
        << "shopping n=" << n;
  }
  const auto wikipedia = WikipediaLists();
  for (size_t q = 0; q < wikipedia.size(); ++q) {
    EXPECT_LE(MaxSumFormError(wikipedia[q], q), 1e-12) << "wikipedia " << q;
  }
  EXPECT_LE(MaxSumFormError(RandomPoints(), 16), 1e-12) << "random";
}

TEST(SumSilhouetteTest, CopiesOnBothSidesScoreAsPairwise) {
  // Exact copies of one point in two clusters: both of a copy's mean
  // distances are rounding noise, which the pairwise form reads as a = b
  // (score 0). A third cluster holds other points.
  Rng rng(5);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::pair<TermId, double>> entries;
    for (size_t e = 0, nnz = 1 + rng.UniformInt(40); e < nnz; ++e) {
      entries.emplace_back(static_cast<TermId>(rng.UniformInt(100)),
                           0.1 + 3.0 * rng.UniformDouble());
    }
    const SparseVector copy(std::move(entries));
    std::vector<SparseVector> points;
    Clustering c;
    c.num_clusters = 3;
    for (int label : {0, 1}) {
      for (size_t i = 0, m = 1 + rng.UniformInt(60); i < m; ++i) {
        points.push_back(copy);
        c.assignment.push_back(label);
      }
    }
    for (TermId t : {200, 201, 202}) {
      points.push_back(V({{t, 1.0}, {t + 10, 2.0}}));
      c.assignment.push_back(2);
    }
    const TermRows rows = RowsOf(points);
    const CosineSpace space(rows);
    EXPECT_NEAR(MeanSilhouettesFromSums(space, {&c, 1})[0],
                MeanSilhouettes(space, {&c, 1})[0], 1e-12)
        << trial;
  }
}

TEST(SumSilhouetteTest, ExactOnOneTermDuplicates) {
  const std::vector<SparseVector> points = OneTermDuplicates();
  const TermRows rows = RowsOf(points);
  const CosineSpace space(rows);
  const std::vector<Clustering> labelings = Labelings(points, 3);
  const std::vector<double> pairwise = MeanSilhouettes(space, labelings);
  const std::vector<double> sums = MeanSilhouettesFromSums(space, labelings);
  for (size_t c = 0; c < labelings.size(); ++c) {
    EXPECT_EQ(sums[c], pairwise[c]) << c;
  }
}

TEST(SumSilhouetteTest, NeutralCases) {
  const std::vector<SparseVector> points = ThreeObviousGroups();
  const TermRows rows = RowsOf(points);
  const CosineSpace space(rows);
  Clustering one, singletons;
  one.assignment.assign(points.size(), 0);
  one.num_clusters = 1;
  for (size_t i = 0; i < points.size(); ++i) {
    singletons.assignment.push_back(static_cast<int>(i));
  }
  singletons.num_clusters = points.size();
  // Two clusters declared, one used: no point has another non-empty
  // cluster, so each scores 0 like a singleton.
  Clustering one_of_two = one;
  one_of_two.num_clusters = 2;
  const Clustering all[] = {one, singletons, one_of_two};
  EXPECT_EQ(MeanSilhouettesFromSums(space, all),
            (std::vector<double>{0.0, 0.0, 0.0}));
  const TermRows none = RowsOf({});
  EXPECT_EQ(MeanSilhouettesFromSums(CosineSpace(none), {}),
            std::vector<double>{});
}

TEST(SumSilhouetteTest, ZeroVectorsAreAtDistanceOne) {
  // As MeanSilhouetteTest.ZeroVectorsAreAtDistanceOne: every distance is
  // 1, so every point scores 0.
  const std::vector<SparseVector> points = {SparseVector(), SparseVector(),
                                            V({{1, 1.0}}), V({{2, 1.0}})};
  const TermRows rows = RowsOf(points);
  Clustering c;
  c.assignment = {0, 0, 1, 1};
  c.num_clusters = 2;
  EXPECT_EQ(MeanSilhouettesFromSums(CosineSpace(rows), {&c, 1})[0], 0.0);
}

TEST(SumSilhouetteDeathTest, LabelOutOfRangeDies) {
  const std::vector<SparseVector> points = ThreeObviousGroups();
  const TermRows rows = RowsOf(points);
  Clustering c = KMeans(KMeansOptions{.k = 3}).Cluster(points);
  c.assignment.back() = 3;
  EXPECT_DEATH(MeanSilhouettesFromSums(CosineSpace(rows), {&c, 1}),
               "Check failed");
}

// Auto-k as a pairwise-scored reference does it, for n > 2 points:
// fixed-k k-means for every k in 2..k_max (the seed sequence auto-k
// shares), scored by the pairwise MeanSilhouettes; a candidate replaces the
// best so far only if it beats it by 1e-12, and k = 1 scores a neutral 0.
Clustering PairwiseAutoK(const std::vector<SparseVector>& points,
                         size_t k_max) {
  std::vector<Clustering> candidates;
  for (size_t k = 2; k <= std::min(k_max, points.size()); ++k) {
    Clustering candidate = KMeans(KMeansOptions{.k = k}).Cluster(points);
    if (candidate.num_clusters >= 2) candidates.push_back(std::move(candidate));
  }
  const TermRows rows = RowsOf(points);
  const std::vector<double> scores =
      MeanSilhouettes(CosineSpace(rows), candidates);
  Clustering best = KMeans(KMeansOptions{.k = 1}).Cluster(points);
  double best_score = 0.0;
  for (size_t c = 0; c < candidates.size(); ++c) {
    if (scores[c] > best_score + 1e-12) {
      best_score = scores[c];
      best = std::move(candidates[c]);
    }
  }
  return best;
}

TEST(SumSilhouetteTest, AutoKChoosesWhatPairwiseScoresChoose) {
  std::vector<std::pair<std::string, std::vector<SparseVector>>> inputs;
  const auto shopping = ShoppingQueryResults();
  for (size_t q = 0; q < shopping.size(); ++q) {
    inputs.emplace_back("QS" + std::to_string(q + 1), shopping[q]);
  }
  const auto wikipedia = WikipediaLists();
  for (size_t q = 0; q < wikipedia.size(); ++q) {
    inputs.emplace_back("QW" + std::to_string(q + 1), wikipedia[q]);
  }
  for (const auto& [name, points] : inputs) {
    ASSERT_GT(points.size(), 2u) << name;
    for (size_t k_max : {5, 8}) {
      const Clustering got =
          KMeans(KMeansOptions{.k = k_max, .auto_k = true}).Cluster(points);
      const Clustering want = PairwiseAutoK(points, k_max);
      EXPECT_EQ(got.num_clusters, want.num_clusters)
          << name << " k_max=" << k_max;
      EXPECT_EQ(got.assignment, want.assignment) << name << " k_max=" << k_max;
    }
  }
}

}  // namespace
}  // namespace qec::cluster
