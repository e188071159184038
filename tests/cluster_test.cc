// Unit tests for qec_cluster: sparse vectors, k-means and the silhouette.

#include <gtest/gtest.h>

#include <cmath>

#include "cluster/kmeans.h"
#include "cluster/sparse_vector.h"
#include "doc/corpus.h"

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

}  // namespace
}  // namespace qec::cluster
