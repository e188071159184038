// Tests for HAC clustering + the dynamic method selector.

#include <gtest/gtest.h>

#include "cluster/hac.h"

namespace qec {
namespace {

using cluster::Clustering;
using cluster::ClusteringMethod;
using cluster::Hac;
using cluster::HacOptions;
using cluster::SparseVector;

SparseVector V(std::vector<std::pair<TermId, double>> entries) {
  return SparseVector(std::move(entries));
}

std::vector<SparseVector> ThreeGroups() {
  std::vector<SparseVector> points;
  for (int g = 0; g < 3; ++g) {
    for (int i = 0; i < 4; ++i) {
      TermId base = static_cast<TermId>(g * 10);
      points.push_back(V({{base, 3.0 + 0.1 * i}, {base + 1, 2.0}}));
    }
  }
  return points;
}

// --------------------------------------------------------------------- HAC

TEST(HacTest, SeparatesObviousGroups) {
  HacOptions options;
  options.k = 3;
  Clustering c = Hac(options).Cluster(ThreeGroups());
  EXPECT_EQ(c.num_clusters, 3u);
  for (int g = 0; g < 3; ++g) {
    for (int i = 1; i < 4; ++i) {
      EXPECT_EQ(c.assignment[g * 4 + i], c.assignment[g * 4]);
    }
  }
}

TEST(HacTest, CutAtOneMergesEverything) {
  HacOptions options;
  options.k = 1;
  Clustering c = Hac(options).Cluster(ThreeGroups());
  EXPECT_EQ(c.num_clusters, 1u);
}

TEST(HacTest, AutoKFindsNaturalCount) {
  HacOptions options;
  options.k = 5;
  options.auto_k = true;
  Clustering c = Hac(options).Cluster(ThreeGroups());
  EXPECT_EQ(c.num_clusters, 3u);
}

TEST(HacTest, EmptyAndSingleton) {
  EXPECT_EQ(Hac().Cluster({}).num_clusters, 0u);
  Clustering one = Hac().Cluster({V({{1, 1.0}})});
  EXPECT_EQ(one.num_clusters, 1u);
}

TEST(HacTest, DeterministicNoSeedNeeded) {
  auto points = ThreeGroups();
  HacOptions options;
  options.k = 3;
  Clustering a = Hac(options).Cluster(points);
  Clustering b = Hac(options).Cluster(points);
  EXPECT_EQ(a.assignment, b.assignment);
}

TEST(HacTest, LabelsDenseAndPartitioning) {
  HacOptions options;
  options.k = 4;
  auto points = ThreeGroups();
  Clustering c = Hac(options).Cluster(points);
  EXPECT_EQ(c.assignment.size(), points.size());
  auto members = c.Members();
  size_t total = 0;
  for (const auto& m : members) {
    EXPECT_FALSE(m.empty());
    total += m.size();
  }
  EXPECT_EQ(total, points.size());
}

TEST(SelectBestClusteringTest, PicksAMethodAndSeparates) {
  ClusteringMethod chosen;
  Clustering c = cluster::SelectBestClustering(ThreeGroups(), 5, 42, &chosen);
  EXPECT_EQ(c.num_clusters, 3u);
  // Either method is acceptable; the call must report which won.
  EXPECT_TRUE(chosen == ClusteringMethod::kKMeans ||
              chosen == ClusteringMethod::kHac);
}

TEST(SelectBestClusteringTest, SilhouetteOfSelectedAtLeastEachMethod) {
  auto points = ThreeGroups();
  Clustering best = cluster::SelectBestClustering(points, 5, 42);
  cluster::KMeansOptions kopts;
  kopts.k = 5;
  kopts.auto_k = true;
  Clustering km = cluster::KMeans(kopts).Cluster(points);
  HacOptions hopts;
  hopts.k = 5;
  hopts.auto_k = true;
  Clustering hc = Hac(hopts).Cluster(points);
  double best_s = cluster::MeanSilhouette(points, best);
  EXPECT_GE(best_s, cluster::MeanSilhouette(points, km) - 1e-12);
  EXPECT_GE(best_s, cluster::MeanSilhouette(points, hc) - 1e-12);
}

}  // namespace
}  // namespace qec
