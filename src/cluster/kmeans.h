#ifndef QEC_CLUSTER_KMEANS_H_
#define QEC_CLUSTER_KMEANS_H_

#include <cstdint>
#include <span>
#include <vector>

#include "cluster/cosine_space.h"
#include "cluster/sparse_vector.h"
#include "common/types.h"

namespace qec::cluster {

/// k-means configuration. `k` is an *upper bound* on the number of
/// clusters (the paper's user-specified granularity): empty clusters are
/// dropped, so the output may have fewer.
struct KMeansOptions {
  /// Maximum number of clusters.
  size_t k = 5;
  /// Iteration cap for the assign/update loop.
  size_t max_iterations = 50;
  /// PRNG seed for k-means++ seeding.
  uint64_t seed = 42;
  /// When true, cluster for every k in [1, k] and keep the k with the best
  /// mean silhouette score, computed from cluster sums
  /// (MeanSilhouettesFromSums); a k must beat the best smaller k by 1e-12,
  /// and k=1 scores a neutral 0, chosen only when no multi-cluster split
  /// beats it. This honours the paper's reading of k as a user-specified
  /// *upper bound* on granularity: 25 canon products in 4 natural groups
  /// should yield 4 clusters, not a forced 5-way split.
  bool auto_k = false;
};

/// Result of clustering `n` points into `num_clusters` groups.
struct Clustering {
  /// assignment[i] in [0, num_clusters) for each input point i.
  std::vector<int> assignment;
  size_t num_clusters = 0;

  /// Indices of the points in each cluster.
  std::vector<std::vector<size_t>> Members() const;
};

/// Spherical k-means over cosine distance (1 - cosine similarity), with
/// k-means++ seeding. This is the result-clustering substrate the paper
/// prescribes ("we adopt k-means for result clustering", Appendix C).
class KMeans {
 public:
  explicit KMeans(KMeansOptions options = {});

  /// Clusters the space's points. Deterministic for a fixed seed. Handles
  /// k >= n by putting each point in its own cluster. Empty clusters are
  /// compacted away so cluster labels are dense.
  Clustering Cluster(const CosineSpace& space) const;

  /// Cluster(CosineSpace(points)).
  Clustering Cluster(const std::vector<SparseVector>& points) const;

  const KMeansOptions& options() const { return options_; }

 private:
  KMeansOptions options_;
};

/// Mean silhouette coefficient of `clustering` over `points` under cosine
/// distance, in [-1, 1]. Points in singleton clusters score 0, and so do
/// points with no other non-empty cluster (all points under one label of
/// several); a single-cluster clustering scores 0 (neutral). `clustering`
/// must label every point with a label below its num_clusters (checked).
double MeanSilhouette(const std::vector<SparseVector>& points,
                      const Clustering& clustering);

/// Mean silhouette (see MeanSilhouette) of every clustering of the space's
/// points, in one triangular pass: each pair's distance is computed once
/// and added to both points' per-cluster sums of every clustering. Extra
/// memory is one sum per (point, cluster), O(points * total clusters);
/// clusterings whose sums would exceed a fixed budget are scored in
/// further passes. No pairwise matrix is held.
std::vector<double> MeanSilhouettes(const CosineSpace& space,
                                    std::span<const Clustering> clusterings);

/// MeanSilhouettes computed from cluster sums: O(nnz * k) per clustering
/// instead of a pass over all pairs. With x̂ = x / ‖x‖ (0 for a zero-norm
/// point) and C_S the sum of x̂ over cluster S, the distance sum from point
/// i to S is |S| - x̂_i·C_S, less i's own term x̂_i·x̂_i when i is in S. One
/// CentroidDistances call per clustering yields every x̂_i·C_S. Equal to
/// MeanSilhouettes in real arithmetic but not bit for bit: on search
/// results the scores differ by at most ~1e-14. A point whose own and
/// nearest other mean distances are both below 1e-12 (copies of it on both
/// sides) scores 0, as the pairwise form scores exact copies. KMeans
/// auto-k scores its candidates with it.
std::vector<double> MeanSilhouettesFromSums(
    const CosineSpace& space, std::span<const Clustering> clusterings);

}  // namespace qec::cluster

#endif  // QEC_CLUSTER_KMEANS_H_
