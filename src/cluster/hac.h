#ifndef QEC_CLUSTER_HAC_H_
#define QEC_CLUSTER_HAC_H_

#include <cstddef>

#include "cluster/kmeans.h"
#include "cluster/sparse_vector.h"

namespace qec::cluster {

/// HAC configuration. Like k-means, `k` is an upper bound when `auto_k`
/// is set: the dendrogram cut is chosen by mean silhouette.
struct HacOptions {
  size_t k = 5;
  bool auto_k = false;
};

/// Average-link hierarchical agglomerative clustering under cosine
/// distance (Lance-Williams updates on a dense dissimilarity matrix,
/// O(n^2) memory — intended for result-list-sized inputs). One of the
/// alternative clustering methods the paper's future work asks about
/// ("investigate how different clustering methods affect the expanded
/// queries").
class Hac {
 public:
  explicit Hac(HacOptions options = {});

  /// Clusters the space's points by merging the closest pair until `k`
  /// clusters remain (or, with auto_k, cutting at the silhouette-best
  /// level ≤ k).
  Clustering Cluster(const CosineSpace& space) const;

  /// Cluster(CosineSpace(points)).
  Clustering Cluster(const std::vector<SparseVector>& points) const;

  const HacOptions& options() const { return options_; }

 private:
  HacOptions options_;
};

/// The clustering methods the engine can choose among.
enum class ClusteringMethod { kKMeans, kHac };

/// Future-work prototype (Sec. 7: "design techniques for choosing the best
/// clustering method dynamically"): runs every method with `k_max` as the
/// bound and returns the clustering with the highest mean silhouette.
/// `chosen` (optional out) reports which method won.
Clustering SelectBestClustering(const CosineSpace& space, size_t k_max,
                                uint64_t seed,
                                ClusteringMethod* chosen = nullptr);

/// SelectBestClustering(CosineSpace(points), ...).
Clustering SelectBestClustering(const std::vector<SparseVector>& points,
                                size_t k_max, uint64_t seed,
                                ClusteringMethod* chosen = nullptr);

}  // namespace qec::cluster

#endif  // QEC_CLUSTER_HAC_H_
