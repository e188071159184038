#ifndef QEC_CLUSTER_COSINE_SPACE_H_
#define QEC_CLUSTER_COSINE_SPACE_H_

// Private to qec_cluster: the one distance kernel behind k-means, HAC and
// the silhouette.

#include <cstdint>
#include <span>
#include <vector>

#include "cluster/kmeans.h"
#include "cluster/sparse_vector.h"

namespace qec::cluster {

/// The points of one clustering call, re-indexed onto local term ids
/// 0..dims()-1 assigned in ascending TermId order, with each point's norm
/// cached and a per-term posting list of (point, weight) pairs. Every dot
/// product adds the products of the two vectors' common terms in ascending
/// term order, the order of SparseVector::Dot's merge, and a dense centroid
/// adds +0.0 for each term it lacks. Distances, norms and centroid sums over
/// finite weights are therefore bit-identical to the sparse formulation.
class CosineSpace {
 public:
  explicit CosineSpace(const std::vector<SparseVector>& points);

  size_t size() const { return norms_.size(); }
  size_t dims() const { return term_begin_.size() - 1; }

  /// out[j] = cosine distance between points i and j, for every point j
  /// (out[i] included): point i's terms' postings scattered into `out`.
  void DistanceRow(size_t i, double* out) const;

  /// Centroids are dense and term-major: centroid c of k is column c of a
  /// dims() x k matrix. out[c] = cosine distance between point i and
  /// centroid c of norm `centroid_norms[c]`, gathered along point i's terms.
  void CentroidDistances(size_t i, const double* centroids,
                         const double* centroid_norms, size_t k,
                         double* out) const;

  /// Adds point i into column c of a dims() x k term-major matrix.
  void AddTo(size_t i, double* centroids, size_t k, size_t c) const;

 private:
  // Compressed rows both ways: point i's local terms and weights in
  // [point_begin_[i], point_begin_[i + 1]), and term t's points and weights
  // in [term_begin_[t], term_begin_[t + 1]), ascending.
  std::vector<uint32_t> point_begin_, point_term_;
  std::vector<double> point_weight_;
  std::vector<uint32_t> term_begin_, term_point_;
  std::vector<double> term_weight_;
  std::vector<double> norms_;
};

/// Mean silhouette (see MeanSilhouette) of every clustering of the space's
/// points, in one row-wise pass: each point's distance row is computed once
/// and feeds the per-cluster sums of every clustering. Extra memory is
/// O(points + total clusters); no pairwise matrix is held.
std::vector<double> MeanSilhouettes(const CosineSpace& space,
                                    std::span<const Clustering> clusterings);

}  // namespace qec::cluster

#endif  // QEC_CLUSTER_COSINE_SPACE_H_
