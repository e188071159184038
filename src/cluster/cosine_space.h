#ifndef QEC_CLUSTER_COSINE_SPACE_H_
#define QEC_CLUSTER_COSINE_SPACE_H_

// The one distance kernel behind k-means, HAC and the silhouette, and the
// local-term-id scheme its input rows are written in.

#include <bit>
#include <cstdint>
#include <vector>

#include "cluster/sparse_vector.h"
#include "common/types.h"

namespace qec::cluster {

/// Local term ids for a set of TermIds: a presence bitmap over TermIds
/// (vocabulary ids, so it spans the vocabulary at most) and its per-word
/// prefix popcounts. A term's local id is the number of present terms
/// below it, so local ids ascend with TermId.
class TermRanks {
 public:
  static constexpr uint32_t kAbsent = UINT32_MAX;

  void Insert(TermId t) {
    if (t / 64 >= present_.size()) present_.resize(t / 64 + 1, 0);
    present_[t / 64] |= uint64_t{1} << (t % 64);
  }

  /// Computes the prefix popcounts; call once, after the last Insert.
  void Seal();

  /// Number of present terms.
  size_t size() const { return below_.empty() ? 0 : below_.back(); }

  /// Local id of a present term.
  uint32_t Rank(TermId t) const {
    const uint64_t lower = (uint64_t{1} << (t % 64)) - 1;
    return below_[t / 64] +
           static_cast<uint32_t>(std::popcount(present_[t / 64] & lower));
  }

  /// Local id of `t`, or kAbsent for a term never inserted (any TermId,
  /// including those past the bitmap's end).
  uint32_t Find(TermId t) const {
    if (t / 64 >= present_.size() ||
        (present_[t / 64] >> (t % 64) & 1) == 0) {
      return kAbsent;
    }
    return Rank(t);
  }

  /// The present terms, ascending: element l has local id l.
  std::vector<TermId> Terms() const;

 private:
  std::vector<uint64_t> present_;
  std::vector<uint32_t> below_;  // below_[w] = present terms in words < w
};

/// Points as compressed rows over local term ids 0..dims-1: point i's terms
/// and weights are term/weight[begin[i], begin[i + 1]), local ids
/// ascending.
struct TermRows {
  std::vector<uint32_t> begin = {0};
  std::vector<uint32_t> term;
  std::vector<double> weight;
  size_t dims = 0;

  size_t size() const { return begin.size() - 1; }
};

/// The points of one clustering call over local term ids 0..dims()-1
/// assigned in ascending TermId order, with each point's norm cached, a
/// per-term posting list of (point, weight) pairs, and each entry's
/// position in its term's posting list. Every dot product adds the
/// products of the two vectors' common terms in ascending term order, the
/// order of SparseVector::Dot's merge, and a dense centroid adds +0.0 for
/// each term it lacks. Distances, norms and centroid sums over finite
/// weights are therefore bit-identical to the sparse formulation, and the
/// distance between two points is the same double from either side.
class CosineSpace {
 public:
  /// Takes rows already over local term ids (see TermRows).
  explicit CosineSpace(TermRows rows);

  /// Re-indexes sparse vectors through TermRanks.
  explicit CosineSpace(const std::vector<SparseVector>& points);

  size_t size() const { return norms_.size(); }
  size_t dims() const { return term_begin_.size() - 1; }
  double norm(size_t i) const { return norms_[i]; }

  /// out[j] = cosine distance between points i and j, for every point j
  /// (out[i] included): point i's terms' postings scattered into `out`.
  void DistanceRow(size_t i, double* out) const;

  /// The upper half of DistanceRow: out[j] for every j > i, bit-equal to
  /// DistanceRow(i)[j] and DistanceRow(j)[i]. Only the postings after point
  /// i's own are scattered, and a term held by at least half the points is
  /// added along its dense column instead; out[0..i] is left untouched.
  void DistanceRowAbove(size_t i, double* out) const;

  /// Centroids are dense and term-major: centroid c of k is column c of a
  /// dims() x k matrix. out[c] = cosine distance between point i and
  /// centroid c of norm `centroid_norms[c]`. One pass over point i's terms
  /// reads each term's k-long row; every column still adds its products in
  /// ascending term order.
  void CentroidDistances(size_t i, const double* centroids,
                         const double* centroid_norms, size_t k,
                         double* out) const;

  /// Adds point i into column c of a dims() x k term-major matrix.
  void AddTo(size_t i, double* centroids, size_t k, size_t c) const;

 private:
  // Compressed rows both ways: point i's local terms and weights in
  // [point_begin_[i], point_begin_[i + 1]), and term t's points and weights
  // in [term_begin_[t], term_begin_[t + 1]), ascending. point_pos_[e] is
  // where point entry e sits in its term's posting list.
  std::vector<uint32_t> point_begin_, point_term_, point_pos_;
  std::vector<double> point_weight_;
  std::vector<uint32_t> term_begin_, term_point_;
  std::vector<double> term_weight_;
  std::vector<double> norms_;
  // A term held by at least half the points also has a dense n-long column
  // of weights (0.0 where a point lacks it) at columns_[term_column_[t]];
  // other terms have kNoColumn. Adding w * 0.0 = ±0.0 leaves a dot product
  // unchanged: it starts at +0.0, so it is never -0.0.
  static constexpr size_t kNoColumn = SIZE_MAX;
  std::vector<size_t> term_column_;
  std::vector<double> columns_;
};

}  // namespace qec::cluster

#endif  // QEC_CLUSTER_COSINE_SPACE_H_
