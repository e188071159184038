#ifndef QEC_CLUSTER_COSINE_SPACE_H_
#define QEC_CLUSTER_COSINE_SPACE_H_

// The one distance kernel behind k-means, HAC and the silhouette, and the
// local-term-id scheme its input rows are written in.

#include <algorithm>
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

/// Rows of sparse vectors over their terms' local ids (see TermRanks).
TermRows RowsOf(const std::vector<SparseVector>& points);

/// Most points one PointDistances call loads as columns.
inline constexpr size_t kPointBlock = 8;

/// The points of one clustering call: TermRows the caller owns, read in
/// place, with each point's norm cached. The space keeps a reference to
/// the rows, so they must outlive it and stay unchanged; it takes no
/// temporary.
///
/// Every distance is one point's row against dense term-major columns:
/// the dot product adds the point's products in ascending term order, the
/// order of SparseVector::Dot's merge, and a column adds +0.0 for each
/// term it lacks. Adding w * 0.0 = ±0.0 leaves a dot product unchanged (it
/// starts at +0.0, so it is never -0.0), so a column holding another point
/// yields their sparse dot product. Distances, norms and centroid sums
/// over finite weights are therefore bit-identical to the sparse
/// formulation, and the distance between two points is the same double
/// from either side.
class CosineSpace {
 public:
  explicit CosineSpace(const TermRows& rows);
  explicit CosineSpace(TermRows&&) = delete;

  size_t size() const { return norms_.size(); }
  size_t dims() const { return rows_.dims; }
  double norm(size_t i) const { return norms_[i]; }

  /// The distance kernel. Columns are dense and term-major: column c of k
  /// is column c of a dims() x k matrix, with norm `column_norms[c]`.
  /// out[(i - first) * k + c] = cosine distance between point i and column
  /// c, for every point i in [first, last); it is 1 when either norm is
  /// zero. One pass over each point's terms reads each term's k-long row;
  /// every column still adds its products in ascending term order.
  void CentroidDistances(size_t first, size_t last, const double* columns,
                         const double* column_norms, size_t k,
                         double* out) const;

  /// Adds point i, each weight multiplied by `scale`, into column c of a
  /// dims() x k term-major matrix. A scale of 1.0 adds the weights as they
  /// are, bit for bit.
  void AddTo(size_t i, double* columns, size_t k, size_t c,
             double scale = 1.0) const;

  /// Point-to-point distances through CentroidDistances: points
  /// [first, first + count), count <= kPointBlock, are added as the columns
  /// of the dims() x count term-major `tile`, which must be all +0.0 and
  /// is again on return (only the entries they set are zeroed).
  /// out[(j - from) * count + c] = distance between points j and first + c,
  /// for every j in [from, size()).
  void PointDistances(size_t first, size_t count, size_t from, double* tile,
                      double* out) const;

  /// Calls visit(i, j, distance) for every pair i < j in ascending (i, j)
  /// order, kPointBlock rows i per PointDistances call.
  template <typename Visit>
  void ForEachPair(Visit visit) const;

 private:
  const TermRows& rows_;
  std::vector<double> norms_;
};

template <typename Visit>
void CosineSpace::ForEachPair(Visit visit) const {
  const size_t n = size();
  std::vector<double> tile(dims() * kPointBlock, 0.0), block;
  for (size_t first = 0; first + 1 < n; first += kPointBlock) {
    const size_t count = std::min(kPointBlock, n - first);
    block.resize((n - first - 1) * count);
    PointDistances(first, count, first + 1, tile.data(), block.data());
    for (size_t c = 0; c < count; ++c) {
      for (size_t j = first + c + 1; j < n; ++j) {
        visit(first + c, j, block[(j - first - 1) * count + c]);
      }
    }
  }
}

}  // namespace qec::cluster

#endif  // QEC_CLUSTER_COSINE_SPACE_H_
