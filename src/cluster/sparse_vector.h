#ifndef QEC_CLUSTER_SPARSE_VECTOR_H_
#define QEC_CLUSTER_SPARSE_VECTOR_H_

#include <utility>
#include <vector>

#include "common/types.h"
#include "doc/document.h"

namespace qec::cluster {

/// Sparse feature vector over TermIds, kept sorted by term. Used as the
/// vector-space representation of query results for clustering: per the
/// paper (Appendix C) each result is a vector whose components are the
/// result's features weighted by term frequency, compared by cosine
/// similarity.
class SparseVector {
 public:
  /// Sparse TF entries, sorted by term.
  using EntryList = std::vector<std::pair<TermId, double>>;

  SparseVector() = default;

  /// Builds from unsorted (term, weight) pairs; duplicate terms are summed.
  explicit SparseVector(EntryList entries);

  /// TF vector of a document (weight = term frequency).
  static SparseVector FromDocument(const doc::Document& document);

  const EntryList& entries() const { return entries_; }

  size_t NumNonZero() const { return entries_.size(); }
  bool IsZero() const { return entries_.empty(); }

  /// Weight of `term` (0 when absent).
  double Get(TermId term) const;

  /// Dot product with another sparse vector.
  double Dot(const SparseVector& other) const;

  /// Euclidean (L2) norm.
  double Norm() const;

 private:
  EntryList entries_;  // sorted by TermId
};

}  // namespace qec::cluster

#endif  // QEC_CLUSTER_SPARSE_VECTOR_H_
