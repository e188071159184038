#ifndef QEC_CLUSTER_DOC_REORDER_H_
#define QEC_CLUSTER_DOC_REORDER_H_

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "doc/corpus.h"

namespace qec::cluster {

/// Cluster-aware doc-id reordering ("Faster Exact Search using Document
/// Clustering", Dimond & Sanders): permute doc ids so same-cluster
/// documents get contiguous ids. Posting lists then compress better under
/// the delta + varbyte codec (small gaps inside a cluster's id run). It
/// does not make the expanders' result bitsets dense: a universe's local
/// ids follow rank order, and score ties break on external doc ids.
///
/// The permutation is purely an internal renumbering: the reordered corpus
/// holds the same documents with identical TermIds, and snapshots persist
/// the mapping (QECSNAP `PERM` section) so external doc ids map back.
struct DocReorderOptions {
  /// Documents are bucketed by a content signature — the dominant
  /// (highest-TF, ties toward the smallest TermId) term of each document.
  /// Documents sharing a topic share a dominant term, so topical clusters
  /// land in contiguous id runs without a full clustering pass; the cost
  /// is one scan over the corpus plus a sort, which scales to tens of
  /// millions of documents.
  ///
  /// Documents whose dominant term's document frequency is at or below
  /// this floor keep their relative input order at the end instead of
  /// forming singleton buckets (no compression to win there).
  size_t min_bucket_docs = 2;
};

/// Computes a cluster-aware ordering of `corpus`: order[i] is the current
/// doc id that should get the new internal id i. The result is always a
/// valid permutation of [0, NumDocs).
std::vector<DocId> ComputeClusterOrder(const doc::Corpus& corpus,
                                       const DocReorderOptions& options = {});

/// Materializes a corpus whose document i is `corpus`'s document order[i].
/// The vocabulary is re-interned in id order, so every TermId — and hence
/// every analyzed query, candidate selection, and tie-break on term ids —
/// is identical to the input corpus's. `order` must be a permutation of
/// [0, NumDocs).
doc::Corpus ReorderCorpus(const doc::Corpus& corpus,
                          const std::vector<DocId>& order);

/// True when `order` is the identity permutation.
bool IsIdentityOrder(const std::vector<DocId>& order);

}  // namespace qec::cluster

#endif  // QEC_CLUSTER_DOC_REORDER_H_
