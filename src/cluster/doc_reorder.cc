#include "cluster/doc_reorder.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "common/logging.h"
#include "obs/metrics.h"

namespace qec::cluster {

namespace {

/// Dominant term of a document: highest TF, ties toward the smallest
/// TermId. kInvalidTermId for empty documents.
TermId DominantTerm(const doc::Document& d) {
  TermId best = kInvalidTermId;
  int best_tf = 0;
  const auto& terms = d.term_set();
  for (size_t i = 0; i < terms.size(); ++i) {
    const TermId t = terms[i];
    const int tf = d.term_counts()[i];
    if (tf > best_tf || (tf == best_tf && best != kInvalidTermId && t < best)) {
      best_tf = tf;
      best = t;
    }
  }
  return best;
}

}  // namespace

std::vector<DocId> ComputeClusterOrder(const doc::Corpus& corpus,
                                       const DocReorderOptions& options) {
  const size_t n = corpus.NumDocs();
  std::vector<TermId> signature(n, kInvalidTermId);
  std::unordered_map<TermId, size_t> bucket_docs;
  for (DocId d = 0; d < n; ++d) {
    TermId s = DominantTerm(corpus.Get(d));
    signature[d] = s;
    if (s != kInvalidTermId) ++bucket_docs[s];
  }

  // Docs in real buckets sort by (signature, original id); singleton-ish
  // buckets and empty docs keep their relative input order at the end.
  std::vector<DocId> order(n);
  for (DocId d = 0; d < n; ++d) order[d] = d;
  auto bucketed = [&](DocId d) {
    TermId s = signature[d];
    if (s == kInvalidTermId) return false;
    return bucket_docs[s] >= options.min_bucket_docs;
  };
  std::sort(order.begin(), order.end(), [&](DocId a, DocId b) {
    const bool ba = bucketed(a);
    const bool bb = bucketed(b);
    if (ba != bb) return ba;
    if (ba && signature[a] != signature[b]) return signature[a] < signature[b];
    return a < b;
  });
  QEC_COUNTER_INC("cluster/reorder_runs");
  return order;
}

doc::Corpus ReorderCorpus(const doc::Corpus& corpus,
                          const std::vector<DocId>& order) {
  const size_t n = corpus.NumDocs();
  QEC_CHECK_EQ(order.size(), n);
  std::vector<uint8_t> seen(n, 0);
  for (DocId d : order) {
    QEC_CHECK_LT(d, n);
    QEC_CHECK(seen[d] == 0);
    seen[d] = 1;
  }

  doc::Corpus out(corpus.analyzer().options());
  const text::Vocabulary& vocab = corpus.analyzer().vocabulary();
  out.analyzer().vocabulary().Reserve(vocab.size());
  // Re-intern in id order: TermIds in the reordered corpus are identical
  // to the input corpus's, which is what keeps expansion over a reordered
  // snapshot byte-identical to the unpermuted path.
  for (TermId t = 0; t < vocab.size(); ++t) {
    TermId got = out.analyzer().InternVerbatim(vocab.TermString(t));
    QEC_CHECK_EQ(got, t);
  }
  for (DocId src : order) {
    const doc::Document& d = corpus.Get(src);
    out.RestoreDocument(d.kind(), d.title(), d.terms(), d.features());
  }
  return out;
}

bool IsIdentityOrder(const std::vector<DocId>& order) {
  for (size_t i = 0; i < order.size(); ++i) {
    if (order[i] != i) return false;
  }
  return true;
}

}  // namespace qec::cluster
