#ifndef QEC_DATAGEN_CLUSTERED_H_
#define QEC_DATAGEN_CLUSTERED_H_

#include <cstdint>

#include "doc/corpus.h"

namespace qec::datagen {

/// Knobs for the synthetic clustered-corpus generator.
struct ClusteredOptions {
  uint64_t seed = 11;
  /// Documents to generate.
  size_t num_docs = 100000;
  /// Topic clusters. Each document belongs to exactly one.
  size_t num_clusters = 64;
  /// Terms per document (with repetition; term frequencies > 1 occur).
  size_t terms_per_doc = 18;
  /// Cluster-exclusive topic terms per cluster.
  size_t topic_terms_per_cluster = 12;
  /// Background vocabulary shared by every cluster.
  size_t shared_vocab = 5000;
  /// Probability that a term draw comes from the document's topic pool
  /// rather than the shared background vocabulary.
  double topic_fraction = 0.6;
};

/// Fast synthetic corpus with planted cluster structure, built directly in
/// TermId space (no tokenization), so multi-million-doc corpora generate in
/// seconds. Topic terms are cluster-exclusive: a cluster's posting lists
/// touch only its own documents. Documents are assigned to clusters
/// round-robin in doc-id order (doc i belongs to cluster i % num_clusters),
/// so same-cluster documents sit num_clusters apart and every topical
/// posting list spans the whole id range. Deterministic for a fixed
/// options struct.
class ClusteredGenerator {
 public:
  explicit ClusteredGenerator(ClusteredOptions options = {});

  doc::Corpus Generate() const;

  const ClusteredOptions& options() const { return options_; }

 private:
  ClusteredOptions options_;
};

}  // namespace qec::datagen

#endif  // QEC_DATAGEN_CLUSTERED_H_
