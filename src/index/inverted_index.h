#ifndef QEC_INDEX_INVERTED_INDEX_H_
#define QEC_INDEX_INVERTED_INDEX_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"
#include "doc/corpus.h"

namespace qec::index {

/// One posting: a document containing the term, with its term frequency.
struct Posting {
  DocId doc;
  int tf;
};

/// A retrieved document with its ranking score.
struct RankedResult {
  DocId doc;
  double score;

  friend bool operator==(const RankedResult& a, const RankedResult& b) {
    return a.doc == b.doc && a.score == b.score;
  }
};

/// Inverted index over a corpus, with boolean (AND/OR) evaluation and
/// TF-IDF ranked retrieval. The index holds a reference to the corpus,
/// which must outlive it; call Rebuild() after appending documents.
class InvertedIndex {
 public:
  /// Builds the index over all documents currently in `corpus`.
  explicit InvertedIndex(const doc::Corpus& corpus);

  /// Deserialization support (storage/snapshot.h): adopts prebuilt posting
  /// lists instead of scanning the corpus. `postings` must be indexed by
  /// TermId, each list sorted by DocId with ids < corpus.NumDocs() — the
  /// snapshot loader validates this before calling.
  static InvertedIndex FromPostings(const doc::Corpus& corpus,
                                    std::vector<std::vector<Posting>> postings);

  /// Rebuilds from scratch (e.g. after documents were appended).
  void Rebuild();

  const doc::Corpus& corpus() const { return *corpus_; }

  /// Installs the external-id mapping of a reordered corpus: `ids[internal]`
  /// is the doc id the document had before reordering (the QECSNAP `PERM`
  /// section, which only snapshots from older builds carry). Ranked-search
  /// score ties then break on external ids, so result order — and
  /// everything downstream, expansion included — is byte-identical to an
  /// unpermuted index. Empty = identity. `ids` must be empty or a
  /// permutation of [0, NumDocs) (the snapshot reader validates before
  /// calling; direct callers get a size check).
  void SetExternalIds(std::vector<DocId> ids);

  /// The external (pre-reorder) id of internal doc `doc`.
  DocId ExternalId(DocId doc) const {
    return external_ids_.empty() ? doc : external_ids_[doc];
  }

  /// The installed mapping (empty = identity).
  const std::vector<DocId>& external_ids() const { return external_ids_; }

  /// Number of documents containing `term`.
  size_t DocumentFrequency(TermId term) const;

  /// Posting list of `term`, sorted by DocId (empty when unknown).
  const std::vector<Posting>& Postings(TermId term) const;

  /// Smoothed inverse document frequency: log(1 + N / df). Terms absent
  /// from the corpus get idf of log(1 + N). Read from a table built with the
  /// postings, so it costs no `log`.
  double Idf(TermId term) const;

  /// Documents containing ALL of `terms` (AND semantics, the paper's result
  /// definition), sorted by DocId. An empty conjunction returns every
  /// document (the algebraic identity; callers with user-facing empty
  /// queries should special-case them).
  std::vector<DocId> EvaluateAnd(const std::vector<TermId>& terms) const;

  /// Documents containing AT LEAST ONE of `terms` (OR semantics), sorted by
  /// DocId. Empty disjunction returns no documents.
  std::vector<DocId> EvaluateOr(const std::vector<TermId>& terms) const;

  /// TF-IDF score of `doc` for `terms`: sum over query terms of
  /// tf(t, doc) * idf(t).
  double TfIdfScore(const std::vector<TermId>& terms, DocId doc) const;

  /// Ranked retrieval under AND semantics, read from the posting lists
  /// alone: intersects the distinct terms' postings rarest first, carrying
  /// each match's term frequencies, scores every match by TF-IDF, and
  /// returns the `top_k` best (0 = all) in descending score order with
  /// ties on ascending ExternalId. Each score sums the query terms in their
  /// given order, duplicates included, exactly as TfIdfScore does, so the
  /// scores are bit-identical to it; and since the order is total, the
  /// result equals a full sort truncated to `top_k`. An empty query
  /// returns every document with score 0.
  std::vector<RankedResult> Search(const std::vector<TermId>& terms,
                                   size_t top_k = 0) const;

  /// Analyzer-assisted search: analyzes `query` with the corpus analyzer
  /// (read-only) and runs Search. Unknown words yield no results (a document
  /// cannot contain a word absent from the corpus).
  std::vector<RankedResult> SearchText(std::string_view query,
                                       size_t top_k = 0) const;

  /// Vector-space retrieval (the paper's Sec. 7 future work asks for VSM
  /// support): documents containing at least one query term, ranked by
  /// cosine similarity between TF-IDF vectors of query and document.
  /// Scores are in (0, 1]; a document exactly matching the query's term
  /// distribution scores 1.
  std::vector<RankedResult> SearchVsm(const std::vector<TermId>& terms,
                                      size_t top_k = 0) const;

  /// Okapi BM25 parameters.
  struct Bm25Params {
    double k1 = 1.2;  // term-frequency saturation
    double b = 0.75;  // document-length normalization
  };

  /// BM25 ranked retrieval over documents containing at least one query
  /// term (the standard probabilistic ranking alternative to TF-IDF).
  std::vector<RankedResult> SearchBm25(const std::vector<TermId>& terms,
                                       size_t top_k, const Bm25Params& params)
      const;
  std::vector<RankedResult> SearchBm25(const std::vector<TermId>& terms,
                                       size_t top_k = 0) const {
    return SearchBm25(terms, top_k, Bm25Params{});
  }

 private:
  struct AdoptPostingsTag {};
  InvertedIndex(const doc::Corpus& corpus,
                std::vector<std::vector<Posting>> postings, AdoptPostingsTag);

  /// Fills the idf table and the document norms from the postings.
  void ComputeWeights();

  /// The distinct `terms`, rarest first (ties on TermId, so equal terms
  /// sit next to each other and dedupe).
  std::vector<TermId> RarestFirst(const std::vector<TermId>& terms) const;

  /// Documents holding every one of `unique` (non-empty, distinct), sorted
  /// by DocId, merged rarest first. `tf_rows` gets one row of
  /// unique.size() term frequencies per returned document, column j for
  /// unique[j].
  std::vector<DocId> Intersect(const std::vector<TermId>& unique,
                               std::vector<int>* tf_rows) const;

  /// Sorts `results` by descending score, ties on ascending ExternalId,
  /// keeping only the first `top_k` (0 = all).
  void SelectTopK(std::vector<RankedResult>* results, size_t top_k) const;

  const doc::Corpus* corpus_;
  std::vector<std::vector<Posting>> postings_;  // indexed by TermId
  std::vector<double> idf_;        // Idf() per TermId < postings_.size()
  std::vector<double> doc_norms_;  // ||tf-idf vector|| per document
  std::vector<DocId> external_ids_;  // empty = identity
  std::vector<Posting> empty_;
};

}  // namespace qec::index

#endif  // QEC_INDEX_INVERTED_INDEX_H_
