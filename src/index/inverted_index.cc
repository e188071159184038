#include "index/inverted_index.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "common/logging.h"
#include "obs/metrics.h"

namespace qec::index {

InvertedIndex::InvertedIndex(const doc::Corpus& corpus) : corpus_(&corpus) {
  Rebuild();
}

InvertedIndex::InvertedIndex(const doc::Corpus& corpus,
                             std::vector<std::vector<Posting>> postings,
                             AdoptPostingsTag)
    : corpus_(&corpus), postings_(std::move(postings)) {
  ComputeWeights();
}

InvertedIndex InvertedIndex::FromPostings(
    const doc::Corpus& corpus, std::vector<std::vector<Posting>> postings) {
  return InvertedIndex(corpus, std::move(postings), AdoptPostingsTag{});
}

void InvertedIndex::Rebuild() {
  postings_.assign(corpus_->analyzer().vocabulary().size(), {});
  for (DocId d = 0; d < corpus_->NumDocs(); ++d) {
    const doc::Document& doc = corpus_->Get(d);
    const auto& terms = doc.term_set();
    const auto& counts = doc.term_counts();
    for (size_t i = 0; i < terms.size(); ++i) {
      postings_[terms[i]].push_back(Posting{d, counts[i]});
    }
  }
  ComputeWeights();
}

void InvertedIndex::ComputeWeights() {
  const double n = static_cast<double>(corpus_->NumDocs());
  idf_.resize(postings_.size());
  for (TermId t = 0; t < postings_.size(); ++t) {
    const size_t df = postings_[t].size();
    idf_[t] = df == 0 ? std::log(1.0 + n)
                      : std::log(1.0 + n / static_cast<double>(df));
  }
  // TF-IDF document norms for VSM scoring (needs df, so a second pass).
  doc_norms_.assign(corpus_->NumDocs(), 0.0);
  for (DocId d = 0; d < corpus_->NumDocs(); ++d) {
    const doc::Document& doc = corpus_->Get(d);
    double sq = 0.0;
    const auto& terms = doc.term_set();
    const auto& counts = doc.term_counts();
    for (size_t i = 0; i < terms.size(); ++i) {
      double w = static_cast<double>(counts[i]) * Idf(terms[i]);
      sq += w * w;
    }
    doc_norms_[d] = std::sqrt(sq);
  }
}

void InvertedIndex::SetExternalIds(std::vector<DocId> ids) {
  if (!ids.empty()) QEC_CHECK_EQ(ids.size(), corpus_->NumDocs());
  external_ids_ = std::move(ids);
}

size_t InvertedIndex::DocumentFrequency(TermId term) const {
  return Postings(term).size();
}

const std::vector<Posting>& InvertedIndex::Postings(TermId term) const {
  if (term >= postings_.size()) return empty_;
  return postings_[term];
}

double InvertedIndex::Idf(TermId term) const {
  if (term < idf_.size()) return idf_[term];
  return std::log(1.0 + static_cast<double>(corpus_->NumDocs()));
}

std::vector<TermId> InvertedIndex::RarestFirst(
    const std::vector<TermId>& terms) const {
  std::vector<TermId> sorted = terms;
  std::sort(sorted.begin(), sorted.end(), [this](TermId a, TermId b) {
    const size_t df_a = DocumentFrequency(a);
    const size_t df_b = DocumentFrequency(b);
    return df_a != df_b ? df_a < df_b : a < b;
  });
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  return sorted;
}

std::vector<DocId> InvertedIndex::Intersect(const std::vector<TermId>& unique,
                                            std::vector<int>* tf_rows) const {
  // Each candidate carries a row of unique.size() term frequencies; column
  // j is filled when unique[j]'s list is merged in, and survivors are
  // compacted in place (row kept <= row a, so the copy never overlaps).
  const size_t width = unique.size();
  const std::vector<Posting>& first = Postings(unique[0]);
  std::vector<DocId> docs(first.size());
  std::vector<int>& tfs = *tf_rows;
  tfs.assign(first.size() * width, 0);
  for (size_t r = 0; r < first.size(); ++r) {
    docs[r] = first[r].doc;
    tfs[r * width] = first[r].tf;
  }
  size_t scanned = docs.size();
  for (size_t j = 1; j < width && !docs.empty(); ++j) {
    const std::vector<Posting>& plist = Postings(unique[j]);
    size_t kept = 0, a = 0, b = 0;
    while (a < docs.size() && b < plist.size()) {
      ++scanned;
      if (docs[a] < plist[b].doc) {
        ++a;
      } else if (plist[b].doc < docs[a]) {
        ++b;
      } else {
        if (kept != a) {
          docs[kept] = docs[a];
          std::copy_n(&tfs[a * width], j, &tfs[kept * width]);
        }
        tfs[kept * width + j] = plist[b].tf;
        ++kept;
        ++a;
        ++b;
      }
    }
    docs.resize(kept);
  }
  tfs.resize(docs.size() * width);
  QEC_COUNTER_INC("index/and_queries");
  QEC_COUNTER_ADD("index/postings_scanned", scanned);
  return docs;
}

void InvertedIndex::SelectTopK(std::vector<RankedResult>* results,
                               size_t top_k) const {
  // Score ties break on external ids: on a cluster-reordered corpus the
  // ranked order (hence the expansion universe) matches the unpermuted
  // index exactly; with no mapping installed this is the plain id order.
  // External ids are a permutation, so this order is total and the first
  // top_k of a partial sort are exactly those of a full sort.
  const auto before = [this](const RankedResult& a, const RankedResult& b) {
    if (a.score != b.score) return a.score > b.score;
    return ExternalId(a.doc) < ExternalId(b.doc);
  };
  if (top_k > 0 && top_k < results->size()) {
    std::partial_sort(results->begin(), results->begin() + top_k,
                      results->end(), before);
    results->resize(top_k);
  } else {
    std::sort(results->begin(), results->end(), before);
  }
}

std::vector<DocId> InvertedIndex::EvaluateAnd(
    const std::vector<TermId>& terms) const {
  if (terms.empty()) {
    std::vector<DocId> all(corpus_->NumDocs());
    for (DocId d = 0; d < all.size(); ++d) all[d] = d;
    return all;
  }
  std::vector<int> tf_rows;
  return Intersect(RarestFirst(terms), &tf_rows);
}

std::vector<DocId> InvertedIndex::EvaluateOr(
    const std::vector<TermId>& terms) const {
  std::vector<DocId> out;
  for (TermId t : terms) {
    for (const Posting& p : Postings(t)) out.push_back(p.doc);
  }
  QEC_COUNTER_INC("index/or_queries");
  QEC_COUNTER_ADD("index/postings_scanned", out.size());
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

double InvertedIndex::TfIdfScore(const std::vector<TermId>& terms,
                                 DocId doc) const {
  const doc::Document& d = corpus_->Get(doc);
  double score = 0.0;
  for (TermId t : terms) {
    int tf = d.TermFrequency(t);
    if (tf > 0) score += static_cast<double>(tf) * Idf(t);
  }
  return score;
}

std::vector<RankedResult> InvertedIndex::Search(
    const std::vector<TermId>& terms, size_t top_k) const {
  QEC_COUNTER_INC("index/searches");
  std::vector<RankedResult> out;
  if (terms.empty()) {
    out.reserve(corpus_->NumDocs());
    for (DocId d = 0; d < corpus_->NumDocs(); ++d) {
      out.push_back(RankedResult{d, 0.0});
    }
    SelectTopK(&out, top_k);
    return out;
  }
  const std::vector<TermId> unique = RarestFirst(terms);
  std::vector<int> tf_rows;
  const std::vector<DocId> docs = Intersect(unique, &tf_rows);
  // Each query term's tf column and idf, in query order with duplicates,
  // so every score adds the same products in the same order as TfIdfScore.
  std::vector<size_t> column(terms.size());
  std::vector<double> idf(terms.size());
  for (size_t i = 0; i < terms.size(); ++i) {
    column[i] = static_cast<size_t>(
        std::find(unique.begin(), unique.end(), terms[i]) - unique.begin());
    idf[i] = Idf(terms[i]);
  }
  const size_t width = unique.size();
  out.resize(docs.size());
  for (size_t r = 0; r < docs.size(); ++r) {
    const int* row = &tf_rows[r * width];
    double score = 0.0;
    for (size_t i = 0; i < terms.size(); ++i) {
      score += static_cast<double>(row[column[i]]) * idf[i];
    }
    out[r] = RankedResult{docs[r], score};
  }
  SelectTopK(&out, top_k);
  return out;
}

std::vector<RankedResult> InvertedIndex::SearchVsm(
    const std::vector<TermId>& terms, size_t top_k) const {
  // Query vector: idf weight per distinct term (tf within the query is
  // almost always 1 for keyword queries; duplicates accumulate).
  std::unordered_map<TermId, double> query_weights;
  for (TermId t : terms) query_weights[t] += Idf(t);
  double query_sq = 0.0;
  for (const auto& [t, w] : query_weights) query_sq += w * w;
  const double query_norm = std::sqrt(query_sq);
  if (query_norm == 0.0) return {};

  // Accumulate dot products by traversing each query term's postings.
  QEC_COUNTER_INC("index/searches");
  size_t scanned = 0;
  std::unordered_map<DocId, double> dots;
  for (const auto& [t, qw] : query_weights) {
    const double idf = Idf(t);
    scanned += Postings(t).size();
    for (const Posting& p : Postings(t)) {
      dots[p.doc] += qw * static_cast<double>(p.tf) * idf;
    }
  }
  QEC_COUNTER_ADD("index/postings_scanned", scanned);

  std::vector<RankedResult> out;
  out.reserve(dots.size());
  for (const auto& [d, dot] : dots) {
    const double norm = doc_norms_[d];
    if (norm <= 0.0) continue;
    out.push_back(RankedResult{d, dot / (norm * query_norm)});
  }
  SelectTopK(&out, top_k);
  return out;
}

std::vector<RankedResult> InvertedIndex::SearchBm25(
    const std::vector<TermId>& terms, size_t top_k,
    const Bm25Params& params) const {
  const double n = static_cast<double>(corpus_->NumDocs());
  if (n == 0.0) return {};
  const double avg_len = corpus_->Stats().avg_doc_length;

  std::vector<TermId> unique = terms;
  std::sort(unique.begin(), unique.end());
  unique.erase(std::unique(unique.begin(), unique.end()), unique.end());

  QEC_COUNTER_INC("index/searches");
  size_t scanned = 0;
  std::unordered_map<DocId, double> scores;
  for (TermId t : unique) {
    const double df = static_cast<double>(DocumentFrequency(t));
    if (df == 0.0) continue;
    scanned += Postings(t).size();
    // BM25's idf with the +1 smoothing that keeps it positive.
    const double idf = std::log(1.0 + (n - df + 0.5) / (df + 0.5));
    for (const Posting& p : Postings(t)) {
      const double tf = static_cast<double>(p.tf);
      const double len_norm =
          avg_len > 0.0
              ? 1.0 - params.b +
                    params.b *
                        static_cast<double>(corpus_->Get(p.doc).length()) /
                        avg_len
              : 1.0;
      scores[p.doc] +=
          idf * tf * (params.k1 + 1.0) / (tf + params.k1 * len_norm);
    }
  }

  QEC_COUNTER_ADD("index/postings_scanned", scanned);
  std::vector<RankedResult> out;
  out.reserve(scores.size());
  for (const auto& [d, s] : scores) out.push_back(RankedResult{d, s});
  SelectTopK(&out, top_k);
  return out;
}

std::vector<RankedResult> InvertedIndex::SearchText(std::string_view query,
                                                    size_t top_k) const {
  std::vector<TermId> terms = corpus_->analyzer().AnalyzeReadOnly(query);
  // If analysis dropped unknown words, the AND result must be empty: a
  // document cannot contain a term that is absent from the vocabulary.
  std::vector<std::string> raw_tokens =
      text::Tokenizer(corpus_->analyzer().options().tokenizer).Tokenize(query);
  size_t known_non_stopword = terms.size();
  // Count non-stopword tokens to detect unknown words.
  text::StopwordList stopwords =
      corpus_->analyzer().options().remove_stopwords
          ? text::StopwordList::DefaultEnglish()
          : text::StopwordList();
  size_t expected = 0;
  for (const auto& tok : raw_tokens) {
    if (!stopwords.IsStopword(tok)) ++expected;
  }
  if (known_non_stopword < expected) return {};
  return Search(terms, top_k);
}

}  // namespace qec::index
