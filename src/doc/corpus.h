#ifndef QEC_DOC_CORPUS_H_
#define QEC_DOC_CORPUS_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "doc/document.h"
#include "text/analyzer.h"

namespace qec::doc {

/// Aggregate corpus statistics.
struct CorpusStats {
  size_t num_docs = 0;
  size_t num_distinct_terms = 0;
  size_t total_term_occurrences = 0;
  double avg_doc_length = 0.0;
};

/// A collection of documents sharing one analyzer/vocabulary. Documents are
/// append-only and identified by dense DocIds.
class Corpus {
 public:
  explicit Corpus(text::AnalyzerOptions analyzer_options = {});

  /// Adds a free-text document; `body` is tokenized by the analyzer.
  DocId AddTextDocument(std::string title, std::string_view body);

  /// Adds a structured document: each feature is indexed both as its
  /// canonical token ("entity:attribute:value") and as the word tokens of
  /// its parts, so both keyword queries ("canon") and feature queries
  /// ("canonproducts:category:camera") retrieve it.
  DocId AddStructuredDocument(std::string title,
                              std::vector<Feature> features);

  /// Deserialization support: appends a document with pre-interned term
  /// ids, bypassing text analysis. Every id must already exist in the
  /// vocabulary (the snapshot loader validates this before calling).
  DocId RestoreDocument(DocumentKind kind, std::string title,
                        std::vector<TermId> terms,
                        std::vector<Feature> features);

  size_t NumDocs() const { return docs_.size(); }

  const Document& Get(DocId id) const;

  text::Analyzer& analyzer() { return *analyzer_; }
  const text::Analyzer& analyzer() const { return *analyzer_; }

  CorpusStats Stats() const;

 private:
  std::unique_ptr<text::Analyzer> analyzer_;
  std::vector<Document> docs_;
};

}  // namespace qec::doc

#endif  // QEC_DOC_CORPUS_H_
