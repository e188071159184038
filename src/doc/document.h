#ifndef QEC_DOC_DOCUMENT_H_
#define QEC_DOC_DOCUMENT_H_

#include <string>
#include <vector>

#include "common/types.h"

namespace qec::doc {

/// A structured-data feature, the (entity:attribute:value) triplet of
/// Sec. 2 of the paper (e.g. product:name:iPad).
struct Feature {
  std::string entity;
  std::string attribute;
  std::string value;

  friend bool operator==(const Feature& a, const Feature& b) {
    return a.entity == b.entity && a.attribute == b.attribute &&
           a.value == b.value;
  }
};

/// Renders a feature as its canonical searchable token,
/// "entity:attribute:value" lowercased with internal whitespace removed
/// (e.g. "tv:display area:42\"" -> "tv:displayarea:42\"").
std::string FeatureToken(const Feature& feature);

enum class DocumentKind {
  /// Free text modeled as a set of words.
  kText,
  /// A fragment of structured data modeled as a set of features.
  kStructured,
};

/// One indexed document. Term ids carry duplicates (term frequency); the
/// deduplicated sorted term set is materialized once for boolean evaluation.
class Document {
 public:
  Document(DocId id, DocumentKind kind, std::string title,
           std::vector<TermId> terms, std::vector<Feature> features);

  DocId id() const { return id_; }
  DocumentKind kind() const { return kind_; }
  const std::string& title() const { return title_; }

  /// All term occurrences, in document order (duplicates preserved).
  const std::vector<TermId>& terms() const { return terms_; }

  /// Sorted, deduplicated term ids.
  const std::vector<TermId>& term_set() const { return term_set_; }

  /// term_counts()[i] is the frequency of term_set()[i]: a walk over the
  /// term set reads each count at its index instead of searching for it.
  const std::vector<int>& term_counts() const { return term_counts_; }

  /// Frequency of `term` in this document (0 when absent).
  int TermFrequency(TermId term) const;

  /// True if the document contains `term`.
  bool Contains(TermId term) const;

  /// Structured features (empty for text documents).
  const std::vector<Feature>& features() const { return features_; }

  /// Number of term occurrences (document length).
  size_t length() const { return terms_.size(); }

 private:
  DocId id_;
  DocumentKind kind_;
  std::string title_;
  std::vector<TermId> terms_;
  std::vector<TermId> term_set_;   // sorted unique
  std::vector<int> term_counts_;   // parallel to term_set_
  std::vector<Feature> features_;
};

}  // namespace qec::doc

#endif  // QEC_DOC_DOCUMENT_H_
