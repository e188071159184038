#ifndef QEC_TEXT_VOCABULARY_H_
#define QEC_TEXT_VOCABULARY_H_

#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/types.h"

namespace qec::text {

/// Bidirectional string interner: term string <-> dense TermId. All corpus
/// processing works on TermIds; strings only reappear when presenting
/// expanded queries to the user. Each term is stored once, as the key of
/// the id map. The map is node-based, so keys never move, and the
/// id->string table holds views of them: TermString hands out a view with
/// vocabulary lifetime, and Intern/Lookup probe with the borrowed view
/// (heterogeneous lookup). Non-copyable, because those views point into
/// this vocabulary's own map.
class Vocabulary {
 public:
  Vocabulary() = default;
  Vocabulary(const Vocabulary&) = delete;
  Vocabulary& operator=(const Vocabulary&) = delete;

  /// Interns `term`, returning its id (existing or fresh).
  TermId Intern(std::string_view term);

  /// Id of `term`, or kInvalidTermId if it was never interned.
  TermId Lookup(std::string_view term) const;

  /// String of an interned id. `id` must be valid. The view stays valid for
  /// the lifetime of the vocabulary (map keys never move).
  std::string_view TermString(TermId id) const;

  /// Number of distinct interned terms.
  size_t size() const { return terms_.size(); }

  /// Pre-sizes the intern tables for `n` terms; deserializers call this
  /// before bulk re-interning a stored vocabulary.
  void Reserve(size_t n) {
    ids_.reserve(n);
    terms_.reserve(n);
  }

 private:
  struct ViewHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  std::unordered_map<std::string, TermId, ViewHash, std::equal_to<>> ids_;
  std::vector<std::string_view> terms_;
};

}  // namespace qec::text

#endif  // QEC_TEXT_VOCABULARY_H_
