#include "text/vocabulary.h"

#include "common/logging.h"

namespace qec::text {

TermId Vocabulary::Intern(std::string_view term) {
  auto it = ids_.find(term);
  if (it != ids_.end()) return it->second;
  const TermId id = static_cast<TermId>(terms_.size());
  terms_.push_back(ids_.emplace(term, id).first->first);
  return id;
}

TermId Vocabulary::Lookup(std::string_view term) const {
  auto it = ids_.find(term);
  return it == ids_.end() ? kInvalidTermId : it->second;
}

std::string_view Vocabulary::TermString(TermId id) const {
  QEC_CHECK_LT(id, terms_.size());
  return terms_[id];
}

}  // namespace qec::text
