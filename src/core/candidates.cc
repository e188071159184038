#include "core/candidates.h"

#include <algorithm>
#include <cmath>

namespace qec::core {

std::vector<TermId> SelectCandidates(const ResultUniverse& universe,
                                     const index::InvertedIndex& index,
                                     const std::vector<TermId>& user_query,
                                     const CandidateOptions& options) {
  struct Scored {
    TermId term;
    double score;
  };
  std::vector<Scored> scored;
  const size_t n = universe.size();
  for (TermId t : universe.DistinctTerms()) {
    if (std::ranges::find(user_query, t) != user_query.end()) continue;
    if (options.drop_universal_terms && universe.DocsWithTerm(t).Count() == n) {
      continue;
    }
    double tfidf =
        static_cast<double>(universe.TotalTermFrequency(t)) * index.Idf(t);
    scored.push_back(Scored{t, tfidf});
  }
  std::sort(scored.begin(), scored.end(), [](const Scored& a, const Scored& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.term < b.term;
  });

  size_t keep = static_cast<size_t>(
      std::ceil(options.fraction * static_cast<double>(scored.size())));
  keep = std::min(keep, scored.size());
  if (options.max_candidates > 0) keep = std::min(keep, options.max_candidates);

  std::vector<TermId> out;
  out.reserve(keep);
  for (size_t i = 0; i < keep; ++i) out.push_back(scored[i].term);
  return out;
}

}  // namespace qec::core
