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
  const std::vector<TermId>& terms = universe.DistinctTerms();
  for (size_t local = 0; local < terms.size(); ++local) {
    const TermId t = terms[local];
    if (std::ranges::find(user_query, t) != user_query.end()) continue;
    if (options.drop_universal_terms &&
        universe.DocsWithLocalTerm(local).Count() == n) {
      continue;
    }
    double tfidf =
        static_cast<double>(universe.LocalTermFrequency(local)) * index.Idf(t);
    scored.push_back(Scored{t, tfidf});
  }

  size_t keep = static_cast<size_t>(
      std::ceil(options.fraction * static_cast<double>(scored.size())));
  keep = std::min(keep, scored.size());
  if (options.max_candidates > 0) keep = std::min(keep, options.max_candidates);

  // The order is total (score descending, then TermId ascending), so the
  // kept prefix is the same whether the tail is sorted or not.
  auto by_score = [](const Scored& a, const Scored& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.term < b.term;
  };
  if (keep < scored.size()) {
    std::partial_sort(scored.begin(), scored.begin() + keep, scored.end(),
                      by_score);
  } else {
    std::sort(scored.begin(), scored.end(), by_score);
  }

  std::vector<TermId> out;
  out.reserve(keep);
  for (size_t i = 0; i < keep; ++i) out.push_back(scored[i].term);
  return out;
}

}  // namespace qec::core
