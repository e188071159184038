#include "baselines/data_clouds.h"

#include <algorithm>
#include <unordered_set>

namespace qec::baselines {

DataClouds::DataClouds(DataCloudsOptions options) : options_(options) {}

std::vector<SuggestedQuery> DataClouds::Suggest(
    const core::ResultUniverse& universe, const index::InvertedIndex& index,
    const std::vector<TermId>& user_terms) const {
  std::unordered_set<TermId> excluded(user_terms.begin(), user_terms.end());

  struct Scored {
    TermId term;
    double score;
  };
  // Σ over results containing t of tf(t, d) · rank(d), rank-weighted,
  // summed in ascending result order from the universe's term rows.
  const cluster::TermRows& rows = universe.term_rows();
  std::vector<double> weighted_tf(rows.dims, 0.0);
  for (size_t i = 0; i < universe.size(); ++i) {
    for (uint32_t e = rows.begin[i]; e < rows.begin[i + 1]; ++e) {
      weighted_tf[rows.term[e]] += rows.weight[e] * universe.weight(i);
    }
  }
  std::vector<Scored> scored;
  for (size_t local = 0; local < rows.dims; ++local) {
    const TermId t = universe.DistinctTerms()[local];
    if (excluded.count(t) != 0) continue;
    scored.push_back(Scored{t, weighted_tf[local] * index.Idf(t)});
  }
  std::sort(scored.begin(), scored.end(), [](const Scored& a, const Scored& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.term < b.term;
  });

  const auto& vocab = index.corpus().analyzer().vocabulary();
  std::vector<SuggestedQuery> out;
  for (size_t i = 0; i < scored.size() && out.size() < options_.num_queries;
       ++i) {
    SuggestedQuery q;
    q.terms = user_terms;
    q.terms.push_back(scored[i].term);
    for (TermId t : q.terms) q.keywords.emplace_back(vocab.TermString(t));
    out.push_back(std::move(q));
  }
  return out;
}

}  // namespace qec::baselines
