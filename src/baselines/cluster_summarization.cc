#include "baselines/cluster_summarization.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <unordered_set>

#include "common/logging.h"
#include "core/metrics.h"

namespace qec::baselines {

ClusterSummarization::ClusterSummarization(ClusterSummarizationOptions options)
    : options_(options) {}

std::vector<SuggestedQuery> ClusterSummarization::Suggest(
    const core::ResultUniverse& universe, const index::InvertedIndex& index,
    const std::vector<TermId>& user_terms,
    const cluster::Clustering& clustering) const {
  QEC_CHECK_EQ(clustering.assignment.size(), universe.size());
  std::unordered_set<TermId> excluded(user_terms.begin(), user_terms.end());
  const size_t k = clustering.num_clusters;

  // Per-cluster term frequencies and cluster frequency of each term.
  std::vector<std::unordered_map<TermId, double>> cluster_tf(k);
  std::unordered_map<TermId, size_t> cluster_freq;
  const auto members = clustering.Members();
  for (size_t c = 0; c < k; ++c) {
    for (size_t i : members[c]) {
      const doc::Document& d = universe.corpus().Get(universe.doc_at(i));
      const auto& terms = d.term_set();
      for (size_t e = 0; e < terms.size(); ++e) {
        cluster_tf[c][terms[e]] += static_cast<double>(d.term_counts()[e]);
      }
    }
    for (const auto& [t, tf] : cluster_tf[c]) cluster_freq[t]++;
  }

  const auto& vocab = index.corpus().analyzer().vocabulary();
  std::vector<SuggestedQuery> out;
  for (size_t c = 0; c < k; ++c) {
    struct Scored {
      TermId term;
      double score;
    };
    std::vector<Scored> scored;
    for (const auto& [t, tf] : cluster_tf[c]) {
      if (excluded.count(t) != 0) continue;
      // TFICF: tf within the cluster × log-scaled inverse cluster frequency.
      double icf = std::log(1.0 + static_cast<double>(k) /
                                      static_cast<double>(cluster_freq[t]));
      scored.push_back(Scored{t, tf * icf});
    }
    std::sort(scored.begin(), scored.end(),
              [](const Scored& a, const Scored& b) {
                if (a.score != b.score) return a.score > b.score;
                return a.term < b.term;
              });
    SuggestedQuery q;
    q.terms = user_terms;
    for (size_t i = 0; i < scored.size() && i < options_.label_size; ++i) {
      q.terms.push_back(scored[i].term);
    }
    for (TermId t : q.terms) q.keywords.emplace_back(vocab.TermString(t));
    out.push_back(std::move(q));
  }
  return out;
}

std::vector<core::QueryQuality> ClusterSummarization::Evaluate(
    const core::ResultUniverse& universe,
    const std::vector<SuggestedQuery>& suggestions,
    const cluster::Clustering& clustering) const {
  const auto members = clustering.Members();
  QEC_CHECK_EQ(suggestions.size(), members.size());
  std::vector<core::QueryQuality> out;
  for (size_t c = 0; c < suggestions.size(); ++c) {
    DynamicBitset cluster_bits = universe.EmptySet();
    for (size_t i : members[c]) cluster_bits.Set(i);
    DynamicBitset retrieved = universe.Retrieve(suggestions[c].terms);
    out.push_back(core::EvaluateQuery(universe, retrieved, cluster_bits));
  }
  return out;
}

}  // namespace qec::baselines
