#include "datagen/clustered.h"

#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/random.h"
#include "obs/metrics.h"
#include "text/analyzer.h"

namespace qec::datagen {

ClusteredGenerator::ClusteredGenerator(ClusteredOptions options)
    : options_(std::move(options)) {
  QEC_CHECK(options_.num_clusters > 0);
  QEC_CHECK(options_.terms_per_doc > 0);
  QEC_CHECK(options_.topic_terms_per_cluster > 0);
  QEC_CHECK(options_.shared_vocab > 0);
}

doc::Corpus ClusteredGenerator::Generate() const {
  doc::Corpus corpus;
  text::Analyzer& analyzer = corpus.analyzer();
  analyzer.vocabulary().Reserve(
      options_.shared_vocab +
      options_.num_clusters * options_.topic_terms_per_cluster);

  // Vocabulary layout is fixed: background terms first, then each
  // cluster's topic block. Interning order defines TermIds, so the whole
  // corpus is deterministic in TermId space.
  std::vector<TermId> background(options_.shared_vocab);
  for (size_t i = 0; i < options_.shared_vocab; ++i) {
    std::string term = "w";
    term += std::to_string(i);
    background[i] = analyzer.InternVerbatim(term);
  }
  std::vector<std::vector<TermId>> topics(options_.num_clusters);
  for (size_t k = 0; k < options_.num_clusters; ++k) {
    topics[k].reserve(options_.topic_terms_per_cluster);
    for (size_t j = 0; j < options_.topic_terms_per_cluster; ++j) {
      std::string term = "c";
      term += std::to_string(k);
      term += 't';
      term += std::to_string(j);
      topics[k].push_back(analyzer.InternVerbatim(term));
    }
  }

  Rng rng(options_.seed);
  std::vector<TermId> terms;
  terms.reserve(options_.terms_per_doc);
  for (size_t i = 0; i < options_.num_docs; ++i) {
    const std::vector<TermId>& topic = topics[i % options_.num_clusters];
    terms.clear();
    for (size_t t = 0; t < options_.terms_per_doc; ++t) {
      if (rng.Bernoulli(options_.topic_fraction)) {
        terms.push_back(topic[rng.UniformInt(topic.size())]);
      } else {
        terms.push_back(background[rng.UniformInt(background.size())]);
      }
    }
    corpus.RestoreDocument(doc::DocumentKind::kText,
                           "doc" + std::to_string(i), terms, {});
  }
  QEC_COUNTER_INC("datagen/clustered_corpora");
  QEC_COUNTER_ADD("datagen/clustered_docs", options_.num_docs);
  return corpus;
}

}  // namespace qec::datagen
