#include "traced_pipeline.h"

#include <algorithm>
#include <optional>
#include <string>
#include <utility>

#include "cluster/sparse_vector.h"
#include "core/candidates.h"
#include "core/expansion_context.h"
#include "core/fmeasure_expander.h"
#include "core/iskr.h"
#include "core/metrics.h"
#include "core/pebc.h"

namespace pipebench {

using qec::core::ExpansionAlgorithm;

namespace {

qec::core::ExpansionResult RunAlgorithm(
    const qec::core::QueryExpanderOptions& options,
    const qec::core::ExpansionContext& context) {
  switch (options.algorithm) {
    case ExpansionAlgorithm::kIskr:
      return qec::core::IskrExpander(options.iskr, options.sweep)
          .Expand(context);
    case ExpansionAlgorithm::kPebc:
      return qec::core::PebcExpander(options.pebc, options.sweep)
          .Expand(context);
    case ExpansionAlgorithm::kFMeasure:
      return qec::core::FMeasureExpander(options.fmeasure, options.sweep)
          .Expand(context);
  }
  return {};
}

}  // namespace

const char* ExpandSpanName(ExpansionAlgorithm algorithm) {
  switch (algorithm) {
    case ExpansionAlgorithm::kIskr:
      return kSpanExpandIskr;
    case ExpansionAlgorithm::kPebc:
      return kSpanExpandPebc;
    case ExpansionAlgorithm::kFMeasure:
      return kSpanExpandFMeasure;
  }
  return kSpanExpandIskr;
}

void LayerCounts::Add(const LayerCounts& other) {
  results += other.results;
  universe_words += other.universe_words;
  k_tried += other.k_tried;
  k_chosen += other.k_chosen;
  silhouette_pairs += other.silhouette_pairs;
  candidates += other.candidates;
  candidates_evaluated += other.candidates_evaluated;
  iskr_steps += other.iskr_steps;
  pebc_samples += other.pebc_samples;
  memo_hits += other.memo_hits;
  memo_misses += other.memo_misses;
  scratch_reuses += other.scratch_reuses;
  scratch_allocs += other.scratch_allocs;
}

qec::Result<TracedExpansion> TracedExpandText(
    const qec::index::InvertedIndex& index,
    const qec::core::QueryExpanderOptions& options, std::string_view query,
    SpanRecorder* spans, uint64_t request) {
  if (options.retrieval != qec::core::RetrievalModel::kTfIdfAnd ||
      options.clustering != qec::core::ClusteringAlgorithm::kKMeans ||
      options.interleave_rounds != 0 || options.minimize_queries ||
      options.explain_terms) {
    return qec::Status::InvalidArgument(
        "the traced pipeline covers the engine's default path only");
  }
  TracedExpansion traced;
  LayerCounts& counts = traced.counts;
  const qec::doc::Corpus& corpus = index.corpus();

  std::vector<qec::TermId> terms;
  {
    ScopedSpan span(spans, kSpanAnalyze, request);
    terms = corpus.analyzer().AnalyzeReadOnly(query);
  }
  if (terms.empty()) {
    return qec::Status::InvalidArgument("query '" + std::string(query) +
                                        "' contains no known terms");
  }

  std::vector<qec::index::RankedResult> results;
  {
    ScopedSpan span(spans, kSpanSearch, request);
    results = index.Search(terms, options.top_k_results);
  }
  counts.results = results.size();
  if (results.empty()) {
    return qec::Status::NotFound("user query retrieved no results");
  }
  if (options.top_k_results > 0 && results.size() > options.top_k_results) {
    results.resize(options.top_k_results);
  }
  if (!options.use_ranking_weights) {
    for (auto& r : results) r.score = 1.0;
  }

  std::optional<qec::core::ResultUniverse> universe;
  {
    ScopedSpan span(spans, kSpanUniverse, request);
    universe.emplace(corpus, results);
    if (options.memoize_set_algebra) universe->EnableSetAlgebraCache();
  }
  counts.universe_words = universe->DistinctTerms().size();

  std::vector<qec::cluster::SparseVector> vectors;
  {
    ScopedSpan span(spans, kSpanVectorize, request);
    vectors.reserve(universe->size());
    for (size_t i = 0; i < universe->size(); ++i) {
      vectors.push_back(qec::cluster::SparseVector::FromDocument(
          corpus.Get(universe->doc_at(i))));
    }
  }

  // KMeans::Cluster's auto-k loop, one public Cluster call per k.
  qec::cluster::KMeansOptions kmeans = options.kmeans;
  kmeans.k = options.max_clusters;
  const size_t n = vectors.size();
  const size_t k_max = std::min(kmeans.k == 0 ? size_t{1} : kmeans.k, n);
  auto cluster_with_k = [&](size_t k) {
    ScopedSpan span(spans, kSpanKMeans, request);
    qec::cluster::KMeansOptions fixed = kmeans;
    fixed.k = k;
    fixed.auto_k = false;
    ++counts.k_tried;
    return qec::cluster::KMeans(fixed).Cluster(vectors);
  };
  if (!kmeans.auto_k || n <= 2 || k_max <= 1) {
    traced.clustering = cluster_with_k(k_max);
  } else {
    traced.clustering = cluster_with_k(1);
    double best_score = 0.0;  // k = 1 is the neutral baseline
    for (size_t k = 2; k <= k_max; ++k) {
      qec::cluster::Clustering candidate = cluster_with_k(k);
      if (candidate.num_clusters < 2) continue;
      double score = 0.0;
      {
        ScopedSpan span(spans, kSpanSilhouette, request);
        score = qec::cluster::MeanSilhouette(vectors, candidate);
      }
      counts.silhouette_pairs += n * (n - 1);
      if (score > best_score + 1e-12) {
        best_score = score;
        traced.clustering = std::move(candidate);
      }
    }
  }
  counts.k_chosen = traced.clustering.num_clusters;

  traced.outcome =
      TracedExpandClustered(index, options, terms, *universe,
                            traced.clustering, spans, request, &counts);
  return traced;
}

qec::core::ExpansionOutcome TracedExpandClustered(
    const qec::index::InvertedIndex& index,
    const qec::core::QueryExpanderOptions& options,
    const std::vector<qec::TermId>& user_terms,
    const qec::core::ResultUniverse& universe,
    const qec::cluster::Clustering& clustering, SpanRecorder* spans,
    uint64_t request, LayerCounts* counts) {
  const qec::core::SetAlgebraCacheStats memo_before =
      universe.set_algebra_cache_stats();
  const qec::core::ScratchArenaStats scratch_before =
      universe.scratch_arena_stats();

  std::vector<qec::TermId> candidates;
  {
    ScopedSpan span(spans, kSpanCandidates, request);
    candidates = qec::core::SelectCandidates(universe, index, user_terms,
                                             options.candidates);
  }
  counts->candidates += candidates.size();

  const auto members = clustering.Members();
  std::vector<qec::core::ExpansionResult> results(members.size());
  const char* expand_span = ExpandSpanName(options.algorithm);
  for (size_t c = 0; c < members.size(); ++c) {
    ScopedSpan span(spans, expand_span, request);
    qec::DynamicBitset cluster_bits = universe.EmptySet();
    for (size_t i : members[c]) cluster_bits.Set(i);
    const qec::core::ExpansionContext context = qec::core::MakeContext(
        universe, user_terms, std::move(cluster_bits), candidates);
    results[c] = RunAlgorithm(options, context);
  }

  qec::core::ExpansionOutcome outcome;
  {
    ScopedSpan span(spans, kSpanAssemble, request);
    outcome.num_results_used = universe.size();
    const auto& vocab = index.corpus().analyzer().vocabulary();
    std::vector<qec::core::QueryQuality> qualities;
    for (size_t c = 0; c < results.size(); ++c) {
      qec::core::ExpansionResult& r = results[c];
      qec::core::ExpandedQuery eq;
      eq.terms = std::move(r.query);
      eq.keywords.reserve(eq.terms.size());
      for (qec::TermId t : eq.terms) {
        eq.keywords.emplace_back(vocab.TermString(t));
      }
      eq.quality = r.quality;
      eq.cluster_index = c;
      eq.cluster_size = members[c].size();
      eq.iterations = r.iterations;
      eq.value_recomputations = r.value_recomputations;
      eq.term_details = std::move(r.term_details);
      outcome.iskr_stats.steps += r.iskr_stats.steps;
      outcome.iskr_stats.additions += r.iskr_stats.additions;
      outcome.iskr_stats.removals += r.iskr_stats.removals;
      outcome.iskr_stats.candidates_evaluated +=
          r.iskr_stats.candidates_evaluated;
      outcome.pebc_stats.samples_drawn += r.pebc_stats.samples_drawn;
      outcome.pebc_stats.rounds += r.pebc_stats.rounds;
      outcome.pebc_stats.intervals_zoomed += r.pebc_stats.intervals_zoomed;
      outcome.pebc_stats.candidates_evaluated +=
          r.pebc_stats.candidates_evaluated;
      outcome.pebc_stats.best_target_percent =
          std::max(outcome.pebc_stats.best_target_percent,
                   r.pebc_stats.best_target_percent);
      qualities.push_back(eq.quality);
      outcome.queries.push_back(std::move(eq));
    }
    outcome.num_clusters = clustering.num_clusters;
    outcome.set_score = qec::core::SetScore(qualities);
  }

  counts->candidates_evaluated += outcome.iskr_stats.candidates_evaluated +
                                  outcome.pebc_stats.candidates_evaluated;
  if (options.algorithm == ExpansionAlgorithm::kFMeasure) {
    for (const auto& q : outcome.queries) {
      counts->candidates_evaluated += q.value_recomputations;
    }
  }
  counts->iskr_steps += outcome.iskr_stats.steps;
  counts->pebc_samples += outcome.pebc_stats.samples_drawn;
  const qec::core::SetAlgebraCacheStats memo =
      universe.set_algebra_cache_stats();
  const qec::core::ScratchArenaStats scratch = universe.scratch_arena_stats();
  counts->memo_hits += memo.hits - memo_before.hits;
  counts->memo_misses += memo.misses - memo_before.misses;
  counts->scratch_reuses += scratch.reuses - scratch_before.reuses;
  counts->scratch_allocs += scratch.allocs - scratch_before.allocs;
  return outcome;
}

}  // namespace pipebench
