#include "core/query_expander.h"

#include <algorithm>
#include <optional>

#include "common/logging.h"
#include "common/sweep_pool.h"
#include "obs/metrics.h"
#include "cluster/cosine_space.h"
#include "cluster/hac.h"
#include "core/expansion_context.h"
#include "core/interleaved.h"
#include "core/query_minimizer.h"

namespace qec::core {

std::string_view AlgorithmName(ExpansionAlgorithm algorithm) {
  switch (algorithm) {
    case ExpansionAlgorithm::kIskr:
      return "ISKR";
    case ExpansionAlgorithm::kPebc:
      return "PEBC";
    case ExpansionAlgorithm::kFMeasure:
      return "F-measure";
  }
  return "?";
}

QueryExpander::QueryExpander(const index::InvertedIndex& index,
                             QueryExpanderOptions options)
    : index_(&index), options_(std::move(options)) {}

Result<ExpansionOutcome> QueryExpander::ExpandText(
    std::string_view user_query) const {
  EnginePhases phases;
  std::vector<TermId> terms;
  {
    PhaseTimer timer(phases, Phase::kAnalyze);
    terms = index_->corpus().analyzer().AnalyzeReadOnly(user_query);
  }
  if (terms.empty()) {
    return Status::InvalidArgument("query '" + std::string(user_query) +
                                   "' contains no known terms");
  }
  std::vector<index::RankedResult> results;
  {
    PhaseTimer timer(phases, Phase::kRetrieve);
    switch (options_.retrieval) {
      case RetrievalModel::kTfIdfAnd:
        results = index_->Search(terms, options_.top_k_results);
        break;
      case RetrievalModel::kVsm:
        results = index_->SearchVsm(terms, options_.top_k_results);
        break;
      case RetrievalModel::kBm25:
        results = index_->SearchBm25(terms, options_.top_k_results);
        break;
    }
  }
  Result<ExpansionOutcome> outcome = Expand(terms, results);
  if (outcome.ok()) outcome->phases += phases;
  return outcome;
}

Result<ExpansionOutcome> QueryExpander::Expand(
    const std::vector<TermId>& user_terms,
    const std::vector<index::RankedResult>& results) const {
  if (results.empty()) {
    return Status::NotFound("user query retrieved no results");
  }
  // Consecutive phases: each emplace closes the previous phase's timer.
  EnginePhases phases;
  std::optional<PhaseTimer> timer;
  timer.emplace(phases, Phase::kUniverse);
  std::vector<index::RankedResult> used = results;
  if (options_.top_k_results > 0 && used.size() > options_.top_k_results) {
    used.resize(options_.top_k_results);
  }
  if (!options_.use_ranking_weights) {
    for (auto& r : used) r.score = 1.0;
  }
  ResultUniverse universe(index_->corpus(), used);
  if (options_.memoize_set_algebra) universe.EnableSetAlgebraCache();

  timer.emplace(phases, Phase::kVectorize);
  const cluster::CosineSpace space(universe.term_rows());

  timer.emplace(phases, Phase::kCluster);
  cluster::Clustering clustering;
  switch (options_.clustering) {
    case ClusteringAlgorithm::kKMeans: {
      cluster::KMeansOptions kmeans_options = options_.kmeans;
      kmeans_options.k = options_.max_clusters;
      clustering = cluster::KMeans(kmeans_options).Cluster(space);
      break;
    }
    case ClusteringAlgorithm::kHac: {
      cluster::HacOptions hac_options;
      hac_options.k = options_.max_clusters;
      hac_options.auto_k = options_.kmeans.auto_k;
      clustering = cluster::Hac(hac_options).Cluster(space);
      break;
    }
    case ClusteringAlgorithm::kDynamic:
      clustering = cluster::SelectBestClustering(
          space, options_.max_clusters, options_.kmeans.seed);
      break;
  }
  timer.reset();

  ExpansionOutcome outcome =
      ExpandClustered(user_terms, universe, clustering);
  outcome.phases += phases;
  return outcome;
}

ExpansionOutcome QueryExpander::ExpandClustered(
    const std::vector<TermId>& user_terms, const ResultUniverse& universe,
    const cluster::Clustering& clustering) const {
  QEC_CHECK_EQ(clustering.assignment.size(), universe.size());
  QEC_COUNTER_INC("engine/expansions");
  ExpansionOutcome outcome;
  outcome.num_results_used = universe.size();

  // Consecutive phases: each emplace closes the previous phase's timer.
  std::optional<PhaseTimer> timer;
  timer.emplace(outcome.phases, Phase::kCandidates);
  std::vector<TermId> candidates = SelectCandidates(
      universe, *index_, user_terms, options_.candidates);

  timer.emplace(outcome.phases, Phase::kExpand);
  // The interleaved path re-clusters; every other path keeps `clustering`.
  cluster::Clustering reclustered;
  const cluster::Clustering* final_clustering = &clustering;
  std::vector<ExpansionResult> results;
  if (options_.interleave_rounds > 0 &&
      options_.algorithm == ExpansionAlgorithm::kIskr) {
    // Interleaved clustering/expansion path (Sec. 7 prototype; ISKR only —
    // the reassignment loop is defined in terms of ISKR expansions).
    InterleavedOptions interleaved_options;
    interleaved_options.max_rounds = options_.interleave_rounds;
    interleaved_options.iskr = options_.iskr;
    interleaved_options.sweep = options_.sweep;
    InterleavedOutcome io = InterleavedExpander(interleaved_options)
                                .Run(universe, user_terms, clustering,
                                     candidates);
    reclustered = std::move(io.clustering);
    final_clustering = &reclustered;
    results = std::move(io.expansions);
  } else {
    // Clusters are expanded independently (Sec. 2), each into its own slot,
    // so results are identical to serial for any num_threads. Nested
    // candidate sweeps inside RunAlgorithm share the same pool.
    const auto members = clustering.Members();
    results.resize(members.size());
    common::ParallelFor(options_.num_threads, members.size(), [&](size_t c) {
      DynamicBitset cluster_bits = universe.EmptySet();
      for (size_t i : members[c]) cluster_bits.Set(i);
      ExpansionContext context = MakeContext(
          universe, user_terms, std::move(cluster_bits), candidates);
      results[c] = RunAlgorithm(context);
    });
  }
  timer.reset();

  if (options_.minimize_queries) {
    timer.emplace(outcome.phases, Phase::kMinimize);
    for (ExpansionResult& result : results) {
      result.query = MinimizeQuery(universe, result.query, user_terms.size());
    }
    timer.reset();
  }

  const auto& vocab = index_->corpus().analyzer().vocabulary();
  const auto members = final_clustering->Members();
  std::vector<QueryQuality> qualities;
  for (size_t c = 0; c < results.size(); ++c) {
    ExpandedQuery eq;
    eq.terms = std::move(results[c].query);
    eq.keywords.reserve(eq.terms.size());
    for (TermId t : eq.terms) eq.keywords.emplace_back(vocab.TermString(t));
    eq.quality = results[c].quality;
    eq.cluster_index = c;
    eq.cluster_size = c < members.size() ? members[c].size() : 0;
    eq.iterations = results[c].iterations;
    eq.value_recomputations = results[c].value_recomputations;
    eq.term_details = std::move(results[c].term_details);
    const IskrStats& is = results[c].iskr_stats;
    outcome.iskr_stats.steps += is.steps;
    outcome.iskr_stats.additions += is.additions;
    outcome.iskr_stats.removals += is.removals;
    outcome.iskr_stats.candidates_evaluated += is.candidates_evaluated;
    const PebcStats& ps = results[c].pebc_stats;
    outcome.pebc_stats.samples_drawn += ps.samples_drawn;
    outcome.pebc_stats.rounds += ps.rounds;
    outcome.pebc_stats.intervals_zoomed += ps.intervals_zoomed;
    outcome.pebc_stats.candidates_evaluated += ps.candidates_evaluated;
    outcome.pebc_stats.best_target_percent = std::max(
        outcome.pebc_stats.best_target_percent, ps.best_target_percent);
    qualities.push_back(eq.quality);
    outcome.queries.push_back(std::move(eq));
  }
  outcome.num_clusters = final_clustering->num_clusters;
  outcome.set_score = SetScore(qualities);
  return outcome;
}

ExpansionResult QueryExpander::RunAlgorithm(
    const ExpansionContext& context) const {
  switch (options_.algorithm) {
    case ExpansionAlgorithm::kIskr: {
      if (!options_.explain_terms) {
        return IskrExpander(options_.iskr, options_.sweep).Expand(context);
      }
      // ISKR's refinement trace already carries the benefit/cost each step
      // was chosen at — use it verbatim rather than re-deriving post hoc.
      std::vector<IskrStep> steps;
      ExpansionResult result =
          IskrExpander(options_.iskr, options_.sweep)
              .ExpandWithTrace(context, &steps);
      result.term_details.reserve(steps.size());
      for (const IskrStep& step : steps) {
        TermExplain row;
        row.term = step.keyword;
        row.is_removal = step.is_removal;
        row.benefit = step.benefit;
        row.cost = step.cost;
        row.value = step.value;
        result.term_details.push_back(row);
      }
      return result;
    }
    case ExpansionAlgorithm::kPebc: {
      ExpansionResult result =
          PebcExpander(options_.pebc, options_.sweep).Expand(context);
      if (options_.explain_terms) {
        result.term_details = ExplainAddedTerms(context, result.query);
      }
      return result;
    }
    case ExpansionAlgorithm::kFMeasure: {
      ExpansionResult result =
          FMeasureExpander(options_.fmeasure, options_.sweep).Expand(context);
      if (options_.explain_terms) {
        result.term_details = ExplainAddedTerms(context, result.query);
      }
      return result;
    }
  }
  QEC_LOG(Fatal) << "unknown expansion algorithm";
  return {};
}

}  // namespace qec::core
