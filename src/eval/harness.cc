#include "eval/harness.h"

#include <optional>
#include <utility>

#include "baselines/cluster_summarization.h"
#include "baselines/data_clouds.h"
#include "cluster/cosine_space.h"
#include "common/logging.h"
#include "common/stopwatch.h"
#include "core/metrics.h"
#include "core/phases.h"

#include <sys/stat.h>

namespace qec::eval {

DatasetBundle MakeShoppingBundle(datagen::ShoppingOptions options) {
  DatasetBundle bundle;
  bundle.name = "shopping";
  bundle.corpus = std::make_unique<doc::Corpus>(
      datagen::ShoppingGenerator(options).Generate());
  bundle.index = std::make_unique<index::InvertedIndex>(*bundle.corpus);
  bundle.queries = datagen::ShoppingQueries();
  return bundle;
}

DatasetBundle MakeWikipediaBundle(datagen::WikipediaOptions options) {
  DatasetBundle bundle;
  bundle.name = "wikipedia";
  bundle.corpus = std::make_unique<doc::Corpus>(
      datagen::WikipediaGenerator(options).Generate());
  bundle.index = std::make_unique<index::InvertedIndex>(*bundle.corpus);
  bundle.queries = datagen::WikipediaQueries();
  return bundle;
}

std::string_view MethodName(Method method) {
  switch (method) {
    case Method::kIskr:
      return "ISKR";
    case Method::kPebc:
      return "PEBC";
    case Method::kFMeasure:
      return "F-measure";
    case Method::kCs:
      return "CS";
    case Method::kGoogle:
      return "Google";
    case Method::kDataClouds:
      return "DataClouds";
  }
  return "?";
}

std::vector<Method> UserStudyMethods() {
  return {Method::kIskr, Method::kPebc, Method::kCs, Method::kGoogle,
          Method::kDataClouds};
}

std::vector<Method> ScoreMethods() {
  return {Method::kIskr, Method::kPebc, Method::kFMeasure, Method::kCs};
}

std::vector<Method> TimingMethods() {
  return {Method::kIskr, Method::kPebc, Method::kDataClouds,
          Method::kFMeasure, Method::kCs};
}

Result<QueryCase> PrepareQueryCase(const DatasetBundle& bundle,
                                   std::string_view query_text, size_t top_k,
                                   size_t max_clusters, uint64_t seed,
                                   bool auto_k) {
  QueryCase qc;
  qc.user_terms = bundle.corpus->analyzer().AnalyzeReadOnly(query_text);
  if (qc.user_terms.empty()) {
    return Status::InvalidArgument("query '" + std::string(query_text) +
                                   "' has no known terms");
  }
  std::vector<index::RankedResult> results =
      bundle.index->Search(qc.user_terms, top_k);
  if (results.empty()) {
    return Status::NotFound("query '" + std::string(query_text) +
                            "' retrieved no results");
  }
  qc.universe =
      std::make_unique<core::ResultUniverse>(*bundle.corpus, results);

  // Consecutive phases: the emplace closes the vectorize timer.
  std::optional<core::PhaseTimer> timer;
  timer.emplace(qc.phases, core::Phase::kVectorize);
  const cluster::CosineSpace space(qc.universe->term_rows());
  timer.emplace(qc.phases, core::Phase::kCluster);
  cluster::KMeansOptions kopts;
  kopts.k = max_clusters;
  kopts.seed = seed;
  kopts.auto_k = auto_k;  // max_clusters is an upper bound (Sec. 1)
  qc.clustering = cluster::KMeans(kopts).Cluster(space);
  timer.reset();
  return qc;
}

namespace {

MethodRun RunClusterAlgorithm(const DatasetBundle& bundle,
                              const QueryCase& qc,
                              core::ExpansionAlgorithm algorithm) {
  core::QueryExpanderOptions options;
  options.algorithm = algorithm;
  core::QueryExpander expander(*bundle.index, options);
  core::ExpansionOutcome outcome = expander.ExpandClustered(
      qc.user_terms, *qc.universe, qc.clustering);
  MethodRun run;
  run.seconds = static_cast<double>(outcome.phases.expansion_ns()) / 1e9;
  run.set_score = outcome.set_score;
  for (auto& eq : outcome.queries) {
    baselines::SuggestedQuery s;
    s.keywords = std::move(eq.keywords);
    s.terms = std::move(eq.terms);
    run.suggestions.push_back(std::move(s));
  }
  return run;
}

}  // namespace

MethodRun RunMethod(const DatasetBundle& bundle, const QueryCase& qc,
                    Method method,
                    const baselines::QueryLogSuggester* query_log,
                    std::string_view raw_query_text) {
  switch (method) {
    case Method::kIskr:
      return RunClusterAlgorithm(bundle, qc, core::ExpansionAlgorithm::kIskr);
    case Method::kPebc:
      return RunClusterAlgorithm(bundle, qc, core::ExpansionAlgorithm::kPebc);
    case Method::kFMeasure:
      return RunClusterAlgorithm(bundle, qc,
                                 core::ExpansionAlgorithm::kFMeasure);
    case Method::kCs: {
      baselines::ClusterSummarization cs;
      Stopwatch watch;
      MethodRun run;
      run.suggestions = cs.Suggest(*qc.universe, *bundle.index, qc.user_terms,
                                   qc.clustering);
      run.seconds = watch.ElapsedSeconds();
      run.set_score = core::SetScore(
          cs.Evaluate(*qc.universe, run.suggestions, qc.clustering));
      return run;
    }
    case Method::kDataClouds: {
      baselines::DataCloudsOptions options;
      options.num_queries = qc.clustering.num_clusters;
      baselines::DataClouds clouds(options);
      Stopwatch watch;
      MethodRun run;
      run.suggestions =
          clouds.Suggest(*qc.universe, *bundle.index, qc.user_terms);
      run.seconds = watch.ElapsedSeconds();
      return run;
    }
    case Method::kGoogle: {
      QEC_CHECK(query_log != nullptr)
          << "the query-log method needs a query log";
      Stopwatch watch;
      MethodRun run;
      run.suggestions =
          query_log->Suggest(raw_query_text, bundle.corpus->analyzer(),
                             qc.clustering.num_clusters);
      run.seconds = watch.ElapsedSeconds();
      return run;
    }
  }
  QEC_LOG(Fatal) << "unknown method";
  return {};
}

std::string ResultsDir() {
  const std::string dir = "qec_results";
  ::mkdir(dir.c_str(), 0755);  // EEXIST is fine
  return dir;
}

}  // namespace qec::eval
