#ifndef QEC_EVAL_HARNESS_H_
#define QEC_EVAL_HARNESS_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "baselines/query_log.h"
#include "baselines/suggestion.h"
#include "cluster/kmeans.h"
#include "common/status.h"
#include "core/phases.h"
#include "core/query_expander.h"
#include "core/result_universe.h"
#include "datagen/shopping.h"
#include "datagen/wikipedia.h"
#include "datagen/workload.h"
#include "doc/corpus.h"
#include "index/inverted_index.h"

namespace qec::eval {

/// A dataset with its index and Table 1 query workload. Corpus and index
/// are heap-held so the bundle can move (e.g. through a Result<>) without
/// invalidating the index's corpus pointer.
struct DatasetBundle {
  std::string name;
  std::unique_ptr<doc::Corpus> corpus;
  std::unique_ptr<index::InvertedIndex> index;
  std::vector<datagen::WorkloadQuery> queries;
};

/// Generates + indexes the shopping dataset with its QS1-QS10 workload.
DatasetBundle MakeShoppingBundle(datagen::ShoppingOptions options = {});

/// Generates + indexes the Wikipedia dataset with its QW1-QW10 workload.
DatasetBundle MakeWikipediaBundle(datagen::WikipediaOptions options = {});

/// The five compared expansion methods of Sec. 5 plus the F-measure
/// variant.
enum class Method { kIskr, kPebc, kFMeasure, kCs, kGoogle, kDataClouds };

std::string_view MethodName(Method method);

/// Methods in the order the paper's figures list them.
std::vector<Method> UserStudyMethods();   // ISKR PEBC CS Google DataClouds
std::vector<Method> ScoreMethods();       // ISKR PEBC F-measure CS (Fig. 5)
std::vector<Method> TimingMethods();      // all five + F-measure (Fig. 6)

/// Per-query shared evaluation state: one retrieval + one clustering reused
/// by every method so the comparison is apples-to-apples.
struct QueryCase {
  std::vector<TermId> user_terms;
  std::unique_ptr<core::ResultUniverse> universe;
  cluster::Clustering clustering;
  /// The vectorize and cluster phases of that clustering; the other phases
  /// stay 0.
  core::EnginePhases phases;
};

/// Retrieves the top-K results of `query_text`, builds the universe, and
/// clusters it. Fails if the query retrieves nothing. `auto_k` selects the
/// cluster count by silhouette within [1, max_clusters], running k-means
/// once per k (disable for large scalability runs, where the paper uses
/// plain k-means). The vectorize and cluster phases are timed into
/// QueryCase::phases.
Result<QueryCase> PrepareQueryCase(const DatasetBundle& bundle,
                                   std::string_view query_text,
                                   size_t top_k = 30, size_t max_clusters = 5,
                                   uint64_t seed = 42, bool auto_k = true);

/// One method's output on one query.
struct MethodRun {
  std::vector<baselines::SuggestedQuery> suggestions;
  /// Query-expansion time only (clustering time is in QueryCase).
  double seconds = 0.0;
  /// Eq. 1 score; negative when inapplicable (Data Clouds and the query-log
  /// method are not cluster-based — Sec. 5.2.2).
  double set_score = -1.0;
};

/// Runs `method` on a prepared query case. `query_log` is required for
/// Method::kGoogle; `raw_query_text` is the original query string (the
/// query-log method matches on text, not TermIds).
MethodRun RunMethod(const DatasetBundle& bundle, const QueryCase& query_case,
                    Method method,
                    const baselines::QueryLogSuggester* query_log,
                    std::string_view raw_query_text);

/// Creates (if needed) and returns the directory bench binaries drop their
/// CSV outputs into ("qec_results", relative to the working directory).
std::string ResultsDir();

}  // namespace qec::eval

#endif  // QEC_EVAL_HARNESS_H_
