// Ablation: the paper's Sec. 7 future-work directions, prototyped.
//
//  (1) clustering method sensitivity — Eq. 1 scores when the result
//      clustering comes from k-means, average-link HAC, or the dynamic
//      silhouette-based selector ("choosing the best clustering method
//      dynamically");
//  (2) interleaving clustering and expansion — extra score bought by
//      reassigning results to the expanded query that retrieves them and
//      re-expanding;
//  (3) OR semantics (appendix) — quality of disjunctive expanded queries
//      versus the paper's conjunctive ones on the same clusters;
//  (4) faceted search (related work §F) — how much of each dataset's
//      result sets automatic facet extraction can navigate at all: high on
//      the structured catalog, zero on text, the paper's argument for why
//      expansion subsumes facets on ambiguous/text queries;
//  (5) vector-space retrieval (Sec. 7) — Eq. 1 scores when the expansion
//      universe is ranked by VSM cosine instead of TF-IDF AND-retrieval.

#include <cstdio>

#include "baselines/faceted.h"
#include "cluster/cosine_space.h"
#include "cluster/hac.h"
#include "common/string_util.h"
#include "core/candidates.h"
#include "core/expansion_context.h"
#include "core/interleaved.h"
#include "core/iskr.h"
#include "core/metrics.h"
#include "core/or_expander.h"
#include "eval/harness.h"
#include "eval/table_printer.h"

namespace {

using qec::cluster::Clustering;

double ExpandAllScore(const qec::core::ResultUniverse& universe,
                      const std::vector<qec::TermId>& user_terms,
                      const Clustering& clustering,
                      const std::vector<qec::TermId>& candidates,
                      bool or_semantics = false) {
  std::vector<qec::core::QueryQuality> qualities;
  for (const auto& m : clustering.Members()) {
    qec::DynamicBitset bits = universe.EmptySet();
    for (size_t i : m) bits.Set(i);
    auto ctx = qec::core::MakeContext(universe, user_terms, std::move(bits),
                                      candidates);
    if (or_semantics) {
      qualities.push_back(qec::core::OrIskrExpander().Expand(ctx).quality);
    } else {
      qualities.push_back(qec::core::IskrExpander().Expand(ctx).quality);
    }
  }
  return qec::core::SetScore(qualities);
}

struct Sums {
  double kmeans = 0.0, hac = 0.0, dynamic = 0.0;
  double plain = 0.0, interleaved = 0.0;
  double and_sem = 0.0, or_sem = 0.0;
  double facetable = 0.0;
  double facet_count = 0.0;
  double tfidf_rank = 0.0, vsm_rank = 0.0;
  size_t interleave_improved = 0;
  size_t hac_chosen = 0;
  size_t n = 0;
};

void RunDataset(const qec::eval::DatasetBundle& bundle, Sums& sums) {
  for (const auto& wq : bundle.queries) {
    auto qc = qec::eval::PrepareQueryCase(bundle, wq.text);
    if (!qc.ok()) continue;
    const auto& universe = *qc->universe;
    auto candidates = qec::core::SelectCandidates(universe, *bundle.index,
                                                  qc->user_terms, {});
    // One space over the universe's TF rows for the alternative
    // clusterings.
    const qec::cluster::CosineSpace space(universe.term_rows());

    // (1) clustering methods.
    const Clustering& kmeans = qc->clustering;  // harness used auto-k kmeans
    qec::cluster::HacOptions hopts;
    hopts.k = 5;
    hopts.auto_k = true;
    Clustering hac = qec::cluster::Hac(hopts).Cluster(space);
    qec::cluster::ClusteringMethod chosen;
    Clustering dynamic =
        qec::cluster::SelectBestClustering(space, 5, 42, &chosen);
    if (chosen == qec::cluster::ClusteringMethod::kHac) ++sums.hac_chosen;

    double s_kmeans =
        ExpandAllScore(universe, qc->user_terms, kmeans, candidates);
    sums.kmeans += s_kmeans;
    sums.hac += ExpandAllScore(universe, qc->user_terms, hac, candidates);
    sums.dynamic +=
        ExpandAllScore(universe, qc->user_terms, dynamic, candidates);

    // (2) interleaving, from the k-means clustering.
    auto out = qec::core::InterleavedExpander().Run(universe, qc->user_terms,
                                                    kmeans, candidates);
    sums.plain += s_kmeans;
    sums.interleaved += out.set_score;
    if (out.set_score > s_kmeans + 1e-12) ++sums.interleave_improved;

    // (3) AND vs OR semantics on the same clusters.
    sums.and_sem += s_kmeans;
    sums.or_sem += ExpandAllScore(universe, qc->user_terms, kmeans,
                                  candidates, /*or_semantics=*/true);

    // (4) faceted navigation applicability.
    qec::baselines::FacetedNavigator navigator;
    auto facets = navigator.ExtractFacets(universe);
    sums.facetable +=
        qec::baselines::FacetedNavigator::FacetableFraction(universe, facets);
    sums.facet_count += static_cast<double>(facets.size());

    // (5) VSM-ranked universe: same pipeline, cosine retrieval.
    {
      auto vsm_results = bundle.index->SearchVsm(qc->user_terms, 30);
      qec::core::ResultUniverse vsm_universe(*bundle.corpus, vsm_results);
      qec::cluster::KMeansOptions kopts;
      kopts.k = 5;
      kopts.auto_k = true;
      Clustering vsm_clustering = qec::cluster::KMeans(kopts).Cluster(
          qec::cluster::CosineSpace(vsm_universe.term_rows()));
      auto vsm_candidates = qec::core::SelectCandidates(
          vsm_universe, *bundle.index, qc->user_terms, {});
      sums.vsm_rank += ExpandAllScore(vsm_universe, qc->user_terms,
                                      vsm_clustering, vsm_candidates);
      sums.tfidf_rank += s_kmeans;
    }
    ++sums.n;
  }
}

}  // namespace

int main() {
  std::printf("=== Ablation: Sec. 7 future-work prototypes ===\n\n");
  Sums sums;
  auto shopping = qec::eval::MakeShoppingBundle();
  RunDataset(shopping, sums);
  auto wikipedia = qec::eval::MakeWikipediaBundle();
  RunDataset(wikipedia, sums);
  const double n = sums.n > 0 ? static_cast<double>(sums.n) : 1.0;

  std::printf("(1) clustering-method sensitivity (avg Eq. 1 over %zu "
              "queries, ISKR)\n", sums.n);
  qec::eval::TablePrinter t1({"clustering", "avg score"});
  t1.AddRow({"k-means (auto-k)", qec::FormatDouble(sums.kmeans / n, 3)});
  t1.AddRow({"HAC average-link (auto-k)", qec::FormatDouble(sums.hac / n, 3)});
  t1.AddRow({"dynamic selection (silhouette)",
             qec::FormatDouble(sums.dynamic / n, 3)});
  std::printf("%s", t1.ToString().c_str());
  std::printf("dynamic selector picked HAC on %zu/%zu queries\n\n",
              sums.hac_chosen, sums.n);

  std::printf("(2) interleaving clustering and expansion\n");
  qec::eval::TablePrinter t2({"pipeline", "avg score"});
  t2.AddRow({"cluster -> expand", qec::FormatDouble(sums.plain / n, 3)});
  t2.AddRow({"cluster -> expand -> reassign -> expand",
             qec::FormatDouble(sums.interleaved / n, 3)});
  std::printf("%s", t2.ToString().c_str());
  std::printf("interleaving strictly improved %zu/%zu queries\n\n",
              sums.interleave_improved, sums.n);

  std::printf("(3) AND vs OR semantics on identical clusters\n");
  qec::eval::TablePrinter t3({"semantics", "avg score"});
  t3.AddRow({"AND (conjunctive, Sec. 2)",
             qec::FormatDouble(sums.and_sem / n, 3)});
  t3.AddRow({"OR (disjunctive, appendix)",
             qec::FormatDouble(sums.or_sem / n, 3)});
  std::printf("%s\n", t3.ToString().c_str());

  std::printf("(4) faceted-search applicability (related work comparison)\n");
  std::printf("  avg facets extracted per query:        %.1f\n",
              sums.facet_count / n);
  std::printf("  avg fraction of results facet-navigable: %.2f\n",
              sums.facetable / n);
  std::printf("  (structured catalog results facet well; text results "
              "contribute 0 —\n   the paper's case for expansion over "
              "facets on ambiguous/text queries)\n\n");

  std::printf("(5) retrieval model for the expansion universe (Sec. 7)\n");
  qec::eval::TablePrinter t5({"ranking", "avg score"});
  t5.AddRow({"TF-IDF, AND semantics (paper)",
             qec::FormatDouble(sums.tfidf_rank / n, 3)});
  t5.AddRow({"VSM cosine, OR candidates",
             qec::FormatDouble(sums.vsm_rank / n, 3)});
  std::printf("%s", t5.ToString().c_str());
  return 0;
}
