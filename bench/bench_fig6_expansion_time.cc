// Figure 6: query-expansion time per Table 1 query for ISKR, PEBC, Data
// Clouds, the F-measure variant, and CS. Clustering time (shared by the
// cluster-based methods and reported separately in the paper: 0.02s avg on
// shopping, 0.35s on Wikipedia for their testbed) is printed per dataset.
//
// Paper shape: Data Clouds fastest, CS comparable to ISKR/PEBC, and the
// F-measure variant far slower (30+ seconds on some queries, because it
// re-evaluates every keyword after every refinement). In this
// reproduction all result-set algebra is 64-bit-word bitset based, which
// flattens the per-update cost difference the paper's F-measure blowup
// (and its ISKR-slower-than-PEBC ordering) relied on — see EXPERIMENTS.md
// for the deviation analysis. What reproduces here: Data Clouds fastest,
// CS ≈ ISKR, every method sub-second, and the F-measure variant doing
// strictly more value recomputations per refinement than ISKR (the
// bench_ablation_iskr binary reports the counts).

#include <cstdio>

#include "common/string_util.h"
#include "eval/harness.h"
#include "eval/obs_report.h"
#include "eval/table_printer.h"

namespace {

// Medians over repetitions keep the microsecond-scale timings stable.
constexpr int kReps = 5;

// The paper caps the expansion input at the top 30 results only on the
// Wikipedia dataset; shopping queries use ALL their results (QS8: 557
// results, 464 distinct keywords in its largest cluster) — which is where
// the F-measure variant's recompute-everything cost explodes.
void RunDataset(const qec::eval::DatasetBundle& bundle, size_t top_k,
                const char* label) {
  const auto methods = qec::eval::TimingMethods();
  std::printf("Figure 6(%s): query expansion time (milliseconds)\n", label);
  std::vector<std::string> headers = {"query"};
  for (auto m : methods) headers.emplace_back(qec::eval::MethodName(m));
  qec::eval::TablePrinter table(headers);

  qec::baselines::QueryLogSuggester log(qec::datagen::SyntheticQueryLog());
  double clustering_total = 0.0;
  size_t n = 0;
  std::vector<double> sums(methods.size(), 0.0);
  for (const auto& wq : bundle.queries) {
    auto qc = qec::eval::PrepareQueryCase(bundle, wq.text, top_k);
    if (!qc.ok()) continue;
    clustering_total +=
        static_cast<double>(qc->phases[qec::core::Phase::kVectorize] +
                            qc->phases[qec::core::Phase::kCluster]) /
        1e9;
    ++n;
    std::vector<std::string> row = {wq.id};
    for (size_t m = 0; m < methods.size(); ++m) {
      double best = 0.0;
      for (int rep = 0; rep < kReps; ++rep) {
        auto run =
            qec::eval::RunMethod(bundle, *qc, methods[m], &log, wq.text);
        if (rep == 0 || run.seconds < best) best = run.seconds;
      }
      sums[m] += best;
      row.push_back(qec::FormatDouble(best * 1e3, 3));
    }
    table.AddRow(std::move(row));
  }
  std::vector<std::string> avg_row = {"avg"};
  for (double s : sums) {
    avg_row.push_back(qec::FormatDouble(n ? s * 1e3 / n : 0.0, 3));
  }
  table.AddRow(std::move(avg_row));
  std::printf("%s", table.ToString().c_str());
  table.WriteCsv(qec::eval::ResultsDir() + "/fig6_time_" + bundle.name +
                 ".csv");
  std::printf("average clustering time: %.3f ms (shared by ISKR/PEBC/CS)\n\n",
              n ? clustering_total * 1e3 / n : 0.0);
}

}  // namespace

int main(int argc, char** argv) {
  const auto obs_flags = qec::eval::ParseObsFlags(argc, argv);
  std::printf("=== Figure 6: Query Expansion Time ===\n\n");
  // A catalog sized like the paper's (hundreds of results per query).
  qec::datagen::ShoppingOptions shopping_options;
  shopping_options.products_per_family = 30;
  auto shopping = qec::eval::MakeShoppingBundle(shopping_options);
  RunDataset(shopping, /*top_k=*/0, "a: shopping, all results");
  auto wikipedia = qec::eval::MakeWikipediaBundle();
  RunDataset(wikipedia, /*top_k=*/30, "b: wikipedia, top-30");
  return qec::eval::EmitObsOutputs(obs_flags) ? 0 : 1;
}
