// Figure 7: scalability of expansion with the number of results used.
// The paper runs QW2 "columbia" with 100-500 results and reports times
// that include both clustering and query generation, growing roughly
// linearly and staying "reasonable" at 500 results.

#include <cstdio>

#include "common/string_util.h"
#include "eval/harness.h"
#include "eval/obs_report.h"
#include "eval/table_printer.h"

int main(int argc, char** argv) {
  const auto obs_flags = qec::eval::ParseObsFlags(argc, argv);
  std::printf("=== Figure 7: Scalability over Number of Results ===\n\n");
  // A Wikipedia corpus big enough that "columbia" has 500+ results:
  // docs_per_sense scales each sense by its dominance (1.0/0.8/0.6).
  qec::datagen::WikipediaOptions options;
  options.docs_per_sense = 240;
  options.background_docs = 200;
  auto bundle = qec::eval::MakeWikipediaBundle(options);

  auto all = bundle.index->SearchText("columbia");
  std::printf("corpus: %zu docs; \"columbia\" retrieves %zu results\n\n",
              bundle.corpus->NumDocs(), all.size());

  qec::eval::TablePrinter table(
      {"#results", "clustering (ms)", "ISKR (ms)", "PEBC (ms)",
       "ISKR total (ms)", "PEBC total (ms)"});
  for (size_t count : {100, 200, 300, 400, 500}) {
    // Plain k-means (no auto-k model selection) as in the paper's setup:
    // Fig. 7's reported time is clustering + query generation.
    auto qc = qec::eval::PrepareQueryCase(bundle, "columbia", count,
                                          /*max_clusters=*/5, /*seed=*/42,
                                          /*auto_k=*/false);
    if (!qc.ok()) {
      std::fprintf(stderr, "failed at %zu: %s\n", count,
                   qc.status().ToString().c_str());
      continue;
    }
    auto iskr = qec::eval::RunMethod(bundle, *qc, qec::eval::Method::kIskr,
                                     nullptr, "columbia");
    auto pebc = qec::eval::RunMethod(bundle, *qc, qec::eval::Method::kPebc,
                                     nullptr, "columbia");
    const double cl_ms =
        static_cast<double>(qc->phases[qec::core::Phase::kVectorize] +
                            qc->phases[qec::core::Phase::kCluster]) /
        1e6;
    table.AddRow({std::to_string(qc->universe->size()),
                  qec::FormatDouble(cl_ms, 2),
                  qec::FormatDouble(iskr.seconds * 1e3, 2),
                  qec::FormatDouble(pebc.seconds * 1e3, 2),
                  qec::FormatDouble(cl_ms + iskr.seconds * 1e3, 2),
                  qec::FormatDouble(cl_ms + pebc.seconds * 1e3, 2)});
  }
  std::printf("%s", table.ToString().c_str());
  table.WriteCsv(qec::eval::ResultsDir() + "/fig7_scalability.csv");
  std::printf(
      "\n(the paper reports linear growth for both algorithms, including "
      "clustering time)\n");
  return qec::eval::EmitObsOutputs(obs_flags) ? 0 : 1;
}
