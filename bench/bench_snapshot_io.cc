// Snapshot I/O benchmark: how fast the sectioned snapshot format
// (docs/FORMATS.md) serializes and loads on both demo datasets. The load
// path is the one `qec_cli serve --snapshot` takes at startup, so the
// "load" column is the server's cold-start cost.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/stopwatch.h"
#include "common/string_util.h"
#include "datagen/shopping.h"
#include "datagen/wikipedia.h"
#include "doc/corpus.h"
#include "eval/harness.h"
#include "eval/table_printer.h"
#include "index/inverted_index.h"
#include "storage/snapshot.h"

namespace {

constexpr int kReps = 20;

double MedianSeconds(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

struct RowResult {
  /// Bytes → serving index: one DeserializeSnapshot call.
  double snap_cold_s = 0.0;
  double serialize_s = 0.0;
  size_t bytes = 0;
};

RowResult MeasureDataset(const qec::doc::Corpus& corpus) {
  RowResult r;
  qec::index::InvertedIndex index(corpus);
  std::vector<double> snap_cold, serialize;
  std::string snap_blob;
  for (int i = 0; i < kReps; ++i) {
    qec::Stopwatch watch;
    snap_blob = qec::storage::SerializeSnapshot(index);
    serialize.push_back(watch.ElapsedSeconds());

    watch.Restart();
    auto snapshot = qec::storage::DeserializeSnapshot(snap_blob);
    snap_cold.push_back(watch.ElapsedSeconds());
    if (!snapshot.ok()) {
      std::fprintf(stderr, "round-trip failed: %s\n",
                   snapshot.status().ToString().c_str());
      std::exit(1);
    }
  }
  r.snap_cold_s = MedianSeconds(snap_cold);
  r.serialize_s = MedianSeconds(serialize);
  r.bytes = snap_blob.size();
  return r;
}

}  // namespace

int main() {
  std::printf("=== Snapshot I/O: serialize/load ===\n\n");
  qec::eval::TablePrinter table({"dataset", "docs", "snap KB", "snap load ms",
                                 "serialize ms", "write MB/s", "read MB/s"});
  struct Dataset {
    std::string name;
    qec::doc::Corpus corpus;
  };
  std::vector<Dataset> datasets;
  datasets.push_back({"shopping", qec::datagen::ShoppingGenerator().Generate()});
  datasets.push_back(
      {"wikipedia", qec::datagen::WikipediaGenerator().Generate()});
  qec::datagen::WikipediaOptions big;
  big.docs_per_sense = 60;
  big.background_docs = 600;
  datasets.push_back(
      {"wikipedia-xl", qec::datagen::WikipediaGenerator(big).Generate()});

  for (const auto& dataset : datasets) {
    RowResult r = MeasureDataset(dataset.corpus);
    const double mb = static_cast<double>(r.bytes) / (1024.0 * 1024.0);
    table.AddRow({dataset.name, std::to_string(dataset.corpus.NumDocs()),
                  qec::FormatDouble(static_cast<double>(r.bytes) / 1024.0, 1),
                  qec::FormatDouble(r.snap_cold_s * 1e3, 3),
                  qec::FormatDouble(r.serialize_s * 1e3, 3),
                  qec::FormatDouble(mb / r.serialize_s, 1),
                  qec::FormatDouble(mb / r.snap_cold_s, 1)});
  }
  std::printf("%s", table.ToString().c_str());
  table.WriteCsv(qec::eval::ResultsDir() + "/snapshot_io.csv");
  return 0;
}
