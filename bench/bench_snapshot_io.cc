// Snapshot I/O benchmark: how fast the sectioned snapshot format
// (docs/FORMATS.md) serializes and loads on both demo datasets. The load
// path is the one `qec_cli serve --snapshot` takes at startup, so the
// "load" column is the server's cold-start cost.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "cluster/doc_reorder.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "datagen/clustered.h"
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

uint64_t IndxLength(const std::string& blob) {
  auto reader = qec::storage::SnapshotReader::Open(blob);
  if (!reader.ok()) std::exit(1);
  for (const auto& section : reader->sections()) {
    if (section.id == qec::storage::kSectionIndex) return section.length;
  }
  return 0;
}

/// --reorder-report: measures what the cluster-aware doc-id reorder buys
/// on a synthetic clustered corpus — INDX section bytes (total and per
/// doc) with and without the permutation — and emits a JSON blob for the
/// perf-smoke CI artifact. Report-only: compression is asserted by the
/// scale-smoke job, not here.
int RunReorderReport(const std::string& out_path, size_t docs,
                     size_t clusters) {
  qec::datagen::ClusteredOptions options;
  options.num_docs = docs;
  options.num_clusters = clusters;
  qec::Stopwatch watch;
  qec::doc::Corpus corpus =
      qec::datagen::ClusteredGenerator(options).Generate();
  const double datagen_s = watch.ElapsedSeconds();

  watch.Restart();
  qec::index::InvertedIndex plain(corpus);
  const std::string plain_blob = qec::storage::SerializeSnapshot(plain);
  const double plain_s = watch.ElapsedSeconds();

  watch.Restart();
  const std::vector<qec::DocId> order =
      qec::cluster::ComputeClusterOrder(corpus);
  qec::doc::Corpus reordered_corpus =
      qec::cluster::ReorderCorpus(corpus, order);
  const double reorder_s = watch.ElapsedSeconds();
  watch.Restart();
  qec::index::InvertedIndex reordered(reordered_corpus);
  const std::string reordered_blob =
      qec::storage::SerializeSnapshot(reordered, order);
  const double reordered_s = watch.ElapsedSeconds();

  const uint64_t plain_indx = IndxLength(plain_blob);
  const uint64_t reordered_indx = IndxLength(reordered_blob);
  const double n = static_cast<double>(docs);
  char json[1024];
  std::snprintf(
      json, sizeof(json),
      "{\n"
      "  \"docs\": %zu,\n"
      "  \"clusters\": %zu,\n"
      "  \"indx_bytes_plain\": %llu,\n"
      "  \"indx_bytes_reordered\": %llu,\n"
      "  \"indx_bytes_per_doc_plain\": %.2f,\n"
      "  \"indx_bytes_per_doc_reordered\": %.2f,\n"
      "  \"indx_compression_ratio\": %.3f,\n"
      "  \"datagen_s\": %.3f,\n"
      "  \"build_serialize_plain_s\": %.3f,\n"
      "  \"reorder_s\": %.3f,\n"
      "  \"build_serialize_reordered_s\": %.3f\n"
      "}\n",
      docs, clusters, static_cast<unsigned long long>(plain_indx),
      static_cast<unsigned long long>(reordered_indx),
      static_cast<double>(plain_indx) / n,
      static_cast<double>(reordered_indx) / n,
      static_cast<double>(plain_indx) / static_cast<double>(reordered_indx),
      datagen_s, plain_s, reorder_s, reordered_s);
  std::printf("%s", json);
  if (!out_path.empty()) {
    std::FILE* out = std::fopen(out_path.c_str(), "w");
    if (out == nullptr) return 1;
    std::fputs(json, out);
    std::fclose(out);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string reorder_out;
  bool reorder_mode = false;
  size_t docs = 250000;
  size_t clusters = 256;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--reorder-report" || arg.rfind("--reorder-report=", 0) == 0) {
      reorder_mode = true;
      const size_t eq = arg.find('=');
      if (eq != std::string::npos) reorder_out = arg.substr(eq + 1);
    } else if (arg.rfind("--docs=", 0) == 0) {
      docs = static_cast<size_t>(std::atoll(arg.c_str() + 7));
    } else if (arg.rfind("--clusters=", 0) == 0) {
      clusters = static_cast<size_t>(std::atoll(arg.c_str() + 11));
    }
  }
  if (reorder_mode) return RunReorderReport(reorder_out, docs, clusters);

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
