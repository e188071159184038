// qec_cli — command-line front end for the library, wiring together XML
// ingestion, snapshot persistence, search, and cluster-based query
// expansion.
//
//   qec_cli index-build   <snap.qsnap>
//                  <file...|shopping|wikipedia|clustered:D:C[:SEED]>
//                  build corpus + inverted index, write one checksummed
//                  snapshot (docs/FORMATS.md) that serves without a rebuild
//   qec_cli index-inspect <snap.qsnap>   print version, section TOC, CRCs,
//                  permutation presence/identity (PERM, only in snapshots
//                  of older cluster-reordering builds), and corpus
//                  statistics (reads only the STAT and PERM sections)
//   qec_cli search <data> <query words>...               top-10 search
//   qec_cli expand <data> [-a iskr|pebc|fmeasure] [-k N]
//                  [--sweep-threads=N] <query>...
//   qec_cli explain <data> [-a algo] [-b algo] [-k N]
//                  <query>...   run a query through two arms with per-term
//                  benefit/cost diagnostics and report the winner
//   qec_cli abtest <data> [-a algo] [-b algo]
//                  [-n N] [--queries=FILE]   offline A/B replay: score both
//                  arms over a query workload and print the tallies
//   qec_cli serve  <data> | --snapshot=FILE
//                  [--port=N [--host=ADDR] [--max-conns=N]
//                  [--max-line-bytes=N] [--drain-ms=N]]
//                  [--threads=N] [--queue=N] [--deadline-ms=N] [--no-cache]
//                  [--cache-size=N] [--slowlog-dump=FILE] [--slow-ms=N]
//                  [--flight-recorder=N] [--shadow-rate=R]
//                  [--shadow-algo=A] [--shadow-queue=N]  line-protocol
//                  server over stdin/stdout, or over TCP (epoll, pipelined)
//                  with --port
//   qec_cli slowlog <dump.jsonl> [-n N]                  print a slowlog dump
//   qec_cli quickstart [--snapshot=FILE [--query=Q]]     in-memory demo
//
// <data> is "shopping" or "wikipedia" (generate and index a demo catalog)
// or a snapshot file written by index-build, which loads with its
// prebuilt index: no XML parsing, no index rebuild. `serve --snapshot=FILE`
// is another spelling of `serve FILE`.
//
// Global flags (any command; `quickstart` is the default when only flags
// are given): --metrics-out=FILE writes a metrics JSON snapshot on exit,
// --trace prints a table of the engine's per-phase timings (analyze through
// minimize) on exit, --log-level=debug|info|warning|error sets the log
// threshold (QEC_LOG_LEVEL env works too).
//
// Text files are indexed as one document each; XML files must have a root
// element (the whole subtree's text is indexed, title = <title> child or
// the file name).

#include <atomic>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/simd_kernels.h"
#include "common/string_util.h"
#include "common/sweep_pool.h"
#include "core/query_expander.h"
#include "eval/table_printer.h"
#include "obs/flight_recorder.h"
#include "obs/prometheus.h"
#include "server/admin/admin_server.h"
#include "server/line_handler.h"
#include "server/net/connection.h"
#include "server/net/net_server.h"
#include "server/protocol.h"
#include "server/server.h"
#include "server/shadow_evaluator.h"
#include "datagen/clustered.h"
#include "datagen/shopping.h"
#include "datagen/wikipedia.h"
#include "datagen/workload.h"
#include "eval/obs_report.h"
#include "index/inverted_index.h"
#include "snippet/snippet.h"
#include "storage/snapshot.h"
#include "xml/xml.h"

namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  qec_cli index-build   <snap.qsnap> "
      "<file...|shopping|wikipedia|clustered:D:C[:SEED]>\n"
      "  qec_cli index-inspect <snap.qsnap>\n"
      "  qec_cli search <data> <query words>...\n"
      "  qec_cli expand <data> [-a iskr|pebc|fmeasure] "
      "[-k N] [--sweep-threads=N] <query words>...\n"
      "  qec_cli explain <data> [-a algo] [-b algo] "
      "[-k N] <query words>...\n"
      "  qec_cli abtest <data> [-a algo] [-b algo] "
      "[-n N] [--queries=FILE]\n"
      "  qec_cli serve  <data> | --snapshot=FILE "
      "[--port=N [--host=ADDR] [--max-conns=N] [--max-line-bytes=N] "
      "[--drain-ms=N]] "
      "[--admin-port=N [--admin-host=ADDR]] "
      "[--threads=N] [--queue=N] [--deadline-ms=N] [--no-cache] "
      "[--cache-size=N] [--slowlog-dump=FILE] [--slow-ms=N] "
      "[--flight-recorder=N] [--shadow-rate=R] [--shadow-algo=A] "
      "[--shadow-queue=N]\n"
      "  qec_cli slowlog <dump.jsonl> [-n N]\n"
      "  qec_cli metrics-lint [exposition.prom|-]   (default: stdin)\n"
      "  qec_cli quickstart [--snapshot=FILE [--query=Q]]\n"
      "<data> is shopping, wikipedia, or a snapshot file from index-build\n"
      "global flags: --metrics-out=FILE --trace --log-level=LEVEL\n");
  return 2;
}

/// Strict unsigned flag value (qec::ParseSize) that must also fit `T`.
template <typename T>
bool ParseUnsigned(std::string_view text, T* out) {
  uint64_t v = 0;
  if (!qec::ParseSize(text, &v) ||
      v > static_cast<uint64_t>(std::numeric_limits<T>::max())) {
    return false;
  }
  *out = static_cast<T>(v);
  return true;
}

qec::Result<std::string> ReadFile(const std::string& path) {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(
      std::fopen(path.c_str(), "rb"), &std::fclose);
  if (f == nullptr) return qec::Status::NotFound("cannot open " + path);
  std::string out;
  char buf[1 << 16];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f.get())) > 0) out.append(buf, n);
  return out;
}

/// Parses "clustered:<docs>:<clusters>[:<seed>]" into generator options.
/// Returns false when `spec` is malformed.
bool ParseClusteredSpec(const std::string& spec,
                        qec::datagen::ClusteredOptions* options) {
  if (!qec::StartsWith(spec, "clustered:")) return false;
  std::vector<std::string> parts;
  size_t begin = strlen("clustered:");
  while (begin <= spec.size()) {
    size_t end = spec.find(':', begin);
    if (end == std::string::npos) end = spec.size();
    parts.push_back(spec.substr(begin, end - begin));
    begin = end + 1;
  }
  if (parts.size() < 2 || parts.size() > 3) return false;
  if (!ParseUnsigned(parts[0], &options->num_docs) ||
      !ParseUnsigned(parts[1], &options->num_clusters) ||
      (parts.size() == 3 && !ParseUnsigned(parts[2], &options->seed))) {
    return false;
  }
  return options->num_docs > 0 && options->num_clusters > 0;
}

/// Builds a corpus from XML/text files ("shopping"/"wikipedia" generate the
/// demo catalogs, "clustered:D:C[:SEED]" the synthetic clustered corpus).
qec::Result<qec::doc::Corpus> BuildCorpus(const std::vector<std::string>& inputs) {
  if (inputs.size() == 1 && inputs[0] == "shopping") {
    return qec::datagen::ShoppingGenerator().Generate();
  }
  if (inputs.size() == 1 && inputs[0] == "wikipedia") {
    return qec::datagen::WikipediaGenerator().Generate();
  }
  if (inputs.size() == 1 && qec::StartsWith(inputs[0], "clustered:")) {
    qec::datagen::ClusteredOptions options;
    if (!ParseClusteredSpec(inputs[0], &options)) {
      return qec::Status::InvalidArgument("bad clustered spec: " + inputs[0]);
    }
    return qec::datagen::ClusteredGenerator(options).Generate();
  }
  qec::doc::Corpus corpus;
  for (const std::string& input : inputs) {
    auto content = ReadFile(input);
    if (!content.ok()) return content.status();
    if (qec::EndsWith(input, ".xml")) {
      auto parsed = qec::xml::Parse(*content);
      if (!parsed.ok()) {
        return qec::Status(parsed.status().code(),
                           input + ": " + parsed.status().message());
      }
      const qec::xml::XmlNode* title = parsed->root->FindChild("title");
      corpus.AddTextDocument(title != nullptr ? title->InnerText() : input,
                             parsed->root->InnerText());
    } else {
      corpus.AddTextDocument(input, *content);
    }
  }
  return corpus;
}

/// Loads a <data> argument: "shopping"/"wikipedia" generate and index a
/// demo catalog; anything else is a snapshot file, loaded with its
/// prebuilt index (and PERM doc-id permutation, if any).
qec::Result<qec::storage::Snapshot> LoadCorpusAndIndex(const std::string& arg) {
  if (arg != "shopping" && arg != "wikipedia") {
    return qec::storage::ReadSnapshot(arg);
  }
  qec::storage::Snapshot data;
  data.corpus = std::make_unique<qec::doc::Corpus>(
      arg == "shopping" ? qec::datagen::ShoppingGenerator().Generate()
                        : qec::datagen::WikipediaGenerator().Generate());
  data.index = std::make_unique<qec::index::InvertedIndex>(*data.corpus);
  data.stats = data.corpus->Stats();
  return data;
}

int CmdIndexBuild(const std::vector<std::string>& args) {
  std::string snapshot_path;
  std::vector<std::string> inputs;
  for (const std::string& arg : args) {
    if (qec::StartsWith(arg, "--")) {
      return Usage();
    } else if (snapshot_path.empty()) {
      snapshot_path = arg;
    } else {
      inputs.push_back(arg);
    }
  }
  if (snapshot_path.empty() || inputs.empty()) return Usage();
  auto corpus = BuildCorpus(inputs);
  if (!corpus.ok()) {
    std::fprintf(stderr, "%s\n", corpus.status().ToString().c_str());
    return 1;
  }
  qec::index::InvertedIndex index(*corpus);
  qec::Status s = qec::storage::WriteSnapshot(index, snapshot_path);
  if (!s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  auto stats = corpus->Stats();
  std::printf("wrote snapshot %s: %zu documents, %zu terms, format v%u\n",
              snapshot_path.c_str(), stats.num_docs, stats.num_distinct_terms,
              qec::storage::kSnapshotFormatVersion);
  return 0;
}

int CmdIndexInspect(const std::vector<std::string>& args) {
  if (args.size() != 1) return Usage();
  auto blob = qec::storage::ReadSnapshotBlob(args[0]);
  if (!blob.ok()) {
    std::fprintf(stderr, "%s\n", blob.status().ToString().c_str());
    return 1;
  }
  auto reader = qec::storage::SnapshotReader::Open(*blob);
  if (!reader.ok()) {
    std::fprintf(stderr, "%s\n", reader.status().ToString().c_str());
    return 1;
  }
  std::printf("snapshot %s: %zu bytes, format v%u, %zu sections\n",
              args[0].c_str(), blob->size(), reader->version(),
              reader->sections().size());
  int rc = 0;
  for (const auto& section : reader->sections()) {
    auto payload = reader->Section(section.id);
    std::printf("  %-4s  offset=%-10llu length=%-10llu crc32=%08x  %s\n",
                section.id.c_str(),
                static_cast<unsigned long long>(section.offset),
                static_cast<unsigned long long>(section.length),
                section.crc32, payload.ok() ? "ok" : "CORRUPT");
    if (!payload.ok()) rc = 1;
  }
  // Statistics come from the STAT section alone — documents and postings
  // stay untouched (the lazy-load path).
  auto stats = reader->ReadStats();
  if (!stats.ok()) {
    std::fprintf(stderr, "%s\n", stats.status().ToString().c_str());
    return 1;
  }
  std::printf("documents:        %zu\n", stats->num_docs);
  std::printf("distinct terms:   %zu\n", stats->num_distinct_terms);
  std::printf("term occurrences: %zu\n", stats->total_term_occurrences);
  std::printf("avg doc length:   %.1f\n", stats->avg_doc_length);
  if (reader->HasSection(qec::storage::kSectionPerm)) {
    auto perm = reader->ReadPermutation();
    if (!perm.ok()) {
      // A PERM section whose length differs from the doc count, repeats
      // an id, or points out of range is Corruption, same as a bad CRC.
      std::fprintf(stderr, "%s\n", perm.status().ToString().c_str());
      return 1;
    }
    bool identity = true;
    for (size_t i = 0; i < perm->size(); ++i) {
      if ((*perm)[i] != i) {
        identity = false;
        break;
      }
    }
    std::printf("permutation:      %s (%zu entries)\n",
                identity ? "identity" : "reordered", perm->size());
  } else {
    std::printf("permutation:      none\n");
  }
  // Runtime facts about this binary, not the snapshot: the bitset-kernel
  // tier the dispatcher picked on this machine and the sweep-pool counters
  // (zero here unless an expansion ran in-process).
  std::printf("kernel tier:      %s\n", qec::simd::ActiveTierName());
  const auto pool = qec::common::SweepPool::Instance().GetStats();
  std::printf("sweep pool:       runs=%llu spawns=%llu reuses=%llu\n",
              static_cast<unsigned long long>(pool.runs),
              static_cast<unsigned long long>(pool.spawns),
              static_cast<unsigned long long>(pool.reuses));
  return rc;
}

bool ParseAlgoName(const std::string& name,
                   qec::core::ExpansionAlgorithm* out) {
  if (name == "iskr") {
    *out = qec::core::ExpansionAlgorithm::kIskr;
  } else if (name == "pebc") {
    *out = qec::core::ExpansionAlgorithm::kPebc;
  } else if (name == "fmeasure") {
    *out = qec::core::ExpansionAlgorithm::kFMeasure;
  } else {
    return false;
  }
  return true;
}

std::string JoinFrom(const std::vector<std::string>& args, size_t from) {
  std::string out;
  for (size_t i = from; i < args.size(); ++i) {
    if (i > from) out += ' ';
    out += args[i];
  }
  return out;
}

int CmdSearch(const std::vector<std::string>& args) {
  if (args.size() < 2) return Usage();
  auto data = LoadCorpusAndIndex(args[0]);
  if (!data.ok()) {
    std::fprintf(stderr, "%s\n", data.status().ToString().c_str());
    return 1;
  }
  const auto& corpus = data->corpus;
  const auto& index = *data->index;
  std::string query = JoinFrom(args, 1);
  auto results = index.SearchText(query, 10);
  auto query_terms = corpus->analyzer().AnalyzeReadOnly(query);
  qec::snippet::SnippetGenerator snippets;
  std::printf("%zu results for \"%s\"\n", results.size(), query.c_str());
  for (const auto& r : results) {
    std::printf("  %7.3f  %s\n", r.score, corpus->Get(r.doc).title().c_str());
    auto s = snippets.Generate(corpus->Get(r.doc), query_terms,
                               corpus->analyzer().vocabulary());
    std::printf("           %s\n", s.text.c_str());
  }
  return 0;
}

int CmdExpand(const std::vector<std::string>& args) {
  if (args.size() < 2) return Usage();
  qec::core::QueryExpanderOptions options;
  size_t i = 1;
  while (i < args.size() && args[i][0] == '-') {
    if (args[i] == "-a" && i + 1 < args.size()) {
      const std::string& a = args[i + 1];
      if (a == "iskr") {
        options.algorithm = qec::core::ExpansionAlgorithm::kIskr;
      } else if (a == "pebc") {
        options.algorithm = qec::core::ExpansionAlgorithm::kPebc;
      } else if (a == "fmeasure") {
        options.algorithm = qec::core::ExpansionAlgorithm::kFMeasure;
      } else {
        return Usage();
      }
      i += 2;
    } else if (args[i] == "-k" && i + 1 < args.size()) {
      if (!ParseUnsigned(args[i + 1], &options.max_clusters)) return Usage();
      i += 2;
    } else if (qec::StartsWith(args[i], "--sweep-threads=")) {
      // Scatter-gather benefit/cost sweeps inside every algorithm; merges
      // are candidate-ordered, so output is byte-identical to serial.
      if (!ParseUnsigned(args[i].substr(strlen("--sweep-threads=")),
                         &options.sweep.threads)) {
        return Usage();
      }
      i += 1;
    } else {
      return Usage();
    }
  }
  if (i >= args.size()) return Usage();

  auto data = LoadCorpusAndIndex(args[0]);
  if (!data.ok()) {
    std::fprintf(stderr, "%s\n", data.status().ToString().c_str());
    return 1;
  }
  qec::core::QueryExpander expander(*data->index, options);
  std::string query = JoinFrom(args, i);
  auto outcome = expander.ExpandText(query);
  if (!outcome.ok()) {
    std::fprintf(stderr, "%s\n", outcome.status().ToString().c_str());
    return 1;
  }
  std::printf("%s expansions for \"%s\" (%zu results, %zu clusters, "
              "set score %.3f):\n",
              std::string(qec::core::AlgorithmName(options.algorithm)).c_str(),
              query.c_str(), outcome->num_results_used,
              outcome->num_clusters, outcome->set_score);
  for (const auto& eq : outcome->queries) {
    std::printf("  [%2zu results] \"", eq.cluster_size);
    for (size_t k = 0; k < eq.keywords.size(); ++k) {
      std::printf("%s%s", k > 0 ? ", " : "", eq.keywords[k].c_str());
    }
    std::printf("\"  P=%.2f R=%.2f F=%.2f\n", eq.quality.precision,
                eq.quality.recall, eq.quality.f_measure);
  }
  return 0;
}

// explain: run one query through two expansion arms with per-term
// benefit/cost diagnostics (QueryExpanderOptions::explain_terms) and report
// which arm's set score wins — the offline twin of the server's EXPLAIN
// verb (docs/OBSERVABILITY.md).
int CmdExplain(const std::vector<std::string>& args) {
  if (args.size() < 2) return Usage();
  qec::core::QueryExpanderOptions options;
  options.explain_terms = true;
  qec::core::ExpansionAlgorithm shadow_algo =
      qec::core::ExpansionAlgorithm::kPebc;
  size_t i = 1;
  while (i < args.size() && args[i][0] == '-') {
    if (args[i] == "-a" && i + 1 < args.size()) {
      if (!ParseAlgoName(args[i + 1], &options.algorithm)) return Usage();
      i += 2;
    } else if (args[i] == "-b" && i + 1 < args.size()) {
      if (!ParseAlgoName(args[i + 1], &shadow_algo)) return Usage();
      i += 2;
    } else if (args[i] == "-k" && i + 1 < args.size()) {
      if (!ParseUnsigned(args[i + 1], &options.max_clusters)) return Usage();
      i += 2;
    } else {
      return Usage();
    }
  }
  if (i >= args.size()) return Usage();
  shadow_algo = qec::server::SecondArm(options.algorithm, shadow_algo);

  auto data = LoadCorpusAndIndex(args[0]);
  if (!data.ok()) {
    std::fprintf(stderr, "%s\n", data.status().ToString().c_str());
    return 1;
  }
  const std::string query = JoinFrom(args, i);

  qec::eval::TablePrinter table(
      {"arm", "cluster", "term", "action", "benefit", "cost", "value"});
  auto fmt = [](double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.4f", v > 1e12 ? 1e12 : v);
    return std::string(buf);
  };
  double scores[2] = {-1.0, -1.0};
  const char* arm_names[2] = {"primary", "shadow"};
  const qec::core::ExpansionAlgorithm arms[2] = {options.algorithm,
                                                 shadow_algo};
  for (int arm = 0; arm < 2; ++arm) {
    qec::core::QueryExpanderOptions arm_options = options;
    arm_options.algorithm = arms[arm];
    qec::core::QueryExpander expander(*data->index, arm_options);
    auto outcome = expander.ExpandText(query);
    if (!outcome.ok()) {
      std::fprintf(stderr, "%s arm (%s): %s\n", arm_names[arm],
                   std::string(qec::core::AlgorithmName(arms[arm])).c_str(),
                   outcome.status().ToString().c_str());
      continue;
    }
    scores[arm] = outcome->set_score;
    std::printf("%s arm %s: set score %.3f over %zu clusters "
                "(%zu results, %.2f ms)\n",
                arm_names[arm],
                std::string(qec::core::AlgorithmName(arms[arm])).c_str(),
                outcome->set_score, outcome->num_clusters,
                outcome->num_results_used,
                static_cast<double>(outcome->phases.expansion_ns()) / 1e6);
    for (const auto& eq : outcome->queries) {
      for (const auto& row : eq.term_details) {
        table.AddRow({arm_names[arm], std::to_string(eq.cluster_index),
                      std::string(
                          data->corpus->analyzer().vocabulary().TermString(
                              row.term)),
                      row.is_removal ? "remove" : "add", fmt(row.benefit),
                      fmt(row.cost), fmt(row.value)});
      }
    }
  }
  std::printf("%s", table.ToString().c_str());
  if (scores[0] >= 0.0 && scores[1] >= 0.0) {
    std::printf("winner: %s (primary %.3f vs shadow %.3f)\n",
                std::string(qec::server::ArmWinner(scores[0], scores[1]))
                    .c_str(),
                scores[0], scores[1]);
  }
  return scores[0] < 0.0 && scores[1] < 0.0 ? 1 : 0;
}

// abtest: offline A/B replay — scores a primary and a shadow arm over a
// query workload through the same ShadowEvaluator the server samples
// with, then prints the tallies the admin /abtest route would report.
int CmdAbtest(const std::vector<std::string>& args) {
  if (args.empty()) return Usage();
  qec::core::ExpansionAlgorithm primary_algo =
      qec::core::ExpansionAlgorithm::kIskr;
  qec::core::ExpansionAlgorithm shadow_algo =
      qec::core::ExpansionAlgorithm::kPebc;
  size_t limit = 0;  // 0 = all
  std::string queries_file;
  std::string corpus_arg;
  for (size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "-a" && i + 1 < args.size()) {
      if (!ParseAlgoName(args[++i], &primary_algo)) return Usage();
    } else if (args[i] == "-b" && i + 1 < args.size()) {
      if (!ParseAlgoName(args[++i], &shadow_algo)) return Usage();
    } else if (args[i] == "-n" && i + 1 < args.size()) {
      if (!ParseUnsigned(args[++i], &limit)) return Usage();
    } else if (qec::StartsWith(args[i], "--queries=")) {
      queries_file = args[i].substr(strlen("--queries="));
    } else if (corpus_arg.empty()) {
      corpus_arg = args[i];
    } else {
      return Usage();
    }
  }
  if (corpus_arg.empty()) return Usage();
  if (primary_algo == shadow_algo) {
    std::fprintf(stderr, "abtest: both arms are %s — nothing to compare\n",
                 std::string(qec::core::AlgorithmName(primary_algo)).c_str());
    return 2;
  }

  std::vector<std::string> queries;
  if (!queries_file.empty()) {
    auto content = ReadFile(queries_file);
    if (!content.ok()) {
      std::fprintf(stderr, "%s\n", content.status().ToString().c_str());
      return 1;
    }
    size_t begin = 0;
    while (begin <= content->size()) {
      size_t end = content->find('\n', begin);
      if (end == std::string::npos) end = content->size();
      std::string q(qec::TrimWhitespace(
          std::string_view(content->data() + begin, end - begin)));
      if (!q.empty()) queries.push_back(std::move(q));
      begin = end + 1;
    }
  } else if (corpus_arg == "shopping") {
    for (const auto& q : qec::datagen::ShoppingQueries()) {
      queries.push_back(q.text);
    }
  } else if (corpus_arg == "wikipedia") {
    for (const auto& q : qec::datagen::WikipediaQueries()) {
      queries.push_back(q.text);
    }
  } else {
    std::fprintf(stderr,
                 "abtest: --queries=FILE is required for snapshot files\n");
    return 2;
  }
  if (limit != 0 && queries.size() > limit) queries.resize(limit);

  auto data = LoadCorpusAndIndex(corpus_arg);
  if (!data.ok()) {
    std::fprintf(stderr, "%s\n", data.status().ToString().c_str());
    return 1;
  }

  qec::server::ShadowEvaluatorOptions shadow_options;
  shadow_options.sample_rate = 1.0;
  shadow_options.algorithm = shadow_algo;
  shadow_options.dedupe = false;  // replay every workload query once
  shadow_options.history_capacity = queries.size() + 1;
  qec::server::ShadowEvaluator evaluator(shadow_options);

  qec::core::QueryExpanderOptions primary_options;
  primary_options.algorithm = primary_algo;
  qec::core::QueryExpanderOptions secondary_options;
  secondary_options.algorithm = shadow_algo;
  qec::core::QueryExpander primary(*data->index, primary_options);
  qec::core::QueryExpander shadow(*data->index, secondary_options);

  qec::eval::TablePrinter table(
      {"query", "primary", "shadow", "winner", "p_ms", "s_ms"});
  for (size_t i = 0; i < queries.size(); ++i) {
    if (!evaluator.ShouldSample()) continue;  // rate 1.0: never skips
    auto p = primary.ExpandText(queries[i]);
    auto s = shadow.ExpandText(queries[i]);
    if (!p.ok() || !s.ok()) {
      evaluator.RecordError();
      continue;
    }
    const auto c = evaluator.Compare(
        i + 1, queries[i],
        std::string(qec::core::AlgorithmName(primary_algo)), p->set_score,
        p->phases.expansion_ns(), s->set_score, s->phases.expansion_ns());
    char p_score[32], s_score[32], p_ms[32], s_ms[32];
    std::snprintf(p_score, sizeof(p_score), "%.3f", c.primary_score);
    std::snprintf(s_score, sizeof(s_score), "%.3f", c.shadow_score);
    std::snprintf(p_ms, sizeof(p_ms), "%.2f",
                  static_cast<double>(c.primary_expansion_ns) / 1e6);
    std::snprintf(s_ms, sizeof(s_ms), "%.2f",
                  static_cast<double>(c.shadow_expansion_ns) / 1e6);
    table.AddRow({queries[i], p_score, s_score, c.winner, p_ms, s_ms});
  }
  std::printf("%s", table.ToString().c_str());
  const qec::server::ShadowTallies t = evaluator.tallies();
  std::printf("%s vs %s over %llu queries: primary %llu, shadow %llu, "
              "tie %llu, errors %llu\n",
              std::string(qec::core::AlgorithmName(primary_algo)).c_str(),
              std::string(qec::core::AlgorithmName(shadow_algo)).c_str(),
              static_cast<unsigned long long>(t.sampled),
              static_cast<unsigned long long>(t.primary_wins),
              static_cast<unsigned long long>(t.shadow_wins),
              static_cast<unsigned long long>(t.ties),
              static_cast<unsigned long long>(t.errors));
  return 0;
}

// The serve --port signal hook: SIGINT/SIGTERM request a graceful drain.
// NetServer::RequestStop and AdminServer::SetDraining are both
// async-signal-safe (atomic store + eventfd write), so the handler may
// call them directly.
std::atomic<qec::server::net::NetServer*> g_net_server{nullptr};
std::atomic<qec::server::admin::AdminServer*> g_admin_server{nullptr};

void HandleStopSignal(int) {
  // Flip /readyz to 503 first, so a load balancer polling readiness sees
  // "draining" before the query listener actually closes.
  qec::server::admin::AdminServer* admin =
      g_admin_server.load(std::memory_order_acquire);
  if (admin != nullptr) admin->SetDraining();
  qec::server::net::NetServer* net =
      g_net_server.load(std::memory_order_acquire);
  if (net != nullptr) net->RequestStop();
}

// Ordered stdout writer for the pipelined stdin serve loop: the TCP
// connections' slot queue behind a mutex. The reader thread opens one slot
// per request line and keeps reading ahead; responses complete out of order
// (on worker threads, or on the reader thread for cache hits) but print
// strictly in request order. Open() applies
// backpressure once `window` responses are outstanding, so a piped-in
// workload cannot trip the server's admission shedding.
class OrderedStdout final : public qec::server::LineHandler::Responder {
 public:
  explicit OrderedStdout(size_t window) : window_(window) {}

  bool Full() const {
    std::lock_guard<std::mutex> lock(mu_);
    return slots_.size() >= window_;
  }

  uint64_t Open() override {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return slots_.size() < window_; });
    return slots_.Open();
  }

  qec::server::QecServer::ResponseCallback CompleteLater(
      uint64_t slot) override {
    return [this, slot](qec::server::ServeResponse response) {
      Complete(slot, std::move(response.json_line));
    };
  }

  void Complete(uint64_t slot, std::string line) override {
    line += '\n';
    std::string ready;
    // Notify under the lock: once Drain() sees the last slot released the
    // writer may be destroyed, so a worker must not touch it after unlocking.
    std::lock_guard<std::mutex> lock(mu_);
    slots_.Complete(slot, std::move(line));
    slots_.TakeReady(&ready);
    if (ready.empty()) return;
    std::fwrite(ready.data(), 1, ready.size(), stdout);
    std::fflush(stdout);
    cv_.notify_all();
  }

  /// Blocks until every opened slot has completed and printed.
  void Drain() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return slots_.empty(); });
  }

 private:
  const size_t window_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  qec::server::net::SlotQueue slots_;
};

// The stdin transport: lines are read ahead into the shared LineHandler and
// EXPANDs admitted in bursts, so a piped workload uses the whole worker
// pool; a window of queue-capacity slots keeps it from being shed.
void ServeStdin(qec::server::QecServer* server) {
  OrderedStdout writer(server->options().queue_capacity);
  qec::server::LineHandler handler(server);
  std::string line;
  while (std::getline(std::cin, line)) {
    // Never let unsubmitted work block slot backpressure.
    if (writer.Full()) handler.Flush();
    handler.Handle(line, writer);
    // Submit at the end of the buffered burst (nothing left to read without
    // blocking) or at a size cap, like the TCP front end's per-read batches.
    if (handler.buffered() >= 64 || std::cin.rdbuf()->in_avail() <= 0) {
      handler.Flush();
    }
  }
  handler.Flush();
  writer.Drain();
}

// serve: the line-protocol serving layer (docs/SERVING.md) driven by
// stdin/stdout — one request line in, one JSON response line out — or, with
// --port=N, by the epoll network front end serving the same protocol over
// TCP with pipelining (--port=0 binds an ephemeral port and reports it on
// stderr). The data argument (positional or --snapshot=FILE) is a
// snapshot file or "shopping"/"wikipedia" for a generated demo corpus.
int CmdServe(const std::vector<std::string>& args) {
  if (args.empty()) return Usage();
  qec::server::ServerOptions options;
  qec::server::net::NetServerOptions net_options;
  qec::server::admin::AdminServerOptions admin_options;
  bool net_mode = false;
  bool admin_mode = false;
  std::string corpus_arg;
  std::string snapshot_path;
  for (const std::string& arg : args) {
    if (qec::StartsWith(arg, "--port=")) {
      net_mode = true;
      if (!ParseUnsigned(arg.substr(strlen("--port=")), &net_options.port)) {
        return Usage();
      }
    } else if (qec::StartsWith(arg, "--host=")) {
      net_options.host = arg.substr(strlen("--host="));
    } else if (qec::StartsWith(arg, "--max-conns=")) {
      if (!ParseUnsigned(arg.substr(strlen("--max-conns=")),
                         &net_options.max_connections)) {
        return Usage();
      }
    } else if (qec::StartsWith(arg, "--max-line-bytes=")) {
      if (!ParseUnsigned(arg.substr(strlen("--max-line-bytes=")),
                         &net_options.max_line_bytes)) {
        return Usage();
      }
    } else if (qec::StartsWith(arg, "--drain-ms=")) {
      if (!ParseUnsigned(arg.substr(strlen("--drain-ms=")),
                         &net_options.drain_timeout_ms)) {
        return Usage();
      }
    } else if (qec::StartsWith(arg, "--admin-port=")) {
      admin_mode = true;
      if (!ParseUnsigned(arg.substr(strlen("--admin-port=")),
                         &admin_options.port)) {
        return Usage();
      }
    } else if (qec::StartsWith(arg, "--admin-host=")) {
      admin_options.host = arg.substr(strlen("--admin-host="));
    } else if (qec::StartsWith(arg, "--snapshot=")) {
      snapshot_path = arg.substr(strlen("--snapshot="));
    } else if (qec::StartsWith(arg, "--threads=")) {
      if (!ParseUnsigned(arg.substr(strlen("--threads=")),
                         &options.num_threads)) {
        return Usage();
      }
    } else if (qec::StartsWith(arg, "--queue=")) {
      if (!ParseUnsigned(arg.substr(strlen("--queue=")),
                         &options.queue_capacity) ||
          options.queue_capacity == 0) {
        return Usage();
      }
    } else if (qec::StartsWith(arg, "--deadline-ms=")) {
      if (!ParseUnsigned(arg.substr(strlen("--deadline-ms=")),
                         &options.default_deadline_ms)) {
        return Usage();
      }
    } else if (arg == "--no-cache") {
      options.enable_expansion_cache = false;
      options.enable_set_algebra_cache = false;
    } else if (qec::StartsWith(arg, "--cache-size=")) {
      if (!ParseUnsigned(arg.substr(strlen("--cache-size=")),
                         &options.expansion_cache_capacity) ||
          options.expansion_cache_capacity == 0) {
        return Usage();
      }
    } else if (qec::StartsWith(arg, "--slowlog-dump=")) {
      options.slowlog_dump_path = arg.substr(strlen("--slowlog-dump="));
    } else if (qec::StartsWith(arg, "--slow-ms=")) {
      if (!ParseUnsigned(arg.substr(strlen("--slow-ms=")),
                         &options.slow_request_threshold_ms)) {
        return Usage();
      }
    } else if (qec::StartsWith(arg, "--flight-recorder=")) {
      if (!ParseUnsigned(arg.substr(strlen("--flight-recorder=")),
                         &options.flight_recorder_capacity)) {
        return Usage();
      }
    } else if (qec::StartsWith(arg, "--shadow-rate=")) {
      if (!qec::ParseDouble(arg.substr(strlen("--shadow-rate=")),
                            &options.shadow_sample_rate)) {
        return Usage();
      }
    } else if (qec::StartsWith(arg, "--shadow-algo=")) {
      if (!ParseAlgoName(arg.substr(strlen("--shadow-algo=")),
                         &options.shadow_algorithm)) {
        return Usage();
      }
    } else if (qec::StartsWith(arg, "--shadow-queue=")) {
      if (!ParseUnsigned(arg.substr(strlen("--shadow-queue=")),
                         &options.shadow_queue_capacity)) {
        return Usage();
      }
    } else if (qec::StartsWith(arg, "--")) {
      return Usage();
    } else if (corpus_arg.empty()) {
      corpus_arg = arg;
    } else {
      return Usage();
    }
  }
  if (corpus_arg.empty() == snapshot_path.empty()) return Usage();

  auto data = LoadCorpusAndIndex(snapshot_path.empty() ? corpus_arg
                                                       : snapshot_path);
  if (!data.ok()) {
    std::fprintf(stderr, "%s\n", data.status().ToString().c_str());
    return 1;
  }
  qec::server::QecServer server(*data->index, options);
  std::fprintf(stderr,
               "serving %zu documents with %zu workers (queue %zu, cache "
               "%s, shadow %s); one request per line: EXPAND [k=N] [algo=A] "
               "[--] <query> | EXPLAIN <query> | PING | STATS\n",
               data->corpus->NumDocs(),
               server.num_workers(), options.queue_capacity,
               options.enable_expansion_cache ? "on" : "off",
               options.shadow_sample_rate > 0.0 ? "on" : "off");

  std::unique_ptr<qec::server::net::NetServer> net;
  if (net_mode) {
    net = std::make_unique<qec::server::net::NetServer>(&server, net_options);
    const qec::Status bound = net->Bind();
    if (!bound.ok()) {
      std::fprintf(stderr, "%s\n", bound.ToString().c_str());
      return 1;
    }
  }
  // The admin plane serves either transport. Without --port its /readyz
  // only reflects SetDraining (net_server == nullptr).
  std::unique_ptr<qec::server::admin::AdminServer> admin;
  if (admin_mode) {
    admin = std::make_unique<qec::server::admin::AdminServer>(
        &server, net.get(), admin_options);
    const qec::Status admin_up = admin->Start();
    if (!admin_up.ok()) {
      std::fprintf(stderr, "%s\n", admin_up.ToString().c_str());
      return 1;
    }
    g_admin_server.store(admin.get(), std::memory_order_release);
    std::fprintf(stderr,
                 "admin plane on http://%s:%u (/metrics /healthz /readyz "
                 "/statusz /slowlog /abtest)\n",
                 admin_options.host.c_str(),
                 static_cast<unsigned>(admin->port()));
  }

  qec::Status run;
  if (net != nullptr) {
    g_net_server.store(net.get(), std::memory_order_release);
    std::signal(SIGINT, HandleStopSignal);
    std::signal(SIGTERM, HandleStopSignal);
    std::fprintf(stderr, "listening on %s:%u (SIGINT/SIGTERM drain)\n",
                 net_options.host.c_str(), static_cast<unsigned>(net->port()));
    run = net->Run();
    g_net_server.store(nullptr, std::memory_order_release);
  } else {
    ServeStdin(&server);
  }
  // The admin plane outlives the query drain (so /readyz answered 503 the
  // whole time queries were finishing) and only now shuts down.
  g_admin_server.store(nullptr, std::memory_order_release);
  if (admin != nullptr) admin->Shutdown();
  if (!run.ok()) {
    std::fprintf(stderr, "%s\n", run.ToString().c_str());
    return 1;
  }
  return 0;
}

// Pretty-prints a flight-recorder JSONL dump (serve --slowlog-dump=FILE):
// one table row per record, newest last. `-n N` keeps only the last N.
int CmdSlowlog(const std::vector<std::string>& args) {
  if (args.empty()) return Usage();
  std::string path;
  size_t keep = 0;  // 0 = all
  for (size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "-n") {
      if (i + 1 >= args.size() || !ParseUnsigned(args[++i], &keep)) {
        return Usage();
      }
    } else if (path.empty()) {
      path = args[i];
    } else {
      return Usage();
    }
  }
  if (path.empty()) return Usage();

  auto content = ReadFile(path);
  if (!content.ok()) {
    std::fprintf(stderr, "%s\n", content.status().ToString().c_str());
    return 1;
  }
  std::vector<qec::obs::RequestRecord> records;
  size_t line_no = 0;
  size_t begin = 0;
  while (begin <= content->size()) {
    size_t end = content->find('\n', begin);
    if (end == std::string::npos) end = content->size();
    const std::string_view record_line(content->data() + begin, end - begin);
    begin = end + 1;
    ++line_no;
    if (qec::TrimWhitespace(record_line).empty()) continue;
    auto record = qec::obs::RequestRecordFromJson(record_line);
    if (!record.ok()) {
      std::fprintf(stderr, "%s:%zu: %s\n", path.c_str(), line_no,
                   record.status().ToString().c_str());
      return 1;
    }
    records.push_back(*std::move(record));
  }
  if (keep != 0 && records.size() > keep) {
    records.erase(records.begin(),
                  records.end() - static_cast<ptrdiff_t>(keep));
  }

  qec::eval::TablePrinter table({"trace_id", "status", "algo", "cached",
                                 "queue_ms", "lookup_ms", "expand_ms",
                                 "serialize_ms", "total_ms", "query"});
  auto ms = [](uint64_t ns) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(ns) / 1e6);
    return std::string(buf);
  };
  for (const auto& r : records) {
    table.AddRow({qec::server::TraceIdToHex(r.trace_id), r.status, r.algo,
                  r.from_cache ? "yes" : "no", ms(r.queue_wait_ns),
                  ms(r.cache_lookup_ns), ms(r.expansion_ns),
                  ms(r.serialize_ns), ms(r.total_ns), r.query});
  }
  std::printf("%s", table.ToString().c_str());
  std::printf("%zu record%s\n", records.size(),
              records.size() == 1 ? "" : "s");
  return 0;
}

std::string ReadAllStdin() {
  std::string out;
  char buf[1 << 16];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), stdin)) > 0) out.append(buf, n);
  return out;
}

// Lints a Prometheus/OpenMetrics exposition (a live or saved /metrics
// scrape): parse, histogram invariants (cumulative buckets, +Inf, _count,
// exemplar-within-bucket), then the qec naming conventions. Exit 0 with a
// summary line on success, 1 with the first violation on stderr otherwise.
int CmdMetricsLint(const std::vector<std::string>& args) {
  if (args.size() > 1) return Usage();
  std::string source = "<stdin>";
  std::string text;
  if (args.empty() || args[0] == "-") {
    text = ReadAllStdin();
  } else {
    source = args[0];
    auto content = ReadFile(source);
    if (!content.ok()) {
      std::fprintf(stderr, "%s\n", content.status().ToString().c_str());
      return 1;
    }
    text = *std::move(content);
  }

  auto families = qec::obs::ParsePrometheusText(text);
  if (!families.ok()) {
    std::fprintf(stderr, "%s: %s\n", source.c_str(),
                 families.status().ToString().c_str());
    return 1;
  }
  const qec::Status histograms =
      qec::obs::ValidatePrometheusHistograms(*families);
  if (!histograms.ok()) {
    std::fprintf(stderr, "%s: %s\n", source.c_str(),
                 histograms.ToString().c_str());
    return 1;
  }
  const qec::Status naming = qec::obs::LintPrometheusNaming(*families);
  if (!naming.ok()) {
    std::fprintf(stderr, "%s: %s\n", source.c_str(),
                 naming.ToString().c_str());
    return 1;
  }

  size_t samples = 0;
  size_t exemplars = 0;
  for (const auto& family : *families) {
    samples += family.samples.size();
    for (const auto& sample : family.samples) {
      if (sample.has_exemplar) ++exemplars;
    }
  }
  std::printf("%s: OK (%zu families, %zu samples, %zu exemplars)\n",
              source.c_str(), families->size(), samples, exemplars);
  return 0;
}

// The quickstart corpus: the ranking-bias "apple" situation from the
// paper's introduction (same documents as examples/quickstart.cc).
qec::doc::Corpus QuickstartCorpus() {
  qec::doc::Corpus corpus;
  corpus.AddTextDocument(
      "apple inc store",
      "apple store opens downtown with iphone laptop displays and genius bar "
      "apple apple retail launch");
  corpus.AddTextDocument(
      "apple quarterly results",
      "apple reports record revenue as iphone and laptop sales grow apple "
      "apple earnings investors");
  corpus.AddTextDocument(
      "apple job cuts",
      "apple announces job changes in retail division apple store staffing "
      "apple location plans");
  corpus.AddTextDocument(
      "apple keynote",
      "apple keynote reveals new iphone laptop and software apple apple "
      "developers cheer");
  corpus.AddTextDocument(
      "apple store location",
      "new apple store location announced apple mall opening apple retail");
  corpus.AddTextDocument(
      "apple orchard guide",
      "apple orchard harvest fruit trees ripen sweet apple cider pressing "
      "fruit growers celebrate autumn apple");
  return corpus;
}

/// Runs every expansion algorithm once over the quickstart corpus — the
/// smallest end-to-end exercise of index, clustering, ISKR, and PEBC, so a
/// --metrics-out snapshot from it covers every subsystem's counters.
/// `--snapshot=FILE` swaps in a prebuilt snapshot (with `--query=Q` to pick
/// a query that exists in that corpus).
int CmdQuickstart(const std::vector<std::string>& args) {
  std::string snapshot_path;
  std::string query = "apple";
  for (const std::string& arg : args) {
    if (qec::StartsWith(arg, "--snapshot=")) {
      snapshot_path = arg.substr(strlen("--snapshot="));
    } else if (qec::StartsWith(arg, "--query=")) {
      query = arg.substr(strlen("--query="));
    } else {
      return Usage();
    }
  }
  qec::storage::Snapshot data;
  if (snapshot_path.empty()) {
    data.corpus = std::make_unique<qec::doc::Corpus>(QuickstartCorpus());
    data.index = std::make_unique<qec::index::InvertedIndex>(*data.corpus);
  } else {
    auto loaded = LoadCorpusAndIndex(snapshot_path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
      return 1;
    }
    data = std::move(*loaded);
  }
  qec::core::QueryExpanderOptions options;
  options.max_clusters = 3;
  options.candidates.fraction = 1.0;  // tiny corpus: consider all keywords
  for (auto algorithm : {qec::core::ExpansionAlgorithm::kIskr,
                         qec::core::ExpansionAlgorithm::kPebc,
                         qec::core::ExpansionAlgorithm::kFMeasure}) {
    options.algorithm = algorithm;
    qec::core::QueryExpander expander(*data.index, options);
    auto outcome = expander.ExpandText(query);
    if (!outcome.ok()) {
      std::fprintf(stderr, "expansion failed: %s\n",
                   outcome.status().ToString().c_str());
      return 1;
    }
    std::printf("%s expanded queries for \"%s\" (set score %.3f):\n",
                std::string(qec::core::AlgorithmName(algorithm)).c_str(),
                query.c_str(), outcome->set_score);
    for (const auto& eq : outcome->queries) {
      std::printf("  cluster %zu (%zu results): \"", eq.cluster_index,
                  eq.cluster_size);
      for (size_t i = 0; i < eq.keywords.size(); ++i) {
        std::printf("%s%s", i > 0 ? ", " : "", eq.keywords[i].c_str());
      }
      std::printf("\"  P=%.2f R=%.2f F=%.2f\n", eq.quality.precision,
                  eq.quality.recall, eq.quality.f_measure);
    }
    std::printf("\n");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  qec::eval::ObsFlags obs_flags = qec::eval::ConsumeObsFlags(args);

  int rc;
  if (args.empty()) {
    // Bare flags (e.g. `qec_cli --metrics-out=m.json`) run the quickstart
    // demo so there is always something to measure; no arguments at all is
    // still a usage error.
    if (obs_flags.metrics_out.empty() && !obs_flags.trace) {
      return Usage();
    }
    rc = CmdQuickstart({});
  } else {
    const std::string cmd = args[0];
    const std::vector<std::string> rest(args.begin() + 1, args.end());
    if (cmd == "index-build") {
      rc = CmdIndexBuild(rest);
    } else if (cmd == "index-inspect") {
      rc = CmdIndexInspect(rest);
    } else if (cmd == "search") {
      rc = CmdSearch(rest);
    } else if (cmd == "expand") {
      rc = CmdExpand(rest);
    } else if (cmd == "explain") {
      rc = CmdExplain(rest);
    } else if (cmd == "abtest") {
      rc = CmdAbtest(rest);
    } else if (cmd == "serve") {
      rc = CmdServe(rest);
    } else if (cmd == "slowlog") {
      rc = CmdSlowlog(rest);
    } else if (cmd == "metrics-lint") {
      rc = CmdMetricsLint(rest);
    } else if (cmd == "quickstart") {
      rc = CmdQuickstart(rest);
    } else {
      return Usage();
    }
  }
  if (!qec::eval::EmitObsOutputs(obs_flags)) rc = rc == 0 ? 1 : rc;
  return rc;
}
