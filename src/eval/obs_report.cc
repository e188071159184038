#include "eval/obs_report.h"

#include <cstdio>
#include <string_view>

#include "common/logging.h"
#include "core/phases.h"
#include "obs/metrics.h"

namespace qec::eval {

namespace {

bool WriteFile(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    QEC_LOG(Error) << "cannot open " << path << " for writing";
    return false;
  }
  const size_t written = std::fwrite(content.data(), 1, content.size(), f);
  const bool ok = written == content.size() && std::fclose(f) == 0;
  if (!ok) QEC_LOG(Error) << "short write to " << path;
  return ok;
}

/// Matches "--flag=value" and returns the value part.
bool FlagValue(std::string_view arg, std::string_view flag,
               std::string* value) {
  if (arg.size() <= flag.size() + 1 || arg.substr(0, flag.size()) != flag ||
      arg[flag.size()] != '=') {
    return false;
  }
  *value = std::string(arg.substr(flag.size() + 1));
  return true;
}

/// One row per core::Phase, in pipeline order, from the
/// `engine/phase/<name>_ns` histograms: sample count, total, mean, p50 and
/// p99 in milliseconds. A phase nothing ran reads 0, as does every phase
/// when QEC_DISABLE_TRACING compiles the histograms out.
std::string EnginePhaseTable() {
  const obs::MetricsSnapshot snapshot =
      obs::MetricsRegistry::Global().Snapshot();
  char line[160];
  std::snprintf(line, sizeof(line), "%-10s %10s %12s %10s %10s %10s\n",
                "phase", "count", "total_ms", "avg_ms", "p50_ms", "p99_ms");
  std::string out = line;
  for (const std::string_view name : core::kPhaseNames) {
    const std::string histogram = "engine/phase/" + std::string(name) + "_ns";
    obs::HistogramSnapshot h;
    for (const obs::HistogramSnapshot& candidate : snapshot.histograms) {
      if (candidate.name == histogram) h = candidate;
    }
    const double total_ms = static_cast<double>(h.sum) / 1e6;
    std::snprintf(line, sizeof(line),
                  "%-10.*s %10llu %12.3f %10.3f %10.3f %10.3f\n",
                  static_cast<int>(name.size()), name.data(),
                  static_cast<unsigned long long>(h.count), total_ms,
                  h.count > 0 ? total_ms / static_cast<double>(h.count) : 0.0,
                  h.p50 / 1e6, h.p99 / 1e6);
    out += line;
  }
  return out;
}

}  // namespace

ObsFlags ConsumeObsFlags(std::vector<std::string>& args) {
  ObsFlags flags;
  std::vector<std::string> kept;
  kept.reserve(args.size());
  for (const std::string& arg : args) {
    std::string value;
    if (FlagValue(arg, "--metrics-out", &value)) {
      flags.metrics_out = value;
    } else if (arg == "--trace") {
      flags.trace = true;
    } else if (FlagValue(arg, "--log-level", &value)) {
      LogLevel level;
      if (ParseLogLevel(value, &level)) {
        SetMinLogLevel(level);
      } else {
        QEC_LOG(Warning) << "unknown --log-level '" << value << "' ignored";
      }
    } else {
      kept.push_back(arg);
    }
  }
  args = std::move(kept);
  return flags;
}

ObsFlags ParseObsFlags(int& argc, char** argv) {
  ObsFlags flags;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    std::vector<std::string> one = {argv[i]};
    ObsFlags f = ConsumeObsFlags(one);
    if (!f.metrics_out.empty()) flags.metrics_out = f.metrics_out;
    flags.trace = flags.trace || f.trace;
    // Unconsumed arguments compact leftward; consumed ones drop out.
    if (!one.empty()) argv[out++] = argv[i];
  }
  argc = out;
  return flags;
}

bool EmitObsOutputs(const ObsFlags& flags) {
  bool ok = true;
  if (!flags.metrics_out.empty()) {
    const obs::MetricsSnapshot snapshot =
        obs::MetricsRegistry::Global().Snapshot();
    ok = WriteFile(flags.metrics_out, snapshot.ToJson()) && ok;
    std::printf("metrics snapshot written to %s\n", flags.metrics_out.c_str());
  }
  if (flags.trace) {
    std::printf("\n--- engine phases ---\n%s", EnginePhaseTable().c_str());
  }
  return ok;
}

}  // namespace qec::eval
