#include "eval/obs_report.h"

#include <cstdio>
#include <string_view>

#include "common/logging.h"
#include "obs/trace.h"

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

}  // namespace

ObsFlags ConsumeObsFlags(std::vector<std::string>& args) {
  ObsFlags flags;
  std::vector<std::string> kept;
  kept.reserve(args.size());
  for (const std::string& arg : args) {
    std::string value;
    if (FlagValue(arg, "--metrics-out", &value)) {
      flags.metrics_out = value;
    } else if (FlagValue(arg, "--trace-out", &value)) {
      flags.trace_out = value;
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
  if (flags.trace || !flags.trace_out.empty()) {
    obs::SetTraceEventRecording(true);
  }
  return flags;
}

ObsFlags ParseObsFlags(int& argc, char** argv) {
  ObsFlags flags;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    std::vector<std::string> one = {argv[i]};
    ObsFlags f = ConsumeObsFlags(one);
    if (!f.metrics_out.empty()) flags.metrics_out = f.metrics_out;
    if (!f.trace_out.empty()) flags.trace_out = f.trace_out;
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
    const obs::MetricsSnapshot snapshot = obs::CaptureMetrics();
    ok = WriteFile(flags.metrics_out, snapshot.ToJson()) && ok;
    std::printf("metrics snapshot written to %s\n", flags.metrics_out.c_str());
  }
  if (!flags.trace_out.empty()) {
    ok = WriteFile(flags.trace_out, obs::TraceEventsJson()) && ok;
    std::printf("trace events written to %s\n", flags.trace_out.c_str());
  }
  if (flags.trace) {
    std::printf("\n--- span profile ---\n%s", obs::SpanFlatProfile().c_str());
  }
  return ok;
}

}  // namespace qec::eval
