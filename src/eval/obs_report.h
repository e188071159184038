#ifndef QEC_EVAL_OBS_REPORT_H_
#define QEC_EVAL_OBS_REPORT_H_

#include <string>
#include <vector>

namespace qec::eval {

/// Observability flags shared by qec_cli, the examples, and the bench
/// binaries, so every entry point can emit a machine-readable snapshot:
///   --metrics-out=FILE   write a metrics JSON snapshot on exit
///   --trace              print the engine phase table on exit
///   --log-level=LEVEL    SetMinLogLevel (debug|info|warning|error|fatal)
struct ObsFlags {
  std::string metrics_out;
  bool trace = false;
};

/// Strips the recognized flags from `args` (unrecognized entries are kept
/// in order) and applies --log-level right away.
ObsFlags ConsumeObsFlags(std::vector<std::string>& args);

/// argc/argv variant for plain main()s; rewrites argv in place.
ObsFlags ParseObsFlags(int& argc, char** argv);

/// Emits everything `flags` asked for: the metrics JSON file and (under
/// --trace) the engine phase table on stdout. Returns false if the file
/// could not be written.
bool EmitObsOutputs(const ObsFlags& flags);

}  // namespace qec::eval

#endif  // QEC_EVAL_OBS_REPORT_H_
