#ifndef QEC_EVAL_OBS_REPORT_H_
#define QEC_EVAL_OBS_REPORT_H_

#include <string>
#include <vector>

namespace qec::eval {

/// Observability flags shared by qec_cli, the examples, and the bench
/// binaries, so every entry point can emit a machine-readable snapshot:
///   --metrics-out=FILE   write a metrics JSON snapshot on exit
///   --trace              record span events; print a flat profile on exit
///   --trace-out=FILE     also write the chrome://tracing JSON
///   --log-level=LEVEL    SetMinLogLevel (debug|info|warning|error|fatal)
struct ObsFlags {
  std::string metrics_out;
  std::string trace_out;
  bool trace = false;
};

/// Strips the recognized flags from `args` (unrecognized entries are kept
/// in order) and applies the immediate ones: --log-level takes effect here,
/// and --trace/--trace-out turn span event recording on.
ObsFlags ConsumeObsFlags(std::vector<std::string>& args);

/// argc/argv variant for plain main()s; rewrites argv in place.
ObsFlags ParseObsFlags(int& argc, char** argv);

/// Emits everything `flags` asked for: the metrics JSON file, the trace
/// JSON file, and (under --trace) the flat span profile on stdout. Returns
/// false if a file could not be written.
bool EmitObsOutputs(const ObsFlags& flags);

}  // namespace qec::eval

#endif  // QEC_EVAL_OBS_REPORT_H_
