// Open-loop load generator. One thread writes request lines on a fixed
// schedule over a few nonblocking loopback connections and reads the
// responses between sends, so a slow server never delays later sends.
// Latency is taken from each request's scheduled send time, which charges
// a server stall to every request scheduled during it (no coordinated
// omission); how late the generator itself ran is recorded per request.
#ifndef PIPEBENCH_LOADGEN_H_
#define PIPEBENCH_LOADGEN_H_

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace pipebench {

struct OpenLoopOptions {
  uint16_t port = 0;
  /// Request i is due i / rate_per_second seconds after the start.
  double rate_per_second = 100.0;
  /// Request i goes to connection i % connections; the server answers a
  /// connection's requests in order.
  size_t connections = 1;
  /// Request index at whose send the process CPU time is sampled (the
  /// start of a measured window); out of range disables.
  size_t cpu_mark = std::numeric_limits<size_t>::max();
};

/// One request. Times are nanoseconds after the schedule origin; -1 means
/// never.
struct OpenLoopRecord {
  int64_t due_ns = 0;
  int64_t sent_ns = -1;
  int64_t done_ns = -1;
  std::string response;
};

struct OpenLoopRun {
  std::vector<OpenLoopRecord> records;
  /// Process CPU seconds when request `cpu_mark` was sent and when the
  /// last response arrived.
  double cpu_at_mark = 0.0;
  double cpu_at_end = 0.0;
  /// Empty when every request was sent and answered.
  std::string error;
};

/// Sends `lines` (without terminators) to 127.0.0.1:`options.port` and
/// collects one response line per request.
OpenLoopRun RunOpenLoop(const std::vector<std::string>& lines,
                        const OpenLoopOptions& options);

/// A blocking TCP_NODELAY connection to 127.0.0.1:`port`; -1 on failure.
int ConnectLoopback(uint16_t port);

}  // namespace pipebench

#endif  // PIPEBENCH_LOADGEN_H_
