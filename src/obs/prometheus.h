#ifndef QEC_OBS_PROMETHEUS_H_
#define QEC_OBS_PROMETHEUS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"

namespace qec::obs {

/// `name` mapped to a legal Prometheus metric name: "qec_" prefix, every
/// character outside [a-zA-Z0-9_] replaced by '_'. "server/queue_wait_ns"
/// becomes "qec_server_queue_wait_ns". (Two registry names that differ only
/// in separators collide; keep registry names unambiguous.)
std::string PrometheusName(std::string_view name);

/// Build metadata as structured fields (the label values of
/// `qec_build_info`), for JSON surfaces like the admin /statusz route.
struct BuildInfo {
  std::string version;
  std::string git;
  bool popcount = false;
  bool tracing = false;
  /// Bitset-kernel tier. Always "scalar" (the only tier); kept as a field
  /// and label for existing scrapers.
  std::string kernel_tier;
};

BuildInfo GetBuildInfo();

/// The `qec_build_info` gauge (its `# TYPE` line plus one sample of value
/// 1) carrying build metadata as labels: library version, `git describe`
/// output when the build tree had git available, the popcount/tracing
/// compile flags, and the bitset-kernel tier (`kernel="scalar"`, the only
/// tier, kept for existing scrapers). Emitted at the top of every
/// WritePrometheus exposition so dashboards can correlate a regression with
/// the build that shipped it.
std::string PrometheusBuildInfo();

/// Persistent sweep-pool counters (`qec_sweep_pool_{runs,spawns,reuses}_total`)
/// in exposition format. Steady state is reuses climbing while spawns stay
/// flat — a growing spawn rate means sweeps keep outsizing the pool.
std::string PrometheusSweepPool();

/// Renders a snapshot in Prometheus text exposition format:
///   - counters as `<name>_total` with a `# TYPE ... counter` line,
///   - gauges with `# TYPE ... gauge`,
///   - histograms as cumulative `_bucket{le="..."}` series (always ending
///     in `le="+Inf"`) plus `_sum` and `_count`, `# TYPE ... histogram`.
/// Buckets whose histogram recorded a traced observation carry an
/// OpenMetrics exemplar: ` # {trace_id="<16-hex>"} <value> <unix seconds>`
/// appended to the `_bucket` line, linking the bucket to its
/// flight-recorder record. The output ends with a `# EOF` line, as
/// OpenMetrics requires of the admin /metrics route's body.
std::string WritePrometheus(const MetricsSnapshot& snapshot);

/// WritePrometheus over the full live registry, plus the `qec_process_*`
/// families sampled live from /proc (see process_collector.h).
std::string PrometheusSnapshot();

/// One parsed sample line: `name{labels} value [# {exemplar} value [ts]]`.
struct PrometheusSample {
  std::string name;
  /// Label pairs in source order (empty when the sample has no label set).
  std::vector<std::pair<std::string, std::string>> labels;
  double value = 0.0;

  /// OpenMetrics exemplar parsed from the ` # {...} value [timestamp]`
  /// tail, when present (timestamp 0 when the exemplar carried none).
  bool has_exemplar = false;
  std::vector<std::pair<std::string, std::string>> exemplar_labels;
  double exemplar_value = 0.0;
  double exemplar_timestamp = 0.0;

  /// Value of label `key`, or "" when absent.
  std::string_view Label(std::string_view key) const;
  /// Value of exemplar label `key`, or "" when absent.
  std::string_view ExemplarLabel(std::string_view key) const;
};

/// One metric family: a `# TYPE` line and the samples grouped under it.
struct PrometheusFamily {
  std::string name;
  std::string type;  // "counter", "gauge", "histogram", ...
  std::vector<PrometheusSample> samples;
};

/// Parses Prometheus text exposition format. Every sample must belong to
/// the most recent `# TYPE` family (exact name match, or the family name
/// plus a `_bucket`/`_sum`/`_count`/`_total` suffix); anything else is an
/// InvalidArgument. `# HELP`, other comments, and `# EOF` are skipped.
Result<std::vector<PrometheusFamily>> ParsePrometheusText(
    std::string_view text);

/// Validates the histogram invariants of a parsed exposition: each
/// histogram family has monotonically non-decreasing cumulative buckets,
/// a final `le="+Inf"` bucket, `_count` equal to that bucket, and every
/// bucket exemplar's value within its bucket's `le` bound.
Status ValidatePrometheusHistograms(
    const std::vector<PrometheusFamily>& families);

/// Naming-convention lint over a parsed exposition (the `qec_cli
/// metrics-lint` subcommand): counter families end `_total` and their
/// samples match the family name exactly; histogram families carry no
/// reserved suffix and emit at least one `_bucket` (each with an `le`
/// label), `_sum`, and `_count`; gauge families don't end `_total`; all
/// family names are legal metric names. Returns the first violation.
Status LintPrometheusNaming(const std::vector<PrometheusFamily>& families);

}  // namespace qec::obs

#endif  // QEC_OBS_PROMETHEUS_H_
