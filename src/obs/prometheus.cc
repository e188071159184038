#include "obs/prometheus.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/simd_kernels.h"
#include "common/sweep_pool.h"
#include "obs/json.h"
#include "obs/process_collector.h"

namespace qec::obs {

namespace {

bool IsNameChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_';
}

/// Counters are exported with the conventional `_total` suffix.
std::string CounterName(std::string_view name) {
  std::string out = PrometheusName(name);
  const std::string_view suffix = "_total";
  if (out.size() < suffix.size() ||
      out.compare(out.size() - suffix.size(), suffix.size(), suffix) != 0) {
    out += suffix;
  }
  return out;
}

void AppendSample(std::string& out, const std::string& name,
                  std::string_view label_key, const std::string& label_value,
                  const std::string& value) {
  out += name;
  if (!label_key.empty()) {
    out += '{';
    out += label_key;
    out += "=\"";
    out += label_value;
    out += "\"}";
  }
  out += ' ';
  out += value;
  out += '\n';
}

/// 16 lowercase hex digits, matching the server layer's trace-id rendering
/// (obs can't depend on server, so the formatter is duplicated here).
std::string TraceIdHex(uint64_t id) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(id));
  return std::string(buf, 16);
}

/// Milliseconds since the epoch as OpenMetrics seconds ("1754700000.123").
std::string UnixMsToSeconds(uint64_t unix_ms) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu.%03llu",
                static_cast<unsigned long long>(unix_ms / 1000),
                static_cast<unsigned long long>(unix_ms % 1000));
  return std::string(buf);
}

/// One `_bucket{le="..."}` line, with the OpenMetrics exemplar tail when
/// the bucket has a traced observation.
void AppendBucket(std::string& out, const std::string& family,
                  const std::string& le, uint64_t cumulative,
                  const Exemplar* exemplar) {
  out += family;
  out += "_bucket{le=\"";
  out += le;
  out += "\"} ";
  out += std::to_string(cumulative);
  if (exemplar != nullptr && exemplar->trace_id != 0) {
    out += " # {trace_id=\"";
    out += TraceIdHex(exemplar->trace_id);
    out += "\"} ";
    out += std::to_string(exemplar->value);
    out += ' ';
    out += UnixMsToSeconds(exemplar->unix_ms);
  }
  out += '\n';
}

}  // namespace

// Build metadata injected by src/obs/CMakeLists.txt; the fallbacks cover
// builds that bypass CMake (e.g. direct compiler invocations in tooling).
#ifndef QEC_VERSION
#define QEC_VERSION "unknown"
#endif
#ifndef QEC_GIT_DESCRIBE
#define QEC_GIT_DESCRIBE "unknown"
#endif

BuildInfo GetBuildInfo() {
  BuildInfo info;
  info.version = QEC_VERSION;
  info.git = QEC_GIT_DESCRIBE;
#if defined(__POPCNT__)
  info.popcount = true;
#endif
#ifndef QEC_DISABLE_TRACING
  info.tracing = true;
#endif
  // The bitset-kernel implementation, kept as a label so dashboards and
  // scrapers that read it keep working.
  info.kernel_tier = simd::ActiveTierName();
  return info;
}

std::string PrometheusBuildInfo() {
  const BuildInfo info = GetBuildInfo();
  std::string out = "# TYPE qec_build_info gauge\n";
  out += "qec_build_info{version=\"" + info.version + "\",git=\"" + info.git +
         "\",popcount=\"";
  out += info.popcount ? "on" : "off";
  out += "\",tracing=\"";
  out += info.tracing ? "on" : "off";
  out += "\",kernel=\"";
  out += info.kernel_tier;
  out += "\"} 1\n";
  return out;
}

std::string PrometheusSweepPool() {
  const common::SweepPool::Stats s = common::SweepPool::Instance().GetStats();
  std::string out = "# TYPE qec_sweep_pool_runs_total counter\n";
  out += "qec_sweep_pool_runs_total " + std::to_string(s.runs) + "\n";
  out += "# TYPE qec_sweep_pool_spawns_total counter\n";
  out += "qec_sweep_pool_spawns_total " + std::to_string(s.spawns) + "\n";
  out += "# TYPE qec_sweep_pool_reuses_total counter\n";
  out += "qec_sweep_pool_reuses_total " + std::to_string(s.reuses) + "\n";
  return out;
}

std::string PrometheusName(std::string_view name) {
  std::string out = "qec_";
  out.reserve(out.size() + name.size());
  for (char c : name) out.push_back(IsNameChar(c) ? c : '_');
  return out;
}

std::string WritePrometheus(const MetricsSnapshot& snapshot) {
  std::string out = PrometheusBuildInfo();
  out += PrometheusSweepPool();
  for (const auto& [name, value] : snapshot.counters) {
    const std::string prom = CounterName(name);
    out += "# TYPE " + prom + " counter\n";
    AppendSample(out, prom, "", "", std::to_string(value));
  }
  for (const auto& [name, value] : snapshot.gauges) {
    const std::string prom = PrometheusName(name);
    out += "# TYPE " + prom + " gauge\n";
    AppendSample(out, prom, "", "", json::NumberToString(value));
  }
  for (const HistogramSnapshot& h : snapshot.histograms) {
    const std::string prom = PrometheusName(h.name);
    out += "# TYPE " + prom + " histogram\n";
    // Registry buckets are (inclusive upper bound, count) for non-empty
    // buckets only; cumulating them yields exact `le` counts because the
    // bounds are inclusive. Exemplars arrive sorted by the same upper
    // bounds, so one forward cursor pairs them up.
    uint64_t cumulative = 0;
    size_t ex_i = 0;
    for (const auto& [upper, count] : h.buckets) {
      cumulative += count;
      while (ex_i < h.exemplars.size() && h.exemplars[ex_i].upper < upper) {
        ++ex_i;
      }
      const Exemplar* exemplar =
          ex_i < h.exemplars.size() && h.exemplars[ex_i].upper == upper
              ? &h.exemplars[ex_i].exemplar
              : nullptr;
      AppendBucket(out, prom, std::to_string(upper), cumulative, exemplar);
    }
    AppendBucket(out, prom, "+Inf", h.count, nullptr);
    AppendSample(out, prom + "_sum", "", "", std::to_string(h.sum));
    AppendSample(out, prom + "_count", "", "", std::to_string(h.count));
  }
  out += "# EOF\n";
  return out;
}

std::string PrometheusSnapshot() {
  std::string out = WritePrometheus(MetricsRegistry::Global().Snapshot());
  // Splice the live qec_process_* families in before the trailing # EOF so
  // the admin /metrics route (and the flusher file) expose process health
  // without WritePrometheus — a pure snapshot renderer — touching /proc.
  const std::string_view eof = "# EOF\n";
  if (out.size() >= eof.size() &&
      out.compare(out.size() - eof.size(), eof.size(), eof) == 0) {
    out.resize(out.size() - eof.size());
  }
  out += PrometheusProcess();
  out += "# EOF\n";
  return out;
}

std::string_view PrometheusSample::Label(std::string_view key) const {
  for (const auto& [k, v] : labels) {
    if (k == key) return v;
  }
  return {};
}

std::string_view PrometheusSample::ExemplarLabel(std::string_view key) const {
  for (const auto& [k, v] : exemplar_labels) {
    if (k == key) return v;
  }
  return {};
}

namespace {

/// True when `sample` belongs to the family `family`: exact match or a
/// recognized suffix.
bool BelongsTo(std::string_view sample, std::string_view family) {
  if (sample == family) return true;
  if (sample.size() <= family.size() ||
      sample.compare(0, family.size(), family) != 0) {
    return false;
  }
  const std::string_view suffix = sample.substr(family.size());
  return suffix == "_bucket" || suffix == "_sum" || suffix == "_count" ||
         suffix == "_total";
}

Status BadLine(size_t line_no, const std::string& why) {
  return Status::InvalidArgument("prometheus text line " +
                                 std::to_string(line_no) + ": " + why);
}

/// Parses a `{key="value",...}` label set starting at the '{' at `i`,
/// leaving `i` one past the closing '}'. Shared by the sample label set
/// and the exemplar label set.
Status ParseLabelSet(std::string_view line, size_t& i, size_t line_no,
                     std::vector<std::pair<std::string, std::string>>* out) {
  ++i;  // '{'
  while (i < line.size() && line[i] != '}') {
    size_t key_start = i;
    while (i < line.size() && IsNameChar(line[i])) ++i;
    if (i == key_start || i >= line.size() || line[i] != '=') {
      return BadLine(line_no, "malformed label");
    }
    std::string key(line.substr(key_start, i - key_start));
    ++i;  // '='
    if (i >= line.size() || line[i] != '"') {
      return BadLine(line_no, "label value must be quoted");
    }
    ++i;  // opening quote
    std::string value;
    while (i < line.size() && line[i] != '"') {
      if (line[i] == '\\') {
        ++i;
        if (i >= line.size()) break;
        switch (line[i]) {
          case 'n':
            value.push_back('\n');
            break;
          case '\\':
            value.push_back('\\');
            break;
          case '"':
            value.push_back('"');
            break;
          default:
            return BadLine(line_no, "bad label escape");
        }
        ++i;
      } else {
        value.push_back(line[i]);
        ++i;
      }
    }
    if (i >= line.size()) return BadLine(line_no, "unterminated label");
    ++i;  // closing quote
    out->emplace_back(std::move(key), std::move(value));
    if (i < line.size() && line[i] == ',') ++i;
  }
  if (i >= line.size()) return BadLine(line_no, "unterminated label set");
  ++i;  // '}'
  return Status::Ok();
}

/// Parses a sample value token ("+Inf"/"-Inf"/decimal) starting at `i`,
/// leaving `i` one past the token.
Status ParseValueToken(std::string_view line, size_t& i, size_t line_no,
                       double* out) {
  size_t end = line.find(' ', i);
  if (end == std::string_view::npos) end = line.size();
  const std::string text(line.substr(i, end - i));
  if (text.empty()) return BadLine(line_no, "missing sample value");
  if (text == "+Inf") {
    *out = HUGE_VAL;
  } else if (text == "-Inf") {
    *out = -HUGE_VAL;
  } else {
    char* parse_end = nullptr;
    *out = std::strtod(text.c_str(), &parse_end);
    if (parse_end != text.c_str() + text.size()) {
      return BadLine(line_no, "bad sample value '" + text + "'");
    }
  }
  i = end;
  return Status::Ok();
}

}  // namespace

Result<std::vector<PrometheusFamily>> ParsePrometheusText(
    std::string_view text) {
  std::vector<PrometheusFamily> families;
  size_t line_no = 0;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t end = text.find('\n', pos);
    if (end == std::string_view::npos) end = text.size();
    std::string_view line = text.substr(pos, end - pos);
    pos = end + 1;
    ++line_no;
    // Trim trailing CR and surrounding spaces.
    while (!line.empty() && (line.back() == '\r' || line.back() == ' ')) {
      line.remove_suffix(1);
    }
    while (!line.empty() && line.front() == ' ') line.remove_prefix(1);
    if (line.empty()) continue;

    if (line[0] == '#') {
      // "# TYPE <name> <type>" starts a family; all other comments
      // (# HELP, # EOF, free-form) are skipped.
      std::string_view rest = line.substr(1);
      while (!rest.empty() && rest.front() == ' ') rest.remove_prefix(1);
      if (rest.compare(0, 5, "TYPE ") != 0) continue;
      rest.remove_prefix(5);
      const size_t space = rest.find(' ');
      if (space == std::string_view::npos || space == 0) {
        return BadLine(line_no, "malformed # TYPE");
      }
      PrometheusFamily family;
      family.name = std::string(rest.substr(0, space));
      family.type = std::string(rest.substr(space + 1));
      if (family.type.empty()) return BadLine(line_no, "missing type");
      families.push_back(std::move(family));
      continue;
    }

    // Sample line: name[{labels}] value [timestamp].
    size_t i = 0;
    while (i < line.size() && IsNameChar(line[i])) ++i;
    if (i == 0) return BadLine(line_no, "expected metric name");
    PrometheusSample sample;
    sample.name = std::string(line.substr(0, i));

    if (i < line.size() && line[i] == '{') {
      Status st = ParseLabelSet(line, i, line_no, &sample.labels);
      if (!st.ok()) return st;
    }

    while (i < line.size() && line[i] == ' ') ++i;
    if (i >= line.size()) return BadLine(line_no, "missing sample value");
    {
      Status st = ParseValueToken(line, i, line_no, &sample.value);
      if (!st.ok()) return st;
    }

    // Optional tail: a plain timestamp token, then an OpenMetrics
    // exemplar `# {labels} value [timestamp]`.
    while (i < line.size() && line[i] == ' ') ++i;
    if (i < line.size() && line[i] != '#') {
      // Sample timestamp: accepted and ignored (we never emit one).
      while (i < line.size() && line[i] != ' ') ++i;
      while (i < line.size() && line[i] == ' ') ++i;
    }
    if (i < line.size() && line[i] == '#') {
      ++i;  // '#'
      while (i < line.size() && line[i] == ' ') ++i;
      if (i >= line.size() || line[i] != '{') {
        return BadLine(line_no, "exemplar must start with a label set");
      }
      Status st = ParseLabelSet(line, i, line_no, &sample.exemplar_labels);
      if (!st.ok()) return st;
      while (i < line.size() && line[i] == ' ') ++i;
      if (i >= line.size()) return BadLine(line_no, "missing exemplar value");
      st = ParseValueToken(line, i, line_no, &sample.exemplar_value);
      if (!st.ok()) return st;
      while (i < line.size() && line[i] == ' ') ++i;
      if (i < line.size()) {
        st = ParseValueToken(line, i, line_no, &sample.exemplar_timestamp);
        if (!st.ok()) return st;
      }
      sample.has_exemplar = true;
    }

    if (families.empty() || !BelongsTo(sample.name, families.back().name)) {
      return BadLine(line_no,
                     "sample '" + sample.name + "' has no preceding # TYPE");
    }
    families.back().samples.push_back(std::move(sample));
  }
  return families;
}

Status ValidatePrometheusHistograms(
    const std::vector<PrometheusFamily>& families) {
  for (const PrometheusFamily& family : families) {
    if (family.type != "histogram") continue;
    double last_bucket = -1.0;
    bool saw_inf = false;
    double inf_count = -1.0;
    double count = -1.0;
    for (const PrometheusSample& sample : family.samples) {
      if (sample.name == family.name + "_bucket") {
        if (saw_inf) {
          return Status::InvalidArgument(family.name +
                                         ": bucket after le=\"+Inf\"");
        }
        if (sample.value < last_bucket) {
          return Status::InvalidArgument(
              family.name + ": cumulative buckets must be non-decreasing");
        }
        last_bucket = sample.value;
        const std::string_view le = sample.Label("le");
        if (le == "+Inf") {
          saw_inf = true;
          inf_count = sample.value;
        }
        if (sample.has_exemplar && le != "+Inf") {
          const double bound = std::strtod(std::string(le).c_str(), nullptr);
          if (sample.exemplar_value > bound) {
            return Status::InvalidArgument(
                family.name + ": exemplar value above its bucket's le bound");
          }
        }
      } else if (sample.name == family.name + "_count") {
        count = sample.value;
      }
    }
    if (!saw_inf) {
      return Status::InvalidArgument(family.name +
                                     ": histogram missing le=\"+Inf\" bucket");
    }
    if (count != inf_count) {
      return Status::InvalidArgument(family.name +
                                     ": _count != le=\"+Inf\" bucket");
    }
  }
  return Status::Ok();
}

namespace {

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool IsLegalMetricName(std::string_view name) {
  if (name.empty()) return false;
  if (name[0] >= '0' && name[0] <= '9') return false;
  for (char c : name) {
    if (!IsNameChar(c)) return false;
  }
  return true;
}

}  // namespace

Status LintPrometheusNaming(const std::vector<PrometheusFamily>& families) {
  for (const PrometheusFamily& family : families) {
    if (!IsLegalMetricName(family.name)) {
      return Status::InvalidArgument("family '" + family.name +
                                     "': illegal metric name");
    }
    if (family.type == "counter") {
      if (!EndsWith(family.name, "_total")) {
        return Status::InvalidArgument(
            "counter '" + family.name + "': name must end in _total");
      }
      for (const PrometheusSample& sample : family.samples) {
        if (sample.name != family.name) {
          return Status::InvalidArgument("counter '" + family.name +
                                         "': sample '" + sample.name +
                                         "' must match the family name");
        }
      }
    } else if (family.type == "histogram") {
      for (const std::string_view reserved :
           {"_total", "_bucket", "_sum", "_count"}) {
        if (EndsWith(family.name, reserved)) {
          return Status::InvalidArgument(
              "histogram '" + family.name + "': family name carries the "
              "reserved suffix '" + std::string(reserved) + "'");
        }
      }
      bool saw_bucket = false, saw_sum = false, saw_count = false;
      for (const PrometheusSample& sample : family.samples) {
        if (sample.name == family.name + "_bucket") {
          saw_bucket = true;
          if (sample.Label("le").empty()) {
            return Status::InvalidArgument(
                "histogram '" + family.name + "': _bucket without le label");
          }
        } else if (sample.name == family.name + "_sum") {
          saw_sum = true;
        } else if (sample.name == family.name + "_count") {
          saw_count = true;
        } else {
          return Status::InvalidArgument(
              "histogram '" + family.name + "': unexpected sample '" +
              sample.name + "'");
        }
      }
      if (!saw_bucket || !saw_sum || !saw_count) {
        return Status::InvalidArgument(
            "histogram '" + family.name +
            "': must emit _bucket, _sum, and _count");
      }
    } else if (family.type == "gauge") {
      if (EndsWith(family.name, "_total")) {
        return Status::InvalidArgument(
            "gauge '" + family.name + "': _total suffix is reserved for "
            "counters");
      }
    }
  }
  return Status::Ok();
}

}  // namespace qec::obs
