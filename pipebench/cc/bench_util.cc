#include "bench_util.h"

#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "common/logging.h"
#include "obs/json.h"

namespace pipebench {

namespace {

bool SameQuality(const qec::core::QueryQuality& a,
                 const qec::core::QueryQuality& b) {
  return a.precision == b.precision && a.recall == b.recall &&
         a.f_measure == b.f_measure;
}

bool SameIskr(const qec::core::IskrStats& a, const qec::core::IskrStats& b) {
  return a.steps == b.steps && a.additions == b.additions &&
         a.removals == b.removals &&
         a.candidates_evaluated == b.candidates_evaluated;
}

bool SamePebc(const qec::core::PebcStats& a, const qec::core::PebcStats& b) {
  return a.samples_drawn == b.samples_drawn && a.rounds == b.rounds &&
         a.intervals_zoomed == b.intervals_zoomed &&
         a.candidates_evaluated == b.candidates_evaluated &&
         a.best_target_percent == b.best_target_percent;
}

}  // namespace

double ProcessCpuSeconds() {
  timespec ts = {};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

size_t RankIndex(size_t n, double q) {
  // The epsilon keeps a q * n that lands a rounding error above an
  // integer (0.07 * 100 = 7.000000000000001) on that integer.
  const double rank = std::ceil(q * static_cast<double>(n) - 1e-9);
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return std::min(index, n - 1);
}

size_t SamplesBeyond(size_t n, double q) {
  return n == 0 ? 0 : n - 1 - RankIndex(n, q);
}

Sample PercentileSample(std::vector<Sample>* samples, double q) {
  std::sort(samples->begin(), samples->end(),
            [](const Sample& a, const Sample& b) {
              return a.ms != b.ms ? a.ms < b.ms : a.query < b.query;
            });
  return (*samples)[RankIndex(samples->size(), q)];
}

int32_t SpanRecorder::Begin(const char* name, uint64_t request) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.request = request;
  spans_.push_back(span);
  const int32_t index = static_cast<int32_t>(spans_.size() - 1);
  open_.push_back(index);
  // Stamp last so the recorder's own bookkeeping stays outside the span.
  spans_.back().start_ns = NowNs();
  return index;
}

void SpanRecorder::End(int32_t index) {
  const int64_t now = NowNs();
  QEC_CHECK(!open_.empty() && open_.back() == index);
  spans_[static_cast<size_t>(index)].end_ns = now;
  open_.pop_back();
}

std::map<std::string, SpanTotals> SpanRecorder::Totals() const {
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_ns[static_cast<size_t>(span.parent)] +=
          static_cast<double>(span.end_ns - span.start_ns);
    }
  }
  std::map<std::string, SpanTotals> totals;
  std::map<std::string, uint64_t> last_request;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    const double duration = static_cast<double>(span.end_ns - span.start_ns);
    SpanTotals& t = totals[span.name];
    t.total_ns += duration;
    t.self_ns += duration - child_ns[i];
    ++t.spans;
    // Requests are numbered in order, so a new id means a new request.
    auto [it, inserted] = last_request.emplace(span.name, span.request);
    if (inserted || it->second != span.request) {
      it->second = span.request;
      ++t.requests;
    }
  }
  return totals;
}

bool SpanRecorder::WriteJsonLines(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& span : spans_) {
    std::fprintf(f, "[\"%s\",%lld,%lld,%d,%llu]\n", span.name,
                 static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns), span.parent,
                 static_cast<unsigned long long>(span.request));
  }
  return std::fclose(f) == 0;
}

bool SameOutcome(const qec::core::ExpansionOutcome& a,
                 const qec::core::ExpansionOutcome& b) {
  if (a.num_clusters != b.num_clusters ||
      a.num_results_used != b.num_results_used ||
      a.set_score != b.set_score || a.queries.size() != b.queries.size() ||
      !SameIskr(a.iskr_stats, b.iskr_stats) ||
      !SamePebc(a.pebc_stats, b.pebc_stats)) {
    return false;
  }
  for (size_t i = 0; i < a.queries.size(); ++i) {
    const qec::core::ExpandedQuery& x = a.queries[i];
    const qec::core::ExpandedQuery& y = b.queries[i];
    if (x.terms != y.terms || x.keywords != y.keywords ||
        !SameQuality(x.quality, y.quality) ||
        x.cluster_index != y.cluster_index ||
        x.cluster_size != y.cluster_size || x.iterations != y.iterations ||
        x.value_recomputations != y.value_recomputations) {
      return false;
    }
  }
  return true;
}

void ResultLine::Metric(const std::string& name, double value,
                        const std::string& unit) {
  if (!std::isfinite(value)) {
    Error("metric " + name + " is not finite");
    value = 0.0;
  }
  if (!metrics_.empty()) metrics_ += ",";
  metrics_ += qec::obs::json::Quote(name) + ":{\"value\":" +
              qec::obs::json::NumberToString(value) +
              ",\"unit\":" + qec::obs::json::Quote(unit) + "}";
}

void ResultLine::Detail(const std::string& key, const std::string& json) {
  if (!details_.empty()) details_ += ",";
  details_ += qec::obs::json::Quote(key) + ":" + json;
}

void ResultLine::Error(const std::string& message) {
  errors_.push_back(message);
}

std::string ResultLine::Render(uint64_t attempted, uint64_t failed) const {
  const bool correct = errors_.empty() && failed == 0 && attempted > 0;
  std::string out = "{\"correct\":";
  out += correct ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(attempted);
  out += ",\"failed\":" + std::to_string(failed);
  out += ",\"metrics\":{" + metrics_ + "}";
  out += ",\"detail\":{" + details_ + "}";
  out += ",\"errors\":[";
  for (size_t i = 0; i < errors_.size(); ++i) {
    if (i > 0) out += ",";
    out += qec::obs::json::Quote(errors_[i]);
  }
  out += "]}";
  return out;
}

}  // namespace pipebench
