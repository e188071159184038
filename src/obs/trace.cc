#include "obs/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#if defined(__linux__)
#include <sys/syscall.h>
#include <unistd.h>
#endif

#include "obs/json.h"

namespace qec::obs {

namespace {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// One live span on a thread's stack: accumulated child wall time lets the
/// parent compute self time on close.
struct Frame {
  SpanSite* site;
  uint64_t start_ns;
  uint64_t child_ns = 0;
};

thread_local std::vector<Frame> tls_span_stack;

struct TraceEvent {
  const std::string* name;  // points at the (leaked) SpanSite name
  uint32_t tid;
  uint32_t depth;
  uint64_t start_ns;
  uint64_t dur_ns;
};

constexpr size_t kMaxTraceEvents = 65536;
std::atomic<bool> g_record_events{false};

std::mutex& SiteMutex() {
  static std::mutex* mu = new std::mutex();
  return *mu;
}

std::map<std::string, SpanSite*, std::less<>>& Sites() {
  static auto* sites = new std::map<std::string, SpanSite*, std::less<>>();
  return *sites;
}

std::mutex& EventMutex() {
  static std::mutex* mu = new std::mutex();
  return *mu;
}

std::vector<TraceEvent>& Events() {
  static auto* events = new std::vector<TraceEvent>();
  return *events;
}

}  // namespace

SpanSite::SpanSite(std::string name)
    : name_(std::move(name)),
      duration_hist_(
          MetricsRegistry::Global().GetHistogram("span/" + name_)) {}

SpanSite& GetSpanSite(std::string_view name) {
  std::lock_guard<std::mutex> lock(SiteMutex());
  auto& sites = Sites();
  auto it = sites.find(name);
  if (it == sites.end()) {
    it = sites.emplace(std::string(name), new SpanSite(std::string(name)))
             .first;
  }
  return *it->second;
}

ScopedSpan::ScopedSpan(SpanSite& site) : site_(&site), start_ns_(NowNs()) {
  tls_span_stack.push_back(Frame{site_, start_ns_});
}

ScopedSpan::~ScopedSpan() {
  const uint64_t end_ns = NowNs();
  const uint64_t dur = end_ns - start_ns_;
  // RAII guarantees strict nesting per thread, so the top frame is ours.
  const Frame frame = tls_span_stack.back();
  tls_span_stack.pop_back();
  const uint64_t self = dur > frame.child_ns ? dur - frame.child_ns : 0;
  if (!tls_span_stack.empty()) tls_span_stack.back().child_ns += dur;

  site_->count_.fetch_add(1, std::memory_order_relaxed);
  site_->total_ns_.fetch_add(dur, std::memory_order_relaxed);
  site_->self_ns_.fetch_add(self, std::memory_order_relaxed);
  site_->duration_hist_->Record(dur);

  if (g_record_events.load(std::memory_order_relaxed)) {
    std::lock_guard<std::mutex> lock(EventMutex());
    auto& events = Events();
    if (events.size() < kMaxTraceEvents) {
      events.push_back(TraceEvent{
          &site_->name(), CurrentOsThreadId(),
          static_cast<uint32_t>(tls_span_stack.size()), start_ns_, dur});
    }
  }
}

std::vector<SpanStats> SnapshotSpans() {
  std::vector<SpanStats> out;
  {
    std::lock_guard<std::mutex> lock(SiteMutex());
    out.reserve(Sites().size());
    for (const auto& [name, site] : Sites()) {
      SpanStats s;
      s.name = name;
      s.count = site->count();
      s.total_ns = site->total_ns();
      s.self_ns = site->self_ns();
      if (s.count > 0) out.push_back(std::move(s));
    }
  }
  std::sort(out.begin(), out.end(), [](const SpanStats& a, const SpanStats& b) {
    if (a.total_ns != b.total_ns) return a.total_ns > b.total_ns;
    return a.name < b.name;
  });
  return out;
}

void ResetSpans() {
  {
    std::lock_guard<std::mutex> lock(SiteMutex());
    for (auto& [name, site] : Sites()) {
      site->count_.store(0, std::memory_order_relaxed);
      site->total_ns_.store(0, std::memory_order_relaxed);
      site->self_ns_.store(0, std::memory_order_relaxed);
    }
  }
  ClearTraceEvents();
}

MetricsSnapshot CaptureMetrics() {
  MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  snap.spans = SnapshotSpans();
  return snap;
}

std::string SpanFlatProfile() {
  const std::vector<SpanStats> spans = SnapshotSpans();
  size_t width = 4;  // "span"
  for (const auto& s : spans) width = std::max(width, s.name.size());
  char line[256];
  std::snprintf(line, sizeof(line), "%-*s %10s %12s %12s %12s\n",
                static_cast<int>(width), "span", "count", "total_ms",
                "self_ms", "avg_ms");
  std::string out = line;
  for (const auto& s : spans) {
    std::snprintf(line, sizeof(line), "%-*s %10llu %12.3f %12.3f %12.3f\n",
                  static_cast<int>(width), s.name.c_str(),
                  static_cast<unsigned long long>(s.count),
                  static_cast<double>(s.total_ns) / 1e6,
                  static_cast<double>(s.self_ns) / 1e6,
                  s.count > 0 ? static_cast<double>(s.total_ns) / 1e6 /
                                    static_cast<double>(s.count)
                              : 0.0);
    out += line;
  }
  return out;
}

void SetTraceEventRecording(bool enabled) {
  g_record_events.store(enabled, std::memory_order_relaxed);
}

uint32_t CurrentOsThreadId() {
#if defined(__linux__)
  thread_local const uint32_t tid =
      static_cast<uint32_t>(::syscall(SYS_gettid));
#else
  thread_local const uint32_t tid = static_cast<uint32_t>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()));
#endif
  return tid;
}

uint32_t CurrentOsProcessId() {
#if defined(__linux__)
  static const uint32_t pid = static_cast<uint32_t>(::getpid());
  return pid;
#else
  return 1;
#endif
}

std::string TraceEventsJson() {
  std::lock_guard<std::mutex> lock(EventMutex());
  std::string out = "{\"traceEvents\": [";
  const auto& events = Events();
  const uint32_t pid = CurrentOsProcessId();
  char buf[256];
  for (size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    // "X" complete events; timestamps/durations in microseconds.
    std::snprintf(buf, sizeof(buf),
                  "%s\n  {\"name\": %s, \"cat\": \"qec\", \"ph\": \"X\", "
                  "\"ts\": %.3f, \"dur\": %.3f, \"pid\": %u, \"tid\": %u}",
                  i == 0 ? "" : ",",
                  json::Quote(*e.name).c_str(),
                  static_cast<double>(e.start_ns) / 1e3,
                  static_cast<double>(e.dur_ns) / 1e3, pid, e.tid);
    out += buf;
  }
  out += "\n]}\n";
  return out;
}

void ClearTraceEvents() {
  std::lock_guard<std::mutex> lock(EventMutex());
  Events().clear();
}

}  // namespace qec::obs
