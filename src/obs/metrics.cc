#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>

#include "obs/json.h"

namespace qec::obs {

void Gauge::Add(double delta) {
  double cur = value_.load(std::memory_order_relaxed);
  while (!value_.compare_exchange_weak(cur, cur + delta,
                                       std::memory_order_relaxed)) {
  }
}

void Histogram::Record(uint64_t value) {
  buckets_[std::bit_width(value)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  uint64_t cur = min_.load(std::memory_order_relaxed);
  while (value < cur &&
         !min_.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
  cur = max_.load(std::memory_order_relaxed);
  while (value > cur &&
         !max_.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

void Histogram::Record(uint64_t value, uint64_t exemplar_trace_id) {
  Record(value);
  if (exemplar_trace_id == 0) return;
  const uint64_t now_ms = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
  std::lock_guard<std::mutex> lock(exemplar_mu_);
  exemplars_[std::bit_width(value)] = {exemplar_trace_id, value, now_ms};
}

Exemplar Histogram::BucketExemplar(size_t i) const {
  if (i >= kNumBuckets) return {};
  std::lock_guard<std::mutex> lock(exemplar_mu_);
  return exemplars_[i];
}

uint64_t Histogram::min() const {
  uint64_t v = min_.load(std::memory_order_relaxed);
  return v == UINT64_MAX ? 0 : v;
}

uint64_t Histogram::BucketUpperBound(size_t i) {
  if (i == 0) return 0;
  if (i >= 64) return UINT64_MAX;
  return (uint64_t{1} << i) - 1;
}

std::vector<double> Histogram::Percentiles(std::initializer_list<double> qs,
                                           BucketCounts* buckets) const {
  // Every percentile reads the same local copy: concurrent Record()s may
  // land between the bucket loads, but never between two percentiles.
  BucketCounts copy;
  uint64_t total = 0;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    copy[i] = buckets_[i].load(std::memory_order_relaxed);
    total += copy[i];
  }
  if (buckets != nullptr) *buckets = copy;
  if (total == 0) return std::vector<double>(qs.size(), 0.0);
  std::vector<double> out;
  out.reserve(qs.size());
  for (double q : qs) {
    q = std::clamp(q, 0.0, 100.0);
    const double target = q / 100.0 * static_cast<double>(total);
    double cumulative = 0.0;
    double value = static_cast<double>(max());
    for (size_t i = 0; i < kNumBuckets; ++i) {
      if (copy[i] == 0) continue;
      const double next = cumulative + static_cast<double>(copy[i]);
      if (next >= target) {
        const double lower =
            i == 0 ? 0.0 : static_cast<double>(BucketUpperBound(i - 1)) + 1.0;
        const double upper = static_cast<double>(BucketUpperBound(i));
        const double frac = std::clamp(
            (target - cumulative) / static_cast<double>(copy[i]), 0.0, 1.0);
        value = lower + frac * (upper - lower);
        break;
      }
      cumulative = next;
    }
    out.push_back(value);
  }
  return out;
}

void Histogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  min_.store(UINT64_MAX, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(exemplar_mu_);
  for (auto& e : exemplars_) e = {};
}

MetricsRegistry& MetricsRegistry::Global() {
  // Leaked so handles cached in static locals outlive any destructor order.
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter* MetricsRegistry::GetCounter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return it->second.get();
}

Gauge* MetricsRegistry::GetGauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return it->second.get();
}

Histogram* MetricsRegistry::GetHistogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return it->second.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) {
    snap.counters.emplace_back(name, c->value());
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) {
    snap.gauges.emplace_back(name, g->value());
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    HistogramSnapshot hs;
    hs.name = name;
    hs.count = h->count();
    hs.sum = h->sum();
    hs.min = h->min();
    hs.max = h->max();
    // Percentiles and bucket counts come from one read of the buckets, so
    // a snapshot taken while records arrive is self-consistent.
    Histogram::BucketCounts counts;
    const std::vector<double> p = h->Percentiles({50.0, 95.0, 99.0}, &counts);
    hs.p50 = p[0];
    hs.p95 = p[1];
    hs.p99 = p[2];
    for (size_t i = 0; i < Histogram::kNumBuckets; ++i) {
      const uint64_t n = counts[i];
      if (n == 0) continue;
      hs.buckets.emplace_back(Histogram::BucketUpperBound(i), n);
      Exemplar ex = h->BucketExemplar(i);
      if (ex.trace_id != 0) {
        hs.exemplars.push_back({Histogram::BucketUpperBound(i), ex});
      }
    }
    snap.histograms.push_back(std::move(hs));
  }
  return snap;
}

void MetricsRegistry::ResetAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->Reset();
  for (auto& [name, g] : gauges_) g->Reset();
  for (auto& [name, h] : histograms_) h->Reset();
}

std::string MetricsSnapshot::ToJson() const {
  std::string out = "{\n  \"counters\": {";
  for (size_t i = 0; i < counters.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    out += "    " + json::Quote(counters[i].first) + ": " +
           std::to_string(counters[i].second);
  }
  out += counters.empty() ? "},\n" : "\n  },\n";

  out += "  \"gauges\": {";
  for (size_t i = 0; i < gauges.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    out += "    " + json::Quote(gauges[i].first) + ": " +
           json::NumberToString(gauges[i].second);
  }
  out += gauges.empty() ? "},\n" : "\n  },\n";

  out += "  \"histograms\": {";
  for (size_t i = 0; i < histograms.size(); ++i) {
    const HistogramSnapshot& h = histograms[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    " + json::Quote(h.name) + ": {";
    out += "\"count\": " + std::to_string(h.count);
    out += ", \"sum\": " + std::to_string(h.sum);
    out += ", \"min\": " + std::to_string(h.min);
    out += ", \"max\": " + std::to_string(h.max);
    out += ", \"p50\": " + json::NumberToString(h.p50);
    out += ", \"p95\": " + json::NumberToString(h.p95);
    out += ", \"p99\": " + json::NumberToString(h.p99);
    out += ", \"buckets\": [";
    for (size_t b = 0; b < h.buckets.size(); ++b) {
      if (b > 0) out += ", ";
      out += '[';
      out += std::to_string(h.buckets[b].first);
      out += ", ";
      out += std::to_string(h.buckets[b].second);
      out += ']';
    }
    out += "]}";
  }
  out += histograms.empty() ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

}  // namespace qec::obs
