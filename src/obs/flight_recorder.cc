#include "obs/flight_recorder.h"

#include <cstdio>
#include <cstdlib>
#include <utility>

#include "obs/json.h"

namespace qec::obs {

namespace {

std::string TraceIdHex(uint64_t id) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(id));
  return buf;
}

uint64_t ReadU64(const json::Value& object, std::string_view key) {
  const json::Value* v = object.Find(key);
  return v != nullptr && v->is_number() && v->number >= 0.0
             ? static_cast<uint64_t>(v->number)
             : 0;
}

std::string ReadString(const json::Value& object, std::string_view key) {
  const json::Value* v = object.Find(key);
  return v != nullptr && v->is_string() ? v->string : std::string();
}

double ReadDouble(const json::Value& object, std::string_view key,
                  double fallback) {
  const json::Value* v = object.Find(key);
  return v != nullptr && v->is_number() ? v->number : fallback;
}

}  // namespace

std::string RequestRecord::ToJsonLine() const {
  std::string out = "{\"trace_id\":";
  out += json::Quote(TraceIdHex(trace_id));
  out += ",\"unix_ms\":" + std::to_string(unix_ms);
  if (verb != "EXPAND") out += ",\"verb\":" + json::Quote(verb);
  out += ",\"query\":" + json::Quote(query);
  out += ",\"algo\":" + json::Quote(algo);
  out += ",\"status\":" + json::Quote(status);
  out += ",\"from_cache\":";
  out += from_cache ? "true" : "false";
  out += ",\"queue_wait_ns\":" + std::to_string(queue_wait_ns);
  out += ",\"cache_lookup_ns\":" + std::to_string(cache_lookup_ns);
  out += ",\"expansion_ns\":" + std::to_string(expansion_ns);
  out += ",\"serialize_ns\":" + std::to_string(serialize_ns);
  out += ",\"total_ns\":" + std::to_string(total_ns);
  out += ",\"iskr_steps\":" + std::to_string(iskr_steps);
  out += ",\"iskr_candidates_evaluated\":" +
         std::to_string(iskr_candidates_evaluated);
  out += ",\"pebc_samples_drawn\":" + std::to_string(pebc_samples_drawn);
  out += ",\"pebc_candidates_evaluated\":" +
         std::to_string(pebc_candidates_evaluated);
  if (set_score >= 0.0) {
    out += ",\"set_score\":" + json::NumberToString(set_score);
  }
  if (shadow_sampled) out += ",\"shadow_sampled\":true";
  if (!shadow_algo.empty()) {
    out += ",\"shadow_algo\":" + json::Quote(shadow_algo);
    out += ",\"shadow_set_score\":" + json::NumberToString(shadow_set_score);
    out += ",\"ab_winner\":" + json::Quote(ab_winner);
    out += ",\"shadow_expansion_ns\":" + std::to_string(shadow_expansion_ns);
  }
  out += "}";
  return out;
}

Result<RequestRecord> RequestRecordFromJson(std::string_view line) {
  auto doc = json::Parse(line);
  if (!doc.ok()) return doc.status();
  if (!doc->is_object()) {
    return Status::InvalidArgument("request record must be a JSON object");
  }
  RequestRecord r;
  const std::string trace_hex = ReadString(*doc, "trace_id");
  if (!trace_hex.empty()) {
    r.trace_id = std::strtoull(trace_hex.c_str(), nullptr, 16);
  }
  r.unix_ms = ReadU64(*doc, "unix_ms");
  if (std::string verb = ReadString(*doc, "verb"); !verb.empty()) {
    r.verb = std::move(verb);
  }
  r.query = ReadString(*doc, "query");
  r.algo = ReadString(*doc, "algo");
  r.status = ReadString(*doc, "status");
  const json::Value* cached = doc->Find("from_cache");
  r.from_cache = cached != nullptr && cached->boolean;
  r.queue_wait_ns = ReadU64(*doc, "queue_wait_ns");
  r.cache_lookup_ns = ReadU64(*doc, "cache_lookup_ns");
  r.expansion_ns = ReadU64(*doc, "expansion_ns");
  r.serialize_ns = ReadU64(*doc, "serialize_ns");
  r.total_ns = ReadU64(*doc, "total_ns");
  r.iskr_steps = ReadU64(*doc, "iskr_steps");
  r.iskr_candidates_evaluated = ReadU64(*doc, "iskr_candidates_evaluated");
  r.pebc_samples_drawn = ReadU64(*doc, "pebc_samples_drawn");
  r.pebc_candidates_evaluated = ReadU64(*doc, "pebc_candidates_evaluated");
  r.set_score = ReadDouble(*doc, "set_score", -1.0);
  const json::Value* sampled = doc->Find("shadow_sampled");
  r.shadow_sampled = sampled != nullptr && sampled->boolean;
  r.shadow_algo = ReadString(*doc, "shadow_algo");
  r.shadow_set_score = ReadDouble(*doc, "shadow_set_score", -1.0);
  r.ab_winner = ReadString(*doc, "ab_winner");
  r.shadow_expansion_ns = ReadU64(*doc, "shadow_expansion_ns");
  return r;
}

FlightRecorder::FlightRecorder(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {
  ring_.resize(capacity_);
}

void FlightRecorder::Record(RequestRecord record) {
  std::lock_guard<std::mutex> lock(mu_);
  ring_[total_ % capacity_] = std::move(record);
  ++total_;
}

std::vector<RequestRecord> FlightRecorder::Recent(size_t max) const {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t available =
      total_ < capacity_ ? total_ : static_cast<uint64_t>(capacity_);
  const uint64_t n = max < available ? max : available;
  std::vector<RequestRecord> out;
  out.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    out.push_back(ring_[(total_ - 1 - i) % capacity_]);
  }
  return out;
}

uint64_t FlightRecorder::total_recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_;
}

void FlightRecorder::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& r : ring_) r = RequestRecord();
  total_ = 0;
}

void FlightRecorder::SetDumpPath(std::string path) {
  std::lock_guard<std::mutex> lock(dump_mu_);
  dump_path_ = std::move(path);
}

bool FlightRecorder::Dump(const RequestRecord& record) {
  std::lock_guard<std::mutex> lock(dump_mu_);
  if (dump_path_.empty()) return true;
  std::FILE* f = std::fopen(dump_path_.c_str(), "ab");
  if (f == nullptr) return false;
  const std::string line = record.ToJsonLine() + "\n";
  const bool ok = std::fwrite(line.data(), 1, line.size(), f) == line.size();
  if (std::fclose(f) != 0 || !ok) return false;
  dumped_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

}  // namespace qec::obs
