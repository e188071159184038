#include "server/shadow_evaluator.h"

#include <algorithm>
#include <utility>

#include "obs/json.h"
#include "obs/metrics.h"
#include "server/request_context.h"

namespace qec::server {

core::ExpansionAlgorithm SecondArm(core::ExpansionAlgorithm primary,
                                   core::ExpansionAlgorithm shadow) {
  if (shadow != primary) return shadow;
  return primary == core::ExpansionAlgorithm::kPebc
             ? core::ExpansionAlgorithm::kIskr
             : core::ExpansionAlgorithm::kPebc;
}

std::string_view ArmWinner(double primary_score, double shadow_score) {
  const double d = primary_score - shadow_score;
  return d > 1e-9 ? "primary" : (d < -1e-9 ? "shadow" : "tie");
}

// The sampling stream must not run in lockstep with other components
// seeded from the same popular constant (a workload generator seeded 42
// feeding a server whose evaluator defaults to seed 42 would make the
// sample decision a deterministic function of the query rank). Mixing a
// fixed tag into the seed gives the evaluator its own stream while staying
// fully deterministic per seed.
ShadowEvaluator::ShadowEvaluator(ShadowEvaluatorOptions options)
    : options_(std::move(options)),
      rng_(options_.seed ^ 0x73686164'6f772e71ULL) {
  if (options_.dedupe) {
    dedupe_ = std::make_unique<ShardedLruCache<std::string, bool>>(
        /*capacity=*/512, /*num_shards=*/4);
  }
}

bool ShadowEvaluator::ShouldSample() {
  if (options_.sample_rate <= 0.0) return false;
  if (options_.sample_rate >= 1.0) return true;
  std::lock_guard<std::mutex> lock(mu_);
  return rng_.UniformDouble() < options_.sample_rate;
}

bool ShadowEvaluator::SeenRecently(const std::string& key) {
  if (dedupe_ == nullptr) return false;
  const bool seen = dedupe_->Get(key).has_value();
  if (!seen) dedupe_->Put(key, true);
  return seen;
}

ShadowComparison ShadowEvaluator::Compare(
    uint64_t trace_id, const std::string& query,
    const std::string& primary_algo, double primary_score,
    uint64_t primary_expansion_ns, double shadow_score,
    uint64_t shadow_expansion_ns) {
  ShadowComparison c;
  c.trace_id = trace_id;
  c.query = query;
  c.primary_algo = primary_algo;
  c.shadow_algo = std::string(core::AlgorithmName(options_.algorithm));
  c.primary_score = primary_score;
  c.shadow_score = shadow_score;
  c.primary_expansion_ns = primary_expansion_ns;
  c.shadow_expansion_ns = shadow_expansion_ns;
  c.winner = std::string(ArmWinner(primary_score, shadow_score));

  QEC_COUNTER_INC("shadow/sampled");
  QEC_COUNTER_INC("shadow/executed");
  if (c.winner == "tie") {
    QEC_COUNTER_INC("shadow/ties");
  } else if (c.winner == "primary") {
    QEC_COUNTER_INC("shadow/wins_primary");
  } else {
    QEC_COUNTER_INC("shadow/wins_shadow");
  }
  // Scores live in [0, 1]; the integer histograms bucket them at the
  // milli-score scale.
  QEC_HISTOGRAM_RECORD("shadow/primary_score_milli",
                       static_cast<uint64_t>(primary_score * 1000.0));
  QEC_HISTOGRAM_RECORD("shadow/shadow_score_milli",
                       static_cast<uint64_t>(shadow_score * 1000.0));
  QEC_HISTOGRAM_RECORD("shadow/primary_expansion_ns", primary_expansion_ns);
  QEC_HISTOGRAM_RECORD("shadow/shadow_expansion_ns", shadow_expansion_ns);

  std::lock_guard<std::mutex> lock(mu_);
  tallies_.sampled += 1;
  tallies_.executed += 1;
  if (c.winner == "tie") {
    tallies_.ties += 1;
  } else if (c.winner == "primary") {
    tallies_.primary_wins += 1;
  } else {
    tallies_.shadow_wins += 1;
  }
  tallies_.primary_score_sum += primary_score;
  tallies_.shadow_score_sum += shadow_score;
  tallies_.primary_expansion_ns_sum += primary_expansion_ns;
  tallies_.shadow_expansion_ns_sum += shadow_expansion_ns;
  history_.push_back(c);
  while (history_.size() > options_.history_capacity) history_.pop_front();
  return c;
}

void ShadowEvaluator::RecordShed() {
  QEC_COUNTER_INC("shadow/sampled");
  QEC_COUNTER_INC("shadow/shed");
  std::lock_guard<std::mutex> lock(mu_);
  tallies_.sampled += 1;
  tallies_.shed += 1;
}

void ShadowEvaluator::RecordDeduped() {
  QEC_COUNTER_INC("shadow/sampled");
  QEC_COUNTER_INC("shadow/deduped");
  std::lock_guard<std::mutex> lock(mu_);
  tallies_.sampled += 1;
  tallies_.deduped += 1;
}

void ShadowEvaluator::RecordError() {
  QEC_COUNTER_INC("shadow/sampled");
  QEC_COUNTER_INC("shadow/errors");
  std::lock_guard<std::mutex> lock(mu_);
  tallies_.sampled += 1;
  tallies_.errors += 1;
}

ShadowTallies ShadowEvaluator::tallies() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tallies_;
}

std::vector<ShadowComparison> ShadowEvaluator::Recent(size_t max) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<ShadowComparison> out;
  const size_t n = std::min(max, history_.size());
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out.push_back(history_[history_.size() - 1 - i]);
  }
  return out;
}

std::string ShadowEvaluator::AbtestJsonLine(size_t max) const {
  using obs::json::NumberToString;
  using obs::json::Quote;
  const ShadowTallies t = tallies();
  const std::vector<ShadowComparison> recent = Recent(max);
  std::string out = "{\"status\":\"ok\",\"enabled\":true";
  out += ",\"shadow_algo\":" +
         Quote(std::string(core::AlgorithmName(options_.algorithm)));
  out += ",\"sample_rate\":" + NumberToString(options_.sample_rate);
  out += ",\"sampled\":" + std::to_string(t.sampled);
  out += ",\"executed\":" + std::to_string(t.executed);
  out += ",\"shed\":" + std::to_string(t.shed);
  out += ",\"deduped\":" + std::to_string(t.deduped);
  out += ",\"errors\":" + std::to_string(t.errors);
  out += ",\"primary_wins\":" + std::to_string(t.primary_wins);
  out += ",\"shadow_wins\":" + std::to_string(t.shadow_wins);
  out += ",\"ties\":" + std::to_string(t.ties);
  const double n = t.executed != 0 ? static_cast<double>(t.executed) : 1.0;
  out += ",\"shadow_win_rate\":" +
         NumberToString(static_cast<double>(t.shadow_wins) / n);
  out += ",\"mean_primary_score\":" + NumberToString(t.primary_score_sum / n);
  out += ",\"mean_shadow_score\":" + NumberToString(t.shadow_score_sum / n);
  out += ",\"mean_primary_expansion_ms\":" +
         NumberToString(static_cast<double>(t.primary_expansion_ns_sum) / n /
                        1e6);
  out += ",\"mean_shadow_expansion_ms\":" +
         NumberToString(static_cast<double>(t.shadow_expansion_ns_sum) / n /
                        1e6);
  out += ",\"recent\":[";
  for (size_t i = 0; i < recent.size(); ++i) {
    const ShadowComparison& c = recent[i];
    if (i > 0) out += ",";
    out += "{\"trace_id\":" + Quote(TraceIdToHex(c.trace_id));
    out += ",\"query\":" + Quote(c.query);
    out += ",\"primary_algo\":" + Quote(c.primary_algo);
    out += ",\"shadow_algo\":" + Quote(c.shadow_algo);
    out += ",\"primary_score\":" + NumberToString(c.primary_score);
    out += ",\"shadow_score\":" + NumberToString(c.shadow_score);
    out += ",\"primary_expansion_ms\":" +
           NumberToString(static_cast<double>(c.primary_expansion_ns) / 1e6);
    out += ",\"shadow_expansion_ms\":" +
           NumberToString(static_cast<double>(c.shadow_expansion_ns) / 1e6);
    out += ",\"winner\":" + Quote(c.winner);
    out += "}";
  }
  out += "]}";
  return out;
}

}  // namespace qec::server
