#include "core/result_universe.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/logging.h"
#include "obs/metrics.h"

namespace qec::core {

namespace {
constexpr double kMinWeight = 1e-9;

/// Order-independent memo key for an AND conjunction: the sorted TermIds
/// viewed as raw bytes. The sort buffer is a reused thread-local vector,
/// so steady-state lookups touch no heap at all; the returned view
/// aliases the buffer and the map only materializes an owning string on a
/// miss (heterogeneous lookup below).
std::string_view ConjunctionKey(std::span<const TermId> query) {
  thread_local std::vector<TermId> sorted;
  sorted.assign(query.begin(), query.end());
  std::sort(sorted.begin(), sorted.end());
  return std::string_view(reinterpret_cast<const char*>(sorted.data()),
                          sorted.size() * sizeof(TermId));
}

/// Transparent hash so the conjunction memo probes with the borrowed
/// string_view key and only allocates a std::string when inserting.
struct TransparentStringHash {
  using is_transparent = void;
  size_t operator()(std::string_view s) const {
    return std::hash<std::string_view>{}(s);
  }
};
}  // namespace

struct ResultUniverse::SetAlgebraCache {
  std::shared_mutex mu;
  std::unordered_map<std::string, DynamicBitset, TransparentStringHash,
                     std::equal_to<>>
      conjunctions;
  std::atomic<uint64_t> hits{0};
  std::atomic<uint64_t> misses{0};
};

/// Pool of universe-sized bitset buffers. Returned buffers keep their word
/// storage, so a lease after warm-up is a pop + Reinitialize (no heap
/// traffic). Guarded by a plain mutex: leases happen per expansion state /
/// per sample build, never per set operation.
struct ResultUniverse::ScratchArena {
  std::mutex mu;
  std::vector<DynamicBitset> pool;
  std::atomic<uint64_t> reuses{0};
  std::atomic<uint64_t> allocs{0};
};

ResultUniverse::ScratchBitset::ScratchBitset(
    std::shared_ptr<ScratchArena> arena, DynamicBitset bits)
    : arena_(std::move(arena)), bits_(std::move(bits)) {}

ResultUniverse::ScratchBitset::ScratchBitset(ScratchBitset&& other) noexcept
    : arena_(std::move(other.arena_)), bits_(std::move(other.bits_)) {}

ResultUniverse::ScratchBitset::~ScratchBitset() {
  if (arena_ == nullptr) return;  // moved-from
  std::lock_guard<std::mutex> lock(arena_->mu);
  arena_->pool.push_back(std::move(bits_));
}

ResultUniverse::ScratchBitset ResultUniverse::AcquireScratch(
    bool all_set) const {
  DynamicBitset bits;
  bool reused = false;
  {
    std::lock_guard<std::mutex> lock(scratch_->mu);
    if (!scratch_->pool.empty()) {
      bits = std::move(scratch_->pool.back());
      scratch_->pool.pop_back();
      reused = true;
    }
  }
  if (reused) {
    scratch_->reuses.fetch_add(1, std::memory_order_relaxed);
    QEC_COUNTER_INC("universe/scratch_reuses");
  } else {
    scratch_->allocs.fetch_add(1, std::memory_order_relaxed);
    QEC_COUNTER_INC("universe/scratch_allocs");
  }
  bits.Reinitialize(size(), all_set);
  return ScratchBitset(scratch_, std::move(bits));
}

ScratchArenaStats ResultUniverse::scratch_arena_stats() const {
  ScratchArenaStats stats;
  stats.reuses = scratch_->reuses.load(std::memory_order_relaxed);
  stats.allocs = scratch_->allocs.load(std::memory_order_relaxed);
  return stats;
}

void ResultUniverse::EnableSetAlgebraCache() {
  if (set_cache_ == nullptr) set_cache_ = std::make_shared<SetAlgebraCache>();
}

SetAlgebraCacheStats ResultUniverse::set_algebra_cache_stats() const {
  SetAlgebraCacheStats stats;
  if (set_cache_ != nullptr) {
    stats.hits = set_cache_->hits.load(std::memory_order_relaxed);
    stats.misses = set_cache_->misses.load(std::memory_order_relaxed);
  }
  return stats;
}

ResultUniverse::ResultUniverse(const doc::Corpus& corpus,
                               const std::vector<index::RankedResult>& results)
    : corpus_(&corpus), scratch_(std::make_shared<ScratchArena>()) {
  docs_.reserve(results.size());
  weights_.reserve(results.size());
  for (const auto& r : results) {
    docs_.push_back(r.doc);
    weights_.push_back(r.score > kMinWeight ? r.score : kMinWeight);
  }
  BuildTermRows();
}

ResultUniverse::ResultUniverse(const doc::Corpus& corpus,
                               const std::vector<DocId>& results)
    : corpus_(&corpus), scratch_(std::make_shared<ScratchArena>()) {
  docs_ = results;
  weights_.assign(results.size(), 1.0);
  BuildTermRows();
}

void ResultUniverse::BuildTermRows() {
  QEC_COUNTER_INC("universe/builds");
  total_weight_ = 0.0;
  for (double w : weights_) total_weight_ += w;
  unit_weights_ =
      std::all_of(weights_.begin(), weights_.end(),
                  [](double w) { return w == 1.0; });
  const size_t n = docs_.size();
  empty_ = DynamicBitset(n);
  size_t nnz = 0;
  for (DocId d : docs_) {
    const std::vector<TermId>& terms = corpus_->Get(d).term_set();
    for (TermId t : terms) ranks_.Insert(t);
    nnz += terms.size();
  }
  ranks_.Seal();
  distinct_terms_ = ranks_.Terms();
  rows_.dims = distinct_terms_.size();
  rows_.begin.reserve(n + 1);
  rows_.term.reserve(nnz);
  rows_.weight.reserve(nnz);
  term_docs_.assign(rows_.dims, empty_);
  term_tf_.assign(rows_.dims, 0);
  for (size_t i = 0; i < n; ++i) {
    const doc::Document& d = corpus_->Get(docs_[i]);
    const std::vector<TermId>& terms = d.term_set();
    const std::vector<int>& counts = d.term_counts();
    for (size_t e = 0; e < terms.size(); ++e) {
      const uint32_t local = ranks_.Rank(terms[e]);
      rows_.term.push_back(local);
      rows_.weight.push_back(static_cast<double>(counts[e]));
      term_docs_[local].Set(i);
      term_tf_[local] += counts[e];
    }
    rows_.begin.push_back(static_cast<uint32_t>(rows_.term.size()));
  }
}

// Deliberately uncounted: TotalWeight runs once per benefit/cost
// evaluation and a per-call counter here costs as much as the sum itself
// (the expanders' */benefit_cost_evals counters cover the call count).
double ResultUniverse::TotalWeight(const DynamicBitset& set) const {
  QEC_CHECK_EQ(set.size(), docs_.size());
  if (unit_weights_) return static_cast<double>(set.Count());
  double sum = 0.0;
  set.ForEachSetBit([&](size_t i) { sum += weights_[i]; });
  return sum;
}

// The unit-weight branches below route S(.) through DynamicBitset's
// popcount kernels: with every weight exactly 1.0 the weighted fold sums k
// in-order ones, which is exactly k, so the count is bit-identical to the
// double accumulation. The ranked path keeps the in-order fold.

double ResultUniverse::WeightOfAnd(const DynamicBitset& a,
                                   const DynamicBitset& b) const {
  if (unit_weights_) {
    QEC_COUNTER_INC("universe/fused_evals");
    return static_cast<double>(a.AndCount(b));
  }
  return WeightWhere([](uint64_t x, uint64_t y) { return x & y; }, a, b);
}

double ResultUniverse::WeightOfAndAnd(const DynamicBitset& a,
                                      const DynamicBitset& b,
                                      const DynamicBitset& c) const {
  if (unit_weights_) {
    QEC_COUNTER_INC("universe/fused_evals");
    return static_cast<double>(a.AndCount3(b, c));
  }
  return WeightWhere(
      [](uint64_t x, uint64_t y, uint64_t z) { return x & y & z; }, a, b, c);
}

double ResultUniverse::WeightOfAndNot(const DynamicBitset& a,
                                      const DynamicBitset& b) const {
  if (unit_weights_) {
    QEC_COUNTER_INC("universe/fused_evals");
    return static_cast<double>(a.AndNotCount(b));
  }
  return WeightWhere([](uint64_t x, uint64_t y) { return x & ~y; }, a, b);
}

double ResultUniverse::WeightOfAndNotAnd(const DynamicBitset& a,
                                         const DynamicBitset& b,
                                         const DynamicBitset& c) const {
  if (unit_weights_) {
    QEC_COUNTER_INC("universe/fused_evals");
    return static_cast<double>(a.AndNotAndCount(b, c));
  }
  return WeightWhere(
      [](uint64_t x, uint64_t y, uint64_t z) { return x & ~y & z; }, a, b, c);
}

const DynamicBitset& ResultUniverse::DocsWithTerm(TermId term) const {
  QEC_COUNTER_INC("universe/term_lookups");
  return FindDocs(term);
}

void ResultUniverse::RetrieveInto(std::span<const TermId> query,
                                  DynamicBitset* out) const {
  QEC_COUNTER_ADD("universe/term_intersections", query.size());
  out->Reinitialize(size(), /*value=*/true);
  for (TermId t : query) *out &= FindDocs(t);
}

void ResultUniverse::RetrieveWithoutInto(std::span<const TermId> query,
                                         TermId excluded,
                                         DynamicBitset* out) const {
  QEC_COUNTER_ADD("universe/term_intersections", query.size());
  out->Reinitialize(size(), /*value=*/true);
  for (TermId t : query) {
    if (t != excluded) *out &= FindDocs(t);
  }
}

DynamicBitset ResultUniverse::Retrieve(std::span<const TermId> query) const {
  if (set_cache_ != nullptr && query.size() >= 2 &&
      query.size() <= kMaxMemoArity) {
    const std::string_view key = ConjunctionKey(query);
    {
      std::shared_lock lock(set_cache_->mu);
      auto it = set_cache_->conjunctions.find(key);
      if (it != set_cache_->conjunctions.end()) {
        set_cache_->hits.fetch_add(1, std::memory_order_relaxed);
        QEC_COUNTER_INC("universe/set_cache_hits");
        return it->second;
      }
    }
    QEC_COUNTER_ADD("universe/term_intersections", query.size());
    DynamicBitset out = FullSet();
    for (TermId t : query) out &= FindDocs(t);
    set_cache_->misses.fetch_add(1, std::memory_order_relaxed);
    QEC_COUNTER_INC("universe/set_cache_misses");
    std::unique_lock lock(set_cache_->mu);
    return set_cache_->conjunctions
        .try_emplace(std::string(key), std::move(out))
        .first->second;
  }
  // One batched add per call: Retrieve sits inside every benefit/cost
  // evaluation, so per-term counting here would dominate the work itself.
  QEC_COUNTER_ADD("universe/term_intersections", query.size());
  DynamicBitset out = FullSet();
  for (TermId t : query) out &= FindDocs(t);
  return out;
}

DynamicBitset ResultUniverse::RetrieveOr(std::span<const TermId> query) const {
  QEC_COUNTER_ADD("universe/term_intersections", query.size());
  DynamicBitset out = EmptySet();
  for (TermId t : query) out |= FindDocs(t);
  return out;
}

int ResultUniverse::TotalTermFrequency(TermId term) const {
  const uint32_t local = ranks_.Find(term);
  return local == cluster::TermRanks::kAbsent ? 0 : term_tf_[local];
}

}  // namespace qec::core
