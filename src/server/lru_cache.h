#ifndef QEC_SERVER_LRU_CACHE_H_
#define QEC_SERVER_LRU_CACHE_H_

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/logging.h"

namespace qec::server {

/// Aggregated cache statistics across all shards.
struct LruCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  size_t entries = 0;
};

/// Bounded LRU cache sharded by key hash: each shard holds its own mutex,
/// recency list, and map, so concurrent server workers contend only when
/// they touch the same shard. Values are returned by copy — entries may be
/// evicted at any moment, so references would not be safe to hand out.
///
/// No single-flight de-duplication: two concurrent misses on one key both
/// compute and the second Put wins. For the expansion workloads this is a
/// deliberate simplification (results are deterministic, so the duplicate
/// work is wasted but harmless).
template <typename Key, typename Value, typename Hash = std::hash<Key>>
class ShardedLruCache {
 public:
  /// `capacity` is the total entry bound, split across `num_shards` so the
  /// per-shard capacities sum to exactly `capacity` (the first
  /// `capacity % num_shards` shards hold one extra entry); each shard
  /// holds at least one entry. Ceil-division here used to let a
  /// (capacity=10, num_shards=8) cache hold 16 entries — 60% over the
  /// documented total bound.
  explicit ShardedLruCache(size_t capacity, size_t num_shards = 8) {
    QEC_CHECK_GT(capacity, 0u);
    QEC_CHECK_GT(num_shards, 0u);
    if (num_shards > capacity) num_shards = capacity;
    const size_t base = capacity / num_shards;
    const size_t extra = capacity % num_shards;
    shards_.reserve(num_shards);
    for (size_t i = 0; i < num_shards; ++i) {
      shards_.push_back(std::make_unique<Shard>(base + (i < extra ? 1 : 0)));
    }
  }

  /// Returns a copy of the cached value and marks it most-recently-used,
  /// or nullopt on miss.
  std::optional<Value> Get(const Key& key) { return Lookup(key, true); }

  /// Get that leaves a miss uncounted, for a first probe whose miss is
  /// settled by a later Get of the same key; a hit counts as usual.
  std::optional<Value> Probe(const Key& key) { return Lookup(key, false); }

  /// Inserts or refreshes `key`, evicting the shard's least-recently-used
  /// entry when the shard is at capacity.
  void Put(const Key& key, Value value) {
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(key);
    if (it != shard.map.end()) {
      it->second->second = std::move(value);
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      return;
    }
    if (shard.lru.size() >= shard.capacity) {
      shard.map.erase(shard.lru.back().first);
      shard.lru.pop_back();
      ++shard.evictions;
    }
    shard.lru.emplace_front(key, std::move(value));
    shard.map[key] = shard.lru.begin();
  }

  /// Drops every entry (stats are kept).
  void Clear() {
    for (auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mu);
      shard->lru.clear();
      shard->map.clear();
    }
  }

  size_t size() const {
    size_t n = 0;
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mu);
      n += shard->lru.size();
    }
    return n;
  }

  size_t num_shards() const { return shards_.size(); }

  LruCacheStats stats() const {
    LruCacheStats s;
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mu);
      s.hits += shard->hits;
      s.misses += shard->misses;
      s.evictions += shard->evictions;
      s.entries += shard->lru.size();
    }
    return s;
  }

 private:
  struct Shard {
    explicit Shard(size_t capacity) : capacity(capacity) {}

    const size_t capacity;
    mutable std::mutex mu;
    /// front = most recently used.
    std::list<std::pair<Key, Value>> lru;
    std::unordered_map<Key, typename std::list<std::pair<Key, Value>>::iterator,
                       Hash>
        map;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
  };

  /// Shard selection mixes the hash through a splitmix64 finalizer first:
  /// std::hash is the identity for integral keys on common
  /// implementations, so `hash % num_shards` and the in-shard bucket index
  /// would otherwise be computed from the same low bits — sequential keys
  /// with a stride equal to the shard count would all pile into one shard.
  static size_t MixHash(size_t h) {
    uint64_t x = static_cast<uint64_t>(h);
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return static_cast<size_t>(x);
  }

  std::optional<Value> Lookup(const Key& key, bool count_miss) {
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(key);
    if (it == shard.map.end()) {
      if (count_miss) ++shard.misses;
      return std::nullopt;
    }
    ++shard.hits;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return it->second->second;
  }

  Shard& ShardFor(const Key& key) {
    return *shards_[MixHash(hash_(key)) % shards_.size()];
  }

  Hash hash_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace qec::server

#endif  // QEC_SERVER_LRU_CACHE_H_
