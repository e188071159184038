#ifndef QEC_COMMON_SWEEP_POOL_H_
#define QEC_COMMON_SWEEP_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/threading.h"

namespace qec::common {

/// Process-wide pool of parked sweep workers behind ParallelFor (below).
/// At steady state a single expansion performs hundreds of sweeps, so
/// spawning threads per sweep would dominate the parallel path. SweepPool
/// parks workers on a condition variable and hands tasks over by queue
/// generation (an epoch: each Run() submission bumps the wake predicate),
/// so steady-state sweeps perform zero thread spawns — mirrored by the
/// spawns/reuses stats counters the same way ScratchArena exposes
/// allocs/reuses.
///
/// Workers are spawned lazily on first demand and only when every existing
/// worker is already claimed (concurrent callers — server requests or
/// per-cluster expansion threads running nested sweeps — simply grow the
/// pool once, then reuse it). The pool joins its workers on destruction,
/// so the function-local Instance() is leak-free under LeakSanitizer.
class SweepPool {
 public:
  struct Stats {
    /// Parallel Run() calls (threads > 1; serial calls run inline).
    uint64_t runs = 0;
    /// Worker threads created — flat after warmup.
    uint64_t spawns = 0;
    /// Parked-worker handoffs: helper starts served without a spawn.
    uint64_t reuses = 0;
  };

  /// The process-wide pool, created on first use.
  static SweepPool& Instance();

  ~SweepPool();
  SweepPool(const SweepPool&) = delete;
  SweepPool& operator=(const SweepPool&) = delete;

  /// Runs `body()` concurrently on `threads` workers: the calling thread
  /// plus threads-1 pool helpers, every one invoking the same body. Work
  /// distribution lives in the closure (ParallelFor shares a work-stealing
  /// index), so the pool needs no per-item plumbing. Returns once every
  /// worker has finished. `threads <= 1` runs body inline without touching
  /// the pool. Safe to call from multiple threads, including from inside
  /// another Run body.
  template <typename Fn>
  void Run(size_t threads, Fn&& body) {
    if (threads <= 1) {
      body();
      return;
    }
    using Body = std::remove_reference_t<Fn>;
    RunImpl(
        threads, [](void* ctx) { (*static_cast<Body*>(ctx))(); }, &body);
  }

  Stats GetStats() const;

 private:
  struct Task;

  SweepPool() = default;
  void RunImpl(size_t threads, void (*fn)(void*), void* ctx);
  void WorkerLoop();

  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::deque<Task*> queue_;
  std::vector<std::thread> workers_;
  /// Helper starts handed out but not yet finished; workers_.size() only
  /// grows when this exceeds it (the lazy-spawn rule).
  size_t outstanding_ = 0;
  bool stopping_ = false;
  Stats stats_;
};

/// Calls `body(i)` exactly once for every i in [0, n) on
/// ResolveThreadCount(threads, n) workers (1 = serial, 0 = auto). The one
/// fan-out of the expansion layer: the ISKR/PEBC/F-measure candidate
/// sweeps and QueryExpander's per-cluster expansion. A body that writes
/// only slot i of a caller-owned buffer, merged afterwards in index order,
/// is byte-identical for every thread count. One worker runs a plain
/// inline loop — no pool, no atomics, no type erasure; more workers share
/// an atomic work-stealing index on the SweepPool. Nested calls are safe.
template <typename Body>
void ParallelFor(size_t threads, size_t n, Body&& body) {
  const size_t workers = ResolveThreadCount(threads, n);
  if (workers <= 1) {
    for (size_t i = 0; i < n; ++i) body(i);
    return;
  }
  std::atomic<size_t> next{0};
  SweepPool::Instance().Run(workers, [&] {
    for (size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) body(i);
  });
}

}  // namespace qec::common

#endif  // QEC_COMMON_SWEEP_POOL_H_
