#ifndef QEC_COMMON_SIMD_KERNELS_H_
#define QEC_COMMON_SIMD_KERNELS_H_

#include <cstddef>
#include <cstdint>

namespace qec::simd {

/// Implementation tier of the multi-word set-algebra kernels. Selected once
/// at startup: AVX2 when the CPU supports it, scalar otherwise, overridable
/// with QEC_KERNEL_DISPATCH=scalar|avx2|auto (tests pin the tier to prove
/// exact equality; benches pin it so numbers are comparable across runs).
enum class KernelTier {
  kScalar,
  kAvx2,
};

/// Word-array kernels behind the DynamicBitset fused set algebra. Every
/// entry is exact: the counts are integers and the early-exit predicates
/// are pure booleans, so each tier returns bit-identical results — only
/// the wall clock differs. Operands are arrays of `n` 64-bit words; all
/// arrays must hold at least `n` words.
struct KernelOps {
  /// popcount(a).
  size_t (*popcount)(const uint64_t* a, size_t n);
  /// popcount(a & b).
  size_t (*and_count)(const uint64_t* a, const uint64_t* b, size_t n);
  /// popcount(a & ~b).
  size_t (*and_not_count)(const uint64_t* a, const uint64_t* b, size_t n);
  /// popcount(a & b & c).
  size_t (*and_count3)(const uint64_t* a, const uint64_t* b,
                       const uint64_t* c, size_t n);
  /// popcount(a & ~b & c).
  size_t (*and_not_and_count)(const uint64_t* a, const uint64_t* b,
                              const uint64_t* c, size_t n);
  /// Any bit set in a? (early exit on the first nonzero block).
  bool (*any)(const uint64_t* a, size_t n);
  /// Any bit set in (a & b)?
  bool (*intersects2)(const uint64_t* a, const uint64_t* b, size_t n);
  /// Any bit set in (a & b & c)?
  bool (*intersects3)(const uint64_t* a, const uint64_t* b, const uint64_t* c,
                      size_t n);
  /// Any bit set in (a & ~b)? (the subset test's complement).
  bool (*any_and_not)(const uint64_t* a, const uint64_t* b, size_t n);
};

/// The active kernel table. First call resolves the tier from
/// QEC_KERNEL_DISPATCH and cpuid; later calls are a relaxed atomic load.
const KernelOps& Ops();

/// The tier Ops() currently dispatches to.
KernelTier ActiveTier();

/// Forces the dispatch tier (tests, benches, the env override). Returns
/// false — leaving the tier unchanged — when the hardware cannot run the
/// requested tier.
bool SetTier(KernelTier tier);

/// True when the CPU supports the AVX2 tier.
bool Avx2Supported();

const char* TierName(KernelTier tier);
const char* ActiveTierName();

}  // namespace qec::simd

#endif  // QEC_COMMON_SIMD_KERNELS_H_
