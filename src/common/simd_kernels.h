#ifndef QEC_COMMON_SIMD_KERNELS_H_
#define QEC_COMMON_SIMD_KERNELS_H_

namespace qec::simd {

/// Name of the implementation behind the DynamicBitset count and predicate
/// kernels, reported by STATS, /statusz, qec_build_info and index-inspect.
/// There is one: plain word loops, built with -mpopcnt where the compiler
/// supports it.
inline const char* ActiveTierName() { return "scalar"; }

}  // namespace qec::simd

#endif  // QEC_COMMON_SIMD_KERNELS_H_
