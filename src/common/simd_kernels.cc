#include "common/simd_kernels.h"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <mutex>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define QEC_SIMD_X86 1
#endif

namespace qec::simd {

namespace {

// ------------------------------------------------------------- scalar --

size_t ScalarPopcount(const uint64_t* a, size_t n) {
  size_t count = 0;
  for (size_t i = 0; i < n; ++i) {
    count += static_cast<size_t>(__builtin_popcountll(a[i]));
  }
  return count;
}

size_t ScalarAndCount(const uint64_t* a, const uint64_t* b, size_t n) {
  size_t count = 0;
  for (size_t i = 0; i < n; ++i) {
    count += static_cast<size_t>(__builtin_popcountll(a[i] & b[i]));
  }
  return count;
}

size_t ScalarAndNotCount(const uint64_t* a, const uint64_t* b, size_t n) {
  size_t count = 0;
  for (size_t i = 0; i < n; ++i) {
    count += static_cast<size_t>(__builtin_popcountll(a[i] & ~b[i]));
  }
  return count;
}

size_t ScalarAndCount3(const uint64_t* a, const uint64_t* b, const uint64_t* c,
                       size_t n) {
  size_t count = 0;
  for (size_t i = 0; i < n; ++i) {
    count += static_cast<size_t>(__builtin_popcountll(a[i] & b[i] & c[i]));
  }
  return count;
}

size_t ScalarAndNotAndCount(const uint64_t* a, const uint64_t* b,
                            const uint64_t* c, size_t n) {
  size_t count = 0;
  for (size_t i = 0; i < n; ++i) {
    count += static_cast<size_t>(__builtin_popcountll(a[i] & ~b[i] & c[i]));
  }
  return count;
}

bool ScalarAny(const uint64_t* a, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if (a[i] != 0) return true;
  }
  return false;
}

bool ScalarIntersects2(const uint64_t* a, const uint64_t* b, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if ((a[i] & b[i]) != 0) return true;
  }
  return false;
}

bool ScalarIntersects3(const uint64_t* a, const uint64_t* b, const uint64_t* c,
                       size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if ((a[i] & b[i] & c[i]) != 0) return true;
  }
  return false;
}

bool ScalarAnyAndNot(const uint64_t* a, const uint64_t* b, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if ((a[i] & ~b[i]) != 0) return true;
  }
  return false;
}

constexpr KernelOps kScalarOps = {
    ScalarPopcount,    ScalarAndCount,    ScalarAndNotCount,
    ScalarAndCount3,   ScalarAndNotAndCount,
    ScalarAny,         ScalarIntersects2, ScalarIntersects3,
    ScalarAnyAndNot,
};

// --------------------------------------------------------------- AVX2 --
//
// The count kernels combine four words per 256-bit vector and popcount via
// the nibble-lookup (Muła) algorithm: split each byte into nibbles, look
// both up in a 16-entry bit-count table with PSHUFB, then horizontally sum
// bytes into the four 64-bit lanes with PSADBW. The per-lane sums are
// accumulated in a 4x64 vector; one final reduction yields the count, an
// exact integer — bit-identical to the scalar loop. Tails shorter than
// four words fall back to the scalar code. The early-exit predicates test
// four words at a time with PTEST and bail on the first nonzero block.

#if defined(QEC_SIMD_X86)

__attribute__((target("avx2"))) inline __m256i Popcount256(__m256i v) {
  const __m256i lookup = _mm256_setr_epi8(
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(v, low_mask);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask);
  const __m256i counts = _mm256_add_epi8(_mm256_shuffle_epi8(lookup, lo),
                                         _mm256_shuffle_epi8(lookup, hi));
  return _mm256_sad_epu8(counts, _mm256_setzero_si256());
}

__attribute__((target("avx2"))) inline size_t ReduceLanes(__m256i acc) {
  return static_cast<size_t>(_mm256_extract_epi64(acc, 0)) +
         static_cast<size_t>(_mm256_extract_epi64(acc, 1)) +
         static_cast<size_t>(_mm256_extract_epi64(acc, 2)) +
         static_cast<size_t>(_mm256_extract_epi64(acc, 3));
}

__attribute__((target("avx2"))) size_t Avx2Popcount(const uint64_t* a,
                                                    size_t n) {
  __m256i acc = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    acc = _mm256_add_epi64(acc, Popcount256(va));
  }
  return ReduceLanes(acc) + ScalarPopcount(a + i, n - i);
}

__attribute__((target("avx2"))) size_t Avx2AndCount(const uint64_t* a,
                                                    const uint64_t* b,
                                                    size_t n) {
  __m256i acc = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    acc = _mm256_add_epi64(acc, Popcount256(_mm256_and_si256(va, vb)));
  }
  return ReduceLanes(acc) + ScalarAndCount(a + i, b + i, n - i);
}

__attribute__((target("avx2"))) size_t Avx2AndNotCount(const uint64_t* a,
                                                       const uint64_t* b,
                                                       size_t n) {
  __m256i acc = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    // andnot(b, a) = a & ~b.
    acc = _mm256_add_epi64(acc, Popcount256(_mm256_andnot_si256(vb, va)));
  }
  return ReduceLanes(acc) + ScalarAndNotCount(a + i, b + i, n - i);
}

__attribute__((target("avx2"))) size_t Avx2AndCount3(const uint64_t* a,
                                                     const uint64_t* b,
                                                     const uint64_t* c,
                                                     size_t n) {
  __m256i acc = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    const __m256i vc =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(c + i));
    acc = _mm256_add_epi64(
        acc, Popcount256(_mm256_and_si256(_mm256_and_si256(va, vb), vc)));
  }
  return ReduceLanes(acc) + ScalarAndCount3(a + i, b + i, c + i, n - i);
}

__attribute__((target("avx2"))) size_t Avx2AndNotAndCount(const uint64_t* a,
                                                          const uint64_t* b,
                                                          const uint64_t* c,
                                                          size_t n) {
  __m256i acc = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    const __m256i vc =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(c + i));
    acc = _mm256_add_epi64(
        acc, Popcount256(_mm256_and_si256(_mm256_andnot_si256(vb, va), vc)));
  }
  return ReduceLanes(acc) + ScalarAndNotAndCount(a + i, b + i, c + i, n - i);
}

__attribute__((target("avx2"))) bool Avx2Any(const uint64_t* a, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    if (!_mm256_testz_si256(va, va)) return true;
  }
  return ScalarAny(a + i, n - i);
}

__attribute__((target("avx2"))) bool Avx2Intersects2(const uint64_t* a,
                                                     const uint64_t* b,
                                                     size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    if (!_mm256_testz_si256(va, vb)) return true;
  }
  return ScalarIntersects2(a + i, b + i, n - i);
}

__attribute__((target("avx2"))) bool Avx2Intersects3(const uint64_t* a,
                                                     const uint64_t* b,
                                                     const uint64_t* c,
                                                     size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    const __m256i vc =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(c + i));
    if (!_mm256_testz_si256(_mm256_and_si256(va, vb), vc)) return true;
  }
  return ScalarIntersects3(a + i, b + i, c + i, n - i);
}

__attribute__((target("avx2"))) bool Avx2AnyAndNot(const uint64_t* a,
                                                   const uint64_t* b,
                                                   size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    if (!_mm256_testz_si256(_mm256_andnot_si256(vb, va),
                            _mm256_andnot_si256(vb, va))) {
      return true;
    }
  }
  return ScalarAnyAndNot(a + i, b + i, n - i);
}

constexpr KernelOps kAvx2Ops = {
    Avx2Popcount,    Avx2AndCount,    Avx2AndNotCount,
    Avx2AndCount3,   Avx2AndNotAndCount,
    Avx2Any,         Avx2Intersects2, Avx2Intersects3,
    Avx2AnyAndNot,
};

#endif  // QEC_SIMD_X86

// ----------------------------------------------------------- dispatch --

std::atomic<const KernelOps*> g_ops{nullptr};
std::atomic<KernelTier> g_tier{KernelTier::kScalar};
std::once_flag g_init_once;

void InitDispatch() {
  KernelTier tier =
      Avx2Supported() ? KernelTier::kAvx2 : KernelTier::kScalar;
  // QEC_KERNEL_DISPATCH=scalar pins the scalar tier. "avx2", "auto" and
  // unrecognized values keep the auto choice, which already is AVX2
  // whenever the hardware has it: forcing an unsupported tier would SIGILL
  // on the first kernel.
  const char* env = std::getenv("QEC_KERNEL_DISPATCH");
  if (env != nullptr && std::strcmp(env, "scalar") == 0) {
    tier = KernelTier::kScalar;
  }
  SetTier(tier);
}

}  // namespace

bool Avx2Supported() {
#if defined(QEC_SIMD_X86)
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

bool SetTier(KernelTier tier) {
  const KernelOps* ops = &kScalarOps;
  switch (tier) {
    case KernelTier::kScalar:
      ops = &kScalarOps;
      break;
    case KernelTier::kAvx2:
#if defined(QEC_SIMD_X86)
      if (!Avx2Supported()) return false;
      ops = &kAvx2Ops;
      break;
#else
      return false;
#endif
  }
  g_tier.store(tier, std::memory_order_relaxed);
  g_ops.store(ops, std::memory_order_release);
  return true;
}

const KernelOps& Ops() {
  const KernelOps* ops = g_ops.load(std::memory_order_acquire);
  if (ops == nullptr) {
    std::call_once(g_init_once, InitDispatch);
    ops = g_ops.load(std::memory_order_acquire);
  }
  return *ops;
}

KernelTier ActiveTier() {
  Ops();  // ensure initialized
  return g_tier.load(std::memory_order_relaxed);
}

const char* TierName(KernelTier tier) {
  switch (tier) {
    case KernelTier::kScalar:
      return "scalar";
    case KernelTier::kAvx2:
      return "avx2";
  }
  return "?";
}

const char* ActiveTierName() { return TierName(ActiveTier()); }

}  // namespace qec::simd
