#ifndef QEC_COMMON_DYNAMIC_BITSET_H_
#define QEC_COMMON_DYNAMIC_BITSET_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace qec {

/// Fixed-capacity bitset sized at runtime. Used for result-set algebra in
/// the expansion algorithms (R(q), C, U, E(k) intersections) where the
/// universe is the result list of the original user query.
class DynamicBitset {
 public:
  DynamicBitset() = default;

  /// Creates a bitset of `size` bits, all clear (or all set).
  explicit DynamicBitset(size_t size, bool value = false);

  /// Re-initializes to `size` bits, all clear (or all set), reusing the
  /// existing word storage when its capacity suffices. The scratch-reuse
  /// primitive: hot loops re-target one buffer instead of constructing a
  /// fresh bitset per call.
  void Reinitialize(size_t size, bool value = false);

  size_t size() const { return size_; }

  /// Inline because the universe build sets one bit per (result, term)
  /// pair. An index at or past size() is fatal.
  void Set(size_t i) {
    if (i >= size_) IndexOutOfRange(i);
    words_[i / 64] |= uint64_t{1} << (i % 64);
  }
  void Reset(size_t i);
  bool Test(size_t i) const;

  /// Sets / clears every bit.
  void SetAll();
  void ResetAll();

  /// Number of set bits.
  size_t Count() const;

  /// True if no bit is set. Early-exits on the first nonzero word instead
  /// of popcounting the whole bitset.
  bool None() const;
  bool Any() const { return !None(); }

  /// In-place operators. Operands must have equal size.
  DynamicBitset& operator&=(const DynamicBitset& other);
  DynamicBitset& operator|=(const DynamicBitset& other);
  DynamicBitset& operator^=(const DynamicBitset& other);

  /// this &= ~other (set difference).
  DynamicBitset& AndNot(const DynamicBitset& other);

  friend DynamicBitset operator&(DynamicBitset a, const DynamicBitset& b) {
    a &= b;
    return a;
  }
  friend DynamicBitset operator|(DynamicBitset a, const DynamicBitset& b) {
    a |= b;
    return a;
  }

  /// Count of bits set in (this & other), without materializing it.
  size_t AndCount(const DynamicBitset& other) const;

  /// Fused single-pass kernels: each evaluates a multi-operand set
  /// expression word by word without materializing any intermediate
  /// bitset — the allocation-free core of the ISKR/PEBC benefit/cost
  /// inner loops.

  /// |this & ~other|.
  size_t AndNotCount(const DynamicBitset& other) const;

  /// |this & b & c|.
  size_t AndCount3(const DynamicBitset& b, const DynamicBitset& c) const;

  /// |this & ~b & c|.
  size_t AndNotAndCount(const DynamicBitset& b, const DynamicBitset& c) const;

  /// True if (this & other) has any bit set.
  bool Intersects(const DynamicBitset& other) const;

  /// True if (this & b & c) has any bit set (early-exit three-way AND).
  bool Intersects(const DynamicBitset& b, const DynamicBitset& c) const;

  /// Number of 64-bit words backing the bitset.
  size_t NumWords() const { return words_.size(); }

  /// True if every set bit of this is also set in `other`.
  bool IsSubsetOf(const DynamicBitset& other) const;

  friend bool operator==(const DynamicBitset& a, const DynamicBitset& b) {
    return a.size_ == b.size_ && a.words_ == b.words_;
  }

  /// Indices of all set bits, ascending.
  std::vector<size_t> ToIndices() const;

  /// Calls `fn(i)` for every set bit `i`, ascending.
  template <typename Fn>
  void ForEachSetBit(Fn&& fn) const {
    for (size_t w = 0; w < words_.size(); ++w) {
      uint64_t word = words_[w];
      while (word != 0) {
        int bit = __builtin_ctzll(word);
        fn(w * 64 + static_cast<size_t>(bit));
        word &= word - 1;
      }
    }
  }

  /// Generic fused combinator: calls `fn(word_index, words...)` once per
  /// 64-bit word position with the corresponding word of every operand.
  /// Custom kernels build arbitrary set expressions (e.g. a & ~b & c & ~d)
  /// in one pass with zero temporaries. All operands must share one size.
  /// Bits past size() are zero in every operand, so any monotone
  /// combination of ANDs/AND-NOTs of the words stays tail-clean.
  template <typename Fn, typename... Rest>
  static void ForEachWord(Fn&& fn, const DynamicBitset& first,
                          const Rest&... rest) {
    (CheckSameSize(first, rest), ...);
    for (size_t w = 0; w < first.words_.size(); ++w) {
      fn(w, first.words_[w], rest.words_[w]...);
    }
  }

 private:
  static void CheckSameSize(const DynamicBitset& a, const DynamicBitset& b);
  [[noreturn]] void IndexOutOfRange(size_t i) const;

  void TrimTail();

  size_t size_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace qec

#endif  // QEC_COMMON_DYNAMIC_BITSET_H_
