#include "common/dynamic_bitset.h"

#include <cstdlib>

#include "common/logging.h"

namespace qec {

DynamicBitset::DynamicBitset(size_t size, bool value)
    : size_(size), words_((size + 63) / 64, value ? ~0ULL : 0ULL) {
  if (value) TrimTail();
}

void DynamicBitset::Reinitialize(size_t size, bool value) {
  size_ = size;
  // vector::assign reuses the existing allocation when capacity suffices.
  words_.assign((size + 63) / 64, value ? ~0ULL : 0ULL);
  if (value) TrimTail();
}

void DynamicBitset::CheckSameSize(const DynamicBitset& a,
                                  const DynamicBitset& b) {
  QEC_CHECK_EQ(a.size_, b.size_);
}

void DynamicBitset::TrimTail() {
  const size_t tail = size_ % 64;
  if (tail != 0 && !words_.empty()) {
    words_.back() &= (1ULL << tail) - 1;
  }
}

void DynamicBitset::IndexOutOfRange(size_t i) const {
  QEC_LOG(Fatal) << "Check failed: i < size_ (" << i << " vs " << size_
                 << ") ";
  std::abort();
}

void DynamicBitset::Reset(size_t i) {
  QEC_CHECK_LT(i, size_);
  words_[i / 64] &= ~(1ULL << (i % 64));
}

bool DynamicBitset::Test(size_t i) const {
  QEC_CHECK_LT(i, size_);
  return (words_[i / 64] >> (i % 64)) & 1;
}

void DynamicBitset::SetAll() {
  for (auto& w : words_) w = ~0ULL;
  TrimTail();
}

void DynamicBitset::ResetAll() {
  for (auto& w : words_) w = 0;
}

// The count and predicate kernels are plain word loops: one popcount per
// word for the counts (a single instruction under -mpopcnt), early exit on
// the first nonzero word for the predicates.

size_t DynamicBitset::Count() const {
  size_t count = 0;
  for (uint64_t w : words_) {
    count += static_cast<size_t>(__builtin_popcountll(w));
  }
  return count;
}

bool DynamicBitset::None() const {
  for (uint64_t w : words_) {
    if (w != 0) return false;
  }
  return true;
}

DynamicBitset& DynamicBitset::operator&=(const DynamicBitset& other) {
  QEC_CHECK_EQ(size_, other.size_);
  for (size_t i = 0; i < words_.size(); ++i) words_[i] &= other.words_[i];
  return *this;
}

DynamicBitset& DynamicBitset::operator|=(const DynamicBitset& other) {
  QEC_CHECK_EQ(size_, other.size_);
  for (size_t i = 0; i < words_.size(); ++i) words_[i] |= other.words_[i];
  return *this;
}

DynamicBitset& DynamicBitset::operator^=(const DynamicBitset& other) {
  QEC_CHECK_EQ(size_, other.size_);
  for (size_t i = 0; i < words_.size(); ++i) words_[i] ^= other.words_[i];
  return *this;
}

DynamicBitset& DynamicBitset::AndNot(const DynamicBitset& other) {
  QEC_CHECK_EQ(size_, other.size_);
  for (size_t i = 0; i < words_.size(); ++i) words_[i] &= ~other.words_[i];
  return *this;
}

size_t DynamicBitset::AndCount(const DynamicBitset& other) const {
  QEC_CHECK_EQ(size_, other.size_);
  size_t count = 0;
  for (size_t i = 0; i < words_.size(); ++i) {
    count +=
        static_cast<size_t>(__builtin_popcountll(words_[i] & other.words_[i]));
  }
  return count;
}

size_t DynamicBitset::AndNotCount(const DynamicBitset& other) const {
  QEC_CHECK_EQ(size_, other.size_);
  size_t count = 0;
  for (size_t i = 0; i < words_.size(); ++i) {
    count +=
        static_cast<size_t>(__builtin_popcountll(words_[i] & ~other.words_[i]));
  }
  return count;
}

size_t DynamicBitset::AndCount3(const DynamicBitset& b,
                                const DynamicBitset& c) const {
  QEC_CHECK_EQ(size_, b.size_);
  QEC_CHECK_EQ(size_, c.size_);
  size_t count = 0;
  for (size_t i = 0; i < words_.size(); ++i) {
    count += static_cast<size_t>(
        __builtin_popcountll(words_[i] & b.words_[i] & c.words_[i]));
  }
  return count;
}

size_t DynamicBitset::AndNotAndCount(const DynamicBitset& b,
                                     const DynamicBitset& c) const {
  QEC_CHECK_EQ(size_, b.size_);
  QEC_CHECK_EQ(size_, c.size_);
  size_t count = 0;
  for (size_t i = 0; i < words_.size(); ++i) {
    count += static_cast<size_t>(
        __builtin_popcountll(words_[i] & ~b.words_[i] & c.words_[i]));
  }
  return count;
}

bool DynamicBitset::Intersects(const DynamicBitset& other) const {
  QEC_CHECK_EQ(size_, other.size_);
  for (size_t i = 0; i < words_.size(); ++i) {
    if ((words_[i] & other.words_[i]) != 0) return true;
  }
  return false;
}

bool DynamicBitset::Intersects(const DynamicBitset& b,
                               const DynamicBitset& c) const {
  QEC_CHECK_EQ(size_, b.size_);
  QEC_CHECK_EQ(size_, c.size_);
  for (size_t i = 0; i < words_.size(); ++i) {
    if ((words_[i] & b.words_[i] & c.words_[i]) != 0) return true;
  }
  return false;
}

bool DynamicBitset::IsSubsetOf(const DynamicBitset& other) const {
  QEC_CHECK_EQ(size_, other.size_);
  for (size_t i = 0; i < words_.size(); ++i) {
    if ((words_[i] & ~other.words_[i]) != 0) return false;
  }
  return true;
}

std::vector<size_t> DynamicBitset::ToIndices() const {
  std::vector<size_t> out;
  out.reserve(Count());
  ForEachSetBit([&](size_t i) { out.push_back(i); });
  return out;
}

}  // namespace qec
