// Tests for the posting-list codec (delta + varbyte) behind the snapshot
// INDX section: varints, randomized round-trip properties and corruption
// handling.

#include <gtest/gtest.h>

#include "common/random.h"
#include "index/posting_codec.h"

namespace qec::index {
namespace {

// ------------------------------------------------------------------ varint

TEST(VarintTest, RoundTripsBoundaryValues) {
  for (uint64_t v : {0ULL, 1ULL, 127ULL, 128ULL, 16383ULL, 16384ULL,
                     ~0ULL >> 1, ~0ULL}) {
    std::string buf;
    AppendVarint(v, buf);
    size_t pos = 0;
    auto decoded = ReadVarint(buf, &pos);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(*decoded, v);
    EXPECT_EQ(pos, buf.size());
  }
}

TEST(VarintTest, TruncationIsCorruption) {
  std::string buf;
  AppendVarint(1ULL << 40, buf);
  for (size_t cut = 0; cut < buf.size(); ++cut) {
    size_t pos = 0;
    auto decoded = ReadVarint(std::string_view(buf).substr(0, cut), &pos);
    EXPECT_FALSE(decoded.ok());
  }
}

TEST(VarintTest, OverlongIsCorruption) {
  std::string buf(11, static_cast<char>(0x80));
  size_t pos = 0;
  EXPECT_FALSE(ReadVarint(buf, &pos).ok());
}

// ----------------------------------------------------------------- codec

TEST(PostingCodecTest, EmptyList) {
  auto decoded = DecodePostings(EncodePostings({}));
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->empty());
}

TEST(PostingCodecTest, RoundTripsKnownList) {
  std::vector<Posting> list = {{0, 3}, {1, 1}, {7, 12}, {1000, 2}};
  auto decoded = DecodePostings(EncodePostings(list));
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->size(), list.size());
  for (size_t i = 0; i < list.size(); ++i) {
    EXPECT_EQ((*decoded)[i].doc, list[i].doc);
    EXPECT_EQ((*decoded)[i].tf, list[i].tf);
  }
}

TEST(PostingCodecTest, DeltaCodingShrinksDenseLists) {
  std::vector<Posting> dense;
  for (DocId d = 1000; d < 2000; ++d) dense.push_back({d, 1});
  std::string blob = EncodePostings(dense);
  // 1000 adjacent postings: ~2 bytes each (gap 0 + tf 1) + header.
  EXPECT_LT(blob.size(), 2100u);
}

TEST(PostingCodecTest, TrailingBytesAreCorruption) {
  std::string blob = EncodePostings({{3, 1}});
  blob += '\0';
  EXPECT_FALSE(DecodePostings(blob).ok());
}

TEST(PostingCodecTest, ImplausibleCountIsCorruption) {
  // Header claims 5 postings but only 4 payload bytes follow; each posting
  // is at least 2 bytes, so the count is provably wrong. The old guard
  // (count > blob size) admitted this and failed later with a less precise
  // error after over-reserving.
  std::string blob;
  AppendVarint(5, blob);
  AppendVarint(1, blob);  // gap
  AppendVarint(1, blob);  // tf
  AppendVarint(1, blob);  // gap
  AppendVarint(1, blob);  // tf
  auto decoded = DecodePostings(blob);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
}

TEST(PostingCodecTest, HugeCountIsCorruptionNotAlloc) {
  // A count near uint64 max must be rejected up front rather than fed to
  // vector::reserve.
  std::string blob;
  AppendVarint(UINT64_MAX / 2, blob);
  AppendVarint(1, blob);
  auto decoded = DecodePostings(blob);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
}

TEST(PostingCodecTest, ZeroTfIsCorruption) {
  // Hand-build: count 1, gap 5, tf 0.
  std::string blob;
  AppendVarint(1, blob);
  AppendVarint(5, blob);
  AppendVarint(0, blob);
  auto decoded = DecodePostings(blob);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
}

TEST(PostingCodecTest, WrappingGapIsCorruption) {
  // Hand-build: count 2, doc 5, then a gap of 2^64 - 6 whose prev + gap + 1
  // wraps to doc 0 — a non-monotonic list that must not decode.
  std::string blob;
  AppendVarint(2, blob);
  AppendVarint(5, blob);
  AppendVarint(1, blob);
  AppendVarint(UINT64_MAX - 5, blob);
  AppendVarint(1, blob);
  auto decoded = DecodePostings(blob);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
}

class PostingCodecProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PostingCodecProperty, RandomRoundTrip) {
  Rng rng(GetParam());
  std::vector<Posting> list;
  DocId doc = 0;
  const size_t n = rng.UniformInt(200);
  for (size_t i = 0; i < n; ++i) {
    doc += 1 + static_cast<DocId>(rng.UniformInt(1000));
    list.push_back({doc, 1 + static_cast<int>(rng.UniformInt(50))});
  }
  auto decoded = DecodePostings(EncodePostings(list));
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->size(), list.size());
  for (size_t i = 0; i < list.size(); ++i) {
    EXPECT_EQ((*decoded)[i].doc, list[i].doc);
    EXPECT_EQ((*decoded)[i].tf, list[i].tf);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PostingCodecProperty,
                         ::testing::Range<uint64_t>(1, 16));

}  // namespace
}  // namespace qec::index
