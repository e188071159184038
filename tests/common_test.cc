// Unit tests for qec_common: Status/Result, Rng, string utilities, and the
// DynamicBitset result-set algebra the expansion algorithms rely on.

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include <atomic>
#include <string>
#include <vector>

#include "common/dynamic_bitset.h"
#include "common/random.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/sweep_pool.h"
#include "common/threading.h"

namespace qec {
namespace {

// ---------------------------------------------------------------- Status --

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad k");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad k");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad k");
}

TEST(StatusTest, AllFactoriesProduceMatchingCodes) {
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::Corruption("x").code(), StatusCode::kCorruption);
  EXPECT_EQ(Status::Unimplemented("x").code(), StatusCode::kUnimplemented);
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound("a") == Status::Internal("a"));
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value(), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("missing");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r = std::string("hello");
  std::string v = std::move(r).value();
  EXPECT_EQ(v, "hello");
}

Status FailsThenPropagates(bool fail) {
  QEC_RETURN_IF_ERROR(fail ? Status::Internal("boom") : Status::Ok());
  return Status::Ok();
}

TEST(ResultTest, ReturnIfErrorMacro) {
  EXPECT_TRUE(FailsThenPropagates(false).ok());
  EXPECT_EQ(FailsThenPropagates(true).code(), StatusCode::kInternal);
}

// ------------------------------------------------------------------- Rng --

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int differing = 0;
  for (int i = 0; i < 10; ++i) {
    if (a.Next() != b.Next()) ++differing;
  }
  EXPECT_GT(differing, 0);
}

TEST(RngTest, UniformIntRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.UniformInt(17), 17u);
}

TEST(RngTest, UniformIntCoversAllValues) {
  Rng rng(7);
  std::set<uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.UniformInt(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.UniformDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, UniformRangeInclusive) {
  Rng rng(5);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.UniformRange(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= (v == -2);
    saw_hi |= (v == 2);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, UniformRangeSinglePoint) {
  Rng rng(7);
  EXPECT_EQ(rng.UniformRange(42, 42), 42);
  EXPECT_EQ(rng.UniformRange(INT64_MIN, INT64_MIN), INT64_MIN);
  EXPECT_EQ(rng.UniformRange(INT64_MAX, INT64_MAX), INT64_MAX);
}

TEST(RngTest, UniformRangeHugeSpansStayInBounds) {
  // Regression: spans >= 2^63 used to overflow the signed `hi - lo + 1`
  // width computation (UB). The full-int64 span in particular must not
  // wrap to a width of 0.
  Rng rng(11);
  bool saw_negative = false, saw_positive = false;
  for (int i = 0; i < 200; ++i) {
    const int64_t full = rng.UniformRange(INT64_MIN, INT64_MAX);
    saw_negative |= full < 0;
    saw_positive |= full > 0;
    const int64_t lower_half = rng.UniformRange(INT64_MIN, 0);
    EXPECT_LE(lower_half, 0);
    const int64_t upper_half = rng.UniformRange(-1, INT64_MAX);
    EXPECT_GE(upper_half, -1);
  }
  // 200 draws from the full range land on both signs with overwhelming
  // probability; a wrapped width would pin the result.
  EXPECT_TRUE(saw_negative);
  EXPECT_TRUE(saw_positive);
}

// --------------------------------------------------------------- threads --

TEST(ThreadingTest, ResolveThreadCountExplicitRequest) {
  EXPECT_EQ(ResolveThreadCount(4, 16), 4u);
  EXPECT_EQ(ResolveThreadCount(1, 16), 1u);
}

TEST(ThreadingTest, ResolveThreadCountClampsToUsefulWork) {
  EXPECT_EQ(ResolveThreadCount(8, 3), 3u);
  EXPECT_EQ(ResolveThreadCount(8, 1), 1u);
  // Zero useful units still yields one worker rather than zero.
  EXPECT_EQ(ResolveThreadCount(8, 0), 1u);
}

TEST(ThreadingTest, ResolveThreadCountAutoDetects) {
  const size_t n = ResolveThreadCount(0, 1000);
  EXPECT_GE(n, 1u);
  EXPECT_LE(n, 1000u);
  // Auto mode is clamped by available work too.
  EXPECT_EQ(ResolveThreadCount(0, 1), 1u);
}

TEST(RngTest, GaussianRoughMoments) {
  Rng rng(11);
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double v = rng.Gaussian(3.0, 2.0);
    sum += v;
    sq += v * v;
  }
  double mean = sum / n;
  double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 3.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(3);
  for (int i = 0; i < 20; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(13);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto original = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(17);
  auto sample = rng.SampleWithoutReplacement(100, 30);
  std::set<size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(sample.size(), 30u);
  EXPECT_EQ(unique.size(), 30u);
  for (size_t s : sample) EXPECT_LT(s, 100u);
}

TEST(RngTest, SampleLargerThanPopulationReturnsAll) {
  Rng rng(19);
  auto sample = rng.SampleWithoutReplacement(5, 10);
  EXPECT_EQ(sample.size(), 5u);
}

// ---------------------------------------------------------- string_util --

TEST(StringUtilTest, AsciiLower) {
  EXPECT_EQ(AsciiLower("HeLLo WoRld"), "hello world");
  EXPECT_EQ(AsciiLower(""), "");
  EXPECT_EQ(AsciiLower("123-ABC"), "123-abc");
}

TEST(StringUtilTest, TrimWhitespace) {
  EXPECT_EQ(TrimWhitespace("  x y  "), "x y");
  EXPECT_EQ(TrimWhitespace("\t\n abc\r "), "abc");
  EXPECT_EQ(TrimWhitespace("   "), "");
  EXPECT_EQ(TrimWhitespace(""), "");
}

TEST(StringUtilTest, SplitKeepsEmptyPieces) {
  auto parts = Split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(StringUtilTest, JoinRoundTripsSplit) {
  std::vector<std::string> parts{"x", "y", "z"};
  EXPECT_EQ(Join(parts, ", "), "x, y, z");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StringUtilTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("foobar", "foo"));
  EXPECT_FALSE(StartsWith("foo", "foobar"));
  EXPECT_TRUE(EndsWith("foobar", "bar"));
  EXPECT_FALSE(EndsWith("bar", "foobar"));
}

TEST(StringUtilTest, FormatDouble) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(1.0, 0), "1");
}

// --------------------------------------------------------- DynamicBitset --

TEST(DynamicBitsetTest, StartsAllClear) {
  DynamicBitset b(130);
  EXPECT_EQ(b.size(), 130u);
  EXPECT_EQ(b.Count(), 0u);
  EXPECT_TRUE(b.None());
  for (size_t i = 0; i < 130; ++i) EXPECT_FALSE(b.Test(i));
}

TEST(DynamicBitsetTest, ConstructAllSetTrimsTail) {
  DynamicBitset b(70, true);
  EXPECT_EQ(b.Count(), 70u);
  EXPECT_TRUE(b.Test(69));
}

TEST(DynamicBitsetTest, SetResetTest) {
  DynamicBitset b(100);
  b.Set(0);
  b.Set(63);
  b.Set(64);
  b.Set(99);
  EXPECT_EQ(b.Count(), 4u);
  EXPECT_TRUE(b.Test(63));
  EXPECT_TRUE(b.Test(64));
  b.Reset(63);
  EXPECT_FALSE(b.Test(63));
  EXPECT_EQ(b.Count(), 3u);
}

TEST(DynamicBitsetTest, AndOrXorAndNot) {
  DynamicBitset a(10), b(10);
  a.Set(1);
  a.Set(2);
  a.Set(3);
  b.Set(2);
  b.Set(3);
  b.Set(4);

  DynamicBitset c = a & b;
  EXPECT_EQ(c.ToIndices(), (std::vector<size_t>{2, 3}));

  DynamicBitset d = a | b;
  EXPECT_EQ(d.ToIndices(), (std::vector<size_t>{1, 2, 3, 4}));

  DynamicBitset e = a;
  e ^= b;
  EXPECT_EQ(e.ToIndices(), (std::vector<size_t>{1, 4}));

  DynamicBitset f = a;
  f.AndNot(b);
  EXPECT_EQ(f.ToIndices(), (std::vector<size_t>{1}));
}

TEST(DynamicBitsetTest, AndCountMatchesMaterializedAnd) {
  DynamicBitset a(200), b(200);
  for (size_t i = 0; i < 200; i += 3) a.Set(i);
  for (size_t i = 0; i < 200; i += 5) b.Set(i);
  EXPECT_EQ(a.AndCount(b), (a & b).Count());
}

TEST(DynamicBitsetTest, IntersectsAndSubset) {
  DynamicBitset a(66), b(66), c(66);
  a.Set(65);
  b.Set(65);
  b.Set(1);
  c.Set(2);
  EXPECT_TRUE(a.Intersects(b));
  EXPECT_FALSE(a.Intersects(c));
  EXPECT_TRUE(a.IsSubsetOf(b));
  EXPECT_FALSE(b.IsSubsetOf(a));
  DynamicBitset empty(66);
  EXPECT_TRUE(empty.IsSubsetOf(a));
}

TEST(DynamicBitsetTest, SetAllResetAll) {
  DynamicBitset b(129);
  b.SetAll();
  EXPECT_EQ(b.Count(), 129u);
  b.ResetAll();
  EXPECT_EQ(b.Count(), 0u);
}

TEST(DynamicBitsetTest, ForEachSetBitAscending) {
  DynamicBitset b(300);
  std::vector<size_t> expected{0, 64, 128, 200, 299};
  for (size_t i : expected) b.Set(i);
  std::vector<size_t> seen;
  b.ForEachSetBit([&](size_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, expected);
}

TEST(DynamicBitsetTest, EqualityAndEmptyEdge) {
  DynamicBitset a(0), b(0);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.Count(), 0u);
  DynamicBitset c(5), d(5);
  c.Set(3);
  d.Set(3);
  EXPECT_EQ(c, d);
  d.Set(4);
  EXPECT_FALSE(c == d);
}

TEST(DynamicBitsetTest, NoneAndAny) {
  DynamicBitset b(200);
  EXPECT_TRUE(b.None());
  EXPECT_FALSE(b.Any());
  b.Set(199);  // Last word: early exit must still scan to the end.
  EXPECT_FALSE(b.None());
  EXPECT_TRUE(b.Any());
  b.Reset(199);
  b.Set(0);
  EXPECT_FALSE(b.None());
  DynamicBitset empty(0);
  EXPECT_TRUE(empty.None());
}

TEST(DynamicBitsetTest, ReinitializeReusesAndResizes) {
  DynamicBitset b(70);
  b.Set(3);
  b.Set(69);
  b.Reinitialize(70);
  EXPECT_EQ(b.size(), 70u);
  EXPECT_TRUE(b.None());
  b.Reinitialize(70, true);
  EXPECT_EQ(b.Count(), 70u);  // Tail bits past size stay clear.
  b.Reinitialize(3, true);
  EXPECT_EQ(b.size(), 3u);
  EXPECT_EQ(b.Count(), 3u);
  b.Reinitialize(130, true);
  EXPECT_EQ(b.size(), 130u);
  EXPECT_EQ(b.Count(), 130u);
}

TEST(DynamicBitsetTest, FusedCountKernels) {
  // Patterns straddling a word boundary so both words carry data.
  DynamicBitset a(130), b(130), c(130);
  for (size_t i : {0u, 5u, 63u, 64u, 100u, 129u}) a.Set(i);
  for (size_t i : {5u, 64u, 128u, 129u}) b.Set(i);
  for (size_t i : {0u, 5u, 64u, 129u}) c.Set(i);

  // a & ~b = {0, 63, 100}
  EXPECT_EQ(a.AndNotCount(b), 3u);
  // a & b & c = {5, 64, 129}
  EXPECT_EQ(a.AndCount3(b, c), 3u);
  EXPECT_TRUE(a.Intersects(b, c));
  // a & ~b & c = {0}
  EXPECT_EQ(a.AndNotAndCount(b, c), 1u);

  DynamicBitset disjoint(130);
  disjoint.Set(1);
  EXPECT_FALSE(a.Intersects(b, disjoint));
  EXPECT_EQ(a.AndCount3(b, disjoint), 0u);
  EXPECT_EQ(a.AndNotCount(a), 0u);
}

TEST(DynamicBitsetTest, ForEachWordVisitsAllOperands) {
  DynamicBitset a(128), b(128), c(128);
  a.Set(0);
  b.Set(64);
  c.Set(127);
  size_t fused_count = 0;
  DynamicBitset::ForEachWord(
      [&](size_t w, uint64_t wa, uint64_t wb, uint64_t wc) {
        (void)w;
        fused_count += static_cast<size_t>(__builtin_popcountll(wa | wb | wc));
      },
      a, b, c);
  EXPECT_EQ(fused_count, 3u);
}

/// The count and predicate kernels against a per-bit Test() loop. Sizes
/// 0..300 cover every tail length and sets of up to five words; operands
/// mix empty, full and random words so the early-exit predicates take both
/// paths.
TEST(DynamicBitsetTest, WordKernelsMatchPerBitReference) {
  Rng rng(17);
  for (int iter = 0; iter < 400; ++iter) {
    const size_t size = rng.UniformInt(301);
    auto random_bits = [&] {
      const double p = rng.Bernoulli(0.2)   ? 0.0
                       : rng.Bernoulli(0.2) ? 1.0
                                            : rng.UniformDouble();
      DynamicBitset bits(size);
      for (size_t i = 0; i < size; ++i) {
        if (rng.Bernoulli(p)) bits.Set(i);
      }
      return bits;
    };
    const DynamicBitset a = random_bits();
    const DynamicBitset b = random_bits();
    const DynamicBitset c = random_bits();
    size_t count = 0, and_count = 0, and_not = 0, and3 = 0, and_not_and = 0;
    bool subset = true;
    for (size_t i = 0; i < size; ++i) {
      const bool x = a.Test(i), y = b.Test(i), z = c.Test(i);
      count += x;
      and_count += x && y;
      and_not += x && !y;
      and3 += x && y && z;
      and_not_and += x && !y && z;
      subset = subset && (!x || y);
    }
    SCOPED_TRACE("size=" + std::to_string(size));
    ASSERT_EQ(a.Count(), count);
    ASSERT_EQ(a.AndCount(b), and_count);
    ASSERT_EQ(a.AndNotCount(b), and_not);
    ASSERT_EQ(a.AndCount3(b, c), and3);
    ASSERT_EQ(a.AndNotAndCount(b, c), and_not_and);
    ASSERT_EQ(a.None(), count == 0);
    ASSERT_EQ(a.Intersects(b), and_count != 0);
    ASSERT_EQ(a.Intersects(b, c), and3 != 0);
    ASSERT_EQ(a.IsSubsetOf(b), subset);
  }
}


// ------------------------------------------------------------- SweepPool --

TEST(SweepPoolTest, SerialRunExecutesInlineWithoutThePool) {
  auto& pool = common::SweepPool::Instance();
  const auto before = pool.GetStats();
  int calls = 0;
  pool.Run(1, [&] { ++calls; });
  pool.Run(0, [&] { ++calls; });
  EXPECT_EQ(calls, 2);
  const auto after = pool.GetStats();
  EXPECT_EQ(after.runs, before.runs);
  EXPECT_EQ(after.spawns, before.spawns);
}

TEST(SweepPoolTest, AllWorkersRunTheBodyExactlyOnce) {
  auto& pool = common::SweepPool::Instance();
  for (size_t threads : {size_t{2}, size_t{4}, size_t{7}}) {
    std::atomic<int> calls{0};
    pool.Run(threads, [&] { calls.fetch_add(1); });
    EXPECT_EQ(calls.load(), static_cast<int>(threads));
  }
}

TEST(SweepPoolTest, WorkStealingClosureCoversEveryItem) {
  auto& pool = common::SweepPool::Instance();
  constexpr size_t kItems = 1000;
  std::vector<int> hit(kItems, 0);
  std::atomic<size_t> next{0};
  pool.Run(4, [&] {
    for (size_t i = next.fetch_add(1); i < kItems; i = next.fetch_add(1)) {
      hit[i] += 1;
    }
  });
  for (size_t i = 0; i < kItems; ++i) ASSERT_EQ(hit[i], 1) << i;
}

TEST(SweepPoolTest, StopsSpawningAfterWarmup) {
  // Mirror of ScratchArenaStopsAllocatingAfterWarmup: after one warm-up
  // sweep at a given width, further sweeps must be served entirely by
  // parked workers — zero thread spawns in the steady state.
  auto& pool = common::SweepPool::Instance();
  constexpr size_t kThreads = 4;
  pool.Run(kThreads, [] {});  // Warm the pool.
  const auto before = pool.GetStats();
  constexpr uint64_t kRuns = 50;
  for (uint64_t i = 0; i < kRuns; ++i) {
    std::atomic<int> calls{0};
    pool.Run(kThreads, [&] { calls.fetch_add(1); });
    ASSERT_EQ(calls.load(), static_cast<int>(kThreads));
  }
  const auto after = pool.GetStats();
  EXPECT_EQ(after.spawns, before.spawns);
  EXPECT_EQ(after.runs, before.runs + kRuns);
  EXPECT_EQ(after.reuses, before.reuses + kRuns * (kThreads - 1));
}

TEST(SweepPoolTest, NestedRunsDoNotDeadlock) {
  // QueryExpander fans clusters out over the pool while each cluster's
  // expander runs its own sweeps on the same pool.
  auto& pool = common::SweepPool::Instance();
  std::atomic<int> inner_calls{0};
  std::atomic<size_t> next{0};
  pool.Run(3, [&] {
    for (size_t i = next.fetch_add(1); i < 6; i = next.fetch_add(1)) {
      pool.Run(2, [&] { inner_calls.fetch_add(1); });
    }
  });
  EXPECT_EQ(inner_calls.load(), 12);
}

// ----------------------------------------------------------- ParallelFor --

TEST(ParallelForTest, VisitsEveryIndexExactlyOnce) {
  for (size_t n : {size_t{0}, size_t{1}, size_t{1000}}) {
    for (size_t threads : {size_t{0}, size_t{1}, size_t{2}, n + 3}) {
      SCOPED_TRACE("n=" + std::to_string(n) +
                   " threads=" + std::to_string(threads));
      std::vector<std::atomic<int>> hits(n);
      common::ParallelFor(threads, n, [&](size_t i) { hits[i].fetch_add(1); });
      for (size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i].load(), 1) << i;
    }
  }
}

TEST(ParallelForTest, OneWorkerLoopsInlineInIndexOrder) {
  auto& pool = common::SweepPool::Instance();
  const auto before = pool.GetStats();
  std::vector<size_t> order;
  common::ParallelFor(1, 5, [&](size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4}));
  // n = 1 clamps any requested width to a single inline worker.
  common::ParallelFor(8, 1, [&](size_t i) { order.push_back(i); });
  EXPECT_EQ(order.size(), 6u);
  EXPECT_EQ(pool.GetStats().runs, before.runs);
}

TEST(ParallelForTest, NestedCallsVisitEveryPairOnce) {
  // QueryExpander's per-cluster fan-out nests each expander's candidate
  // sweeps inside its body.
  constexpr size_t kOuter = 6;
  constexpr size_t kInner = 50;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  common::ParallelFor(3, kOuter, [&](size_t i) {
    common::ParallelFor(2, kInner, [&](size_t j) {
      hits[i * kInner + j].fetch_add(1);
    });
  });
  for (size_t i = 0; i < hits.size(); ++i) ASSERT_EQ(hits[i].load(), 1) << i;
}

}  // namespace
}  // namespace qec
