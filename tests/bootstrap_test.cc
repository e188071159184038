// Tests for the paired-bootstrap significance helper.

#include <gtest/gtest.h>

#include "common/random.h"
#include "eval/bootstrap.h"

namespace qec {
namespace {

TEST(BootstrapTest, ClearDifferenceIsSignificant) {
  std::vector<double> a(20, 0.9), b(20, 0.5);
  // Add tiny jitter so the resampled means are not all identical.
  Rng rng(3);
  for (auto& v : a) v += rng.UniformDouble() * 0.01;
  for (auto& v : b) v += rng.UniformDouble() * 0.01;
  auto ci = eval::PairedBootstrap(a, b);
  EXPECT_NEAR(ci.mean_difference, 0.4, 0.02);
  EXPECT_TRUE(ci.significant);
  EXPECT_GT(ci.low, 0.3);
  EXPECT_LT(ci.high, 0.5);
}

TEST(BootstrapTest, NoiseIsNotSignificant) {
  Rng rng(7);
  std::vector<double> a, b;
  for (int i = 0; i < 20; ++i) {
    double base = rng.UniformDouble();
    a.push_back(base + rng.Gaussian(0.0, 0.1));
    b.push_back(base + rng.Gaussian(0.0, 0.1));
  }
  auto ci = eval::PairedBootstrap(a, b);
  EXPECT_FALSE(ci.significant);
  EXPECT_LE(ci.low, ci.mean_difference);
  EXPECT_GE(ci.high, ci.mean_difference);
}

TEST(BootstrapTest, DeterministicForFixedSeed) {
  std::vector<double> a = {0.5, 0.7, 0.9, 0.4, 0.6};
  std::vector<double> b = {0.4, 0.5, 0.8, 0.5, 0.5};
  auto x = eval::PairedBootstrap(a, b, 0.95, 1000, 42);
  auto y = eval::PairedBootstrap(a, b, 0.95, 1000, 42);
  EXPECT_DOUBLE_EQ(x.low, y.low);
  EXPECT_DOUBLE_EQ(x.high, y.high);
}

TEST(BootstrapTest, NegativeDifferenceDetected) {
  std::vector<double> a(10, 0.2), b(10, 0.8);
  Rng rng(5);
  for (auto& v : a) v += rng.UniformDouble() * 0.01;
  auto ci = eval::PairedBootstrap(a, b);
  EXPECT_LT(ci.mean_difference, 0.0);
  EXPECT_TRUE(ci.significant);
  EXPECT_LT(ci.high, 0.0);
}

TEST(BootstrapTest, ConfidenceWidthMonotone) {
  Rng rng(9);
  std::vector<double> a, b;
  for (int i = 0; i < 30; ++i) {
    a.push_back(rng.UniformDouble());
    b.push_back(rng.UniformDouble());
  }
  auto narrow = eval::PairedBootstrap(a, b, 0.80);
  auto wide = eval::PairedBootstrap(a, b, 0.99);
  EXPECT_LE(wide.low, narrow.low);
  EXPECT_GE(wide.high, narrow.high);
}

}  // namespace
}  // namespace qec
