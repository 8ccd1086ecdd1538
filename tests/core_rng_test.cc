#include "core/rng.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <set>

#include <gtest/gtest.h>

namespace bikegraph {
namespace {

TEST(RngTest, SameSeedSameSequence) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, NextDoubleMeanNearHalf) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.NextDouble();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(RngTest, NextBoundedStaysInBound) {
  Rng rng(3);
  for (uint64_t bound : {1ULL, 2ULL, 7ULL, 1000ULL}) {
    for (int i = 0; i < 1000; ++i) {
      EXPECT_LT(rng.NextBounded(bound), bound);
    }
  }
}

TEST(RngTest, NextBoundedCoversAllValues) {
  Rng rng(5);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.NextBounded(10));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(RngTest, NextIntInclusiveRange) {
  Rng rng(9);
  std::set<int64_t> seen;
  for (int i = 0; i < 500; ++i) {
    int64_t v = rng.NextInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(RngTest, GaussianMomentsMatch) {
  Rng rng(13);
  const int n = 200000;
  double sum = 0.0, sq = 0.0;
  for (int i = 0; i < n; ++i) {
    double v = rng.NextGaussian();
    sum += v;
    sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(RngTest, GaussianWithParams) {
  Rng rng(17);
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.NextGaussian(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.05);
}

TEST(RngTest, ExponentialMeanIsInverseRate) {
  Rng rng(19);
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.NextExponential(0.5);
  EXPECT_NEAR(sum / n, 2.0, 0.1);
}

TEST(RngTest, PoissonMeanMatches) {
  Rng rng(23);
  for (double mean : {0.5, 3.0, 20.0, 100.0}) {
    const int n = 20000;
    double sum = 0.0;
    for (int i = 0; i < n; ++i) sum += rng.NextPoisson(mean);
    EXPECT_NEAR(sum / n, mean, mean * 0.05 + 0.05) << "mean=" << mean;
  }
}

TEST(RngTest, PoissonZeroMean) {
  Rng rng(29);
  EXPECT_EQ(rng.NextPoisson(0.0), 0);
}

TEST(RngTest, WeightedRespectsWeights) {
  Rng rng(31);
  std::vector<double> w = {1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 40000; ++i) ++counts[rng.NextWeighted(w)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.2);
}

TEST(RngTest, WeightedIgnoresNegativeWeights) {
  Rng rng(37);
  std::vector<double> w = {-5.0, 1.0};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.NextWeighted(w), 1u);
  }
}

TEST(RngTest, CumulativeDrawMatchesNextWeighted) {
  // 1000 seeded weight vectors: zeros, negative weights, single elements,
  // all the mass in the last slot and subnormal weights among them. Two identically seeded
  // generators must pick the same index on every draw, one by a linear
  // NextWeighted scan and one by NextFromCumulative's binary search.
  Rng gen(2024);
  for (int trial = 0; trial < 1000; ++trial) {
    std::vector<double> w(1 + gen.NextBounded(40));
    for (double& x : w) {
      switch (gen.NextBounded(4)) {
        case 0:
          x = 0.0;
          break;
        case 1:
          x = -gen.NextUniform(0.0, 5.0);
          break;
        default:
          x = gen.NextExponential(1.0) * std::pow(10.0, gen.NextUniform(-8, 8));
          break;
      }
    }
    if (trial % 10 == 0) w = {gen.NextUniform(0.1, 3.0)};
    if (trial % 10 == 1) {
      for (size_t i = 0; i + 1 < w.size(); ++i) w[i] = i % 2 ? 0.0 : -1.0;
      w.back() = 2.5;
    }
    if (trial % 10 == 2) {
      // Weights of a few subnormal units: the draw's target then rounds
      // onto a running sum about half the time, which is where "first sum
      // above the target" and "first sum at or above it" part ways.
      for (double& x : w) {
        x = std::numeric_limits<double>::denorm_min() *
            static_cast<double>(gen.NextBounded(4));
      }
    }
    if (std::none_of(w.begin(), w.end(), [](double x) { return x > 0.0; })) {
      w.back() = 1.0;
    }
    const std::vector<double> cdf = CumulativeWeights(w);
    ASSERT_EQ(cdf.size(), w.size());
    Rng linear(static_cast<uint64_t>(trial)), cumulative(static_cast<uint64_t>(trial));
    for (int draw = 0; draw < 50; ++draw) {
      ASSERT_EQ(linear.NextWeighted(w), cumulative.NextFromCumulative(cdf))
          << "trial " << trial << " draw " << draw;
    }
  }
}

TEST(RngTest, CumulativeWeightsClampNonPositive) {
  EXPECT_EQ(CumulativeWeights(std::vector<double>{1.0, -2.0, 0.0, 3.0}),
            (std::vector<double>{1.0, 1.0, 1.0, 4.0}));
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(41);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  auto original = v;
  rng.Shuffle(&v);
  EXPECT_NE(v, original);  // astronomically unlikely to be identity
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

TEST(RngTest, ShuffleDeterministicForSeed) {
  std::vector<int> a(50), b(50);
  std::iota(a.begin(), a.end(), 0);
  std::iota(b.begin(), b.end(), 0);
  Rng r1(99), r2(99);
  r1.Shuffle(&a);
  r2.Shuffle(&b);
  EXPECT_EQ(a, b);
}

TEST(RngTest, ShuffleHandlesTinyInputs) {
  Rng rng(43);
  std::vector<int> empty;
  rng.Shuffle(&empty);
  EXPECT_TRUE(empty.empty());
  std::vector<int> one = {7};
  rng.Shuffle(&one);
  EXPECT_EQ(one, std::vector<int>{7});
}

}  // namespace
}  // namespace bikegraph
