#include "common/rng.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace pstore {
namespace {

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
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
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, NextBoundedStaysInBound) {
  Rng rng(9);
  for (uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, 1ULL << 40}) {
    for (int i = 0; i < 1000; ++i) {
      EXPECT_LT(rng.NextBounded(bound), bound);
    }
  }
}

TEST(RngTest, NextBoundedIsRoughlyUniform) {
  Rng rng(11);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.NextBounded(10)];
  for (int c : counts) {
    EXPECT_NEAR(c, n / 10, n / 10 * 0.1);
  }
}

TEST(RngTest, NextIntInclusiveRange) {
  Rng rng(13);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const int64_t v = rng.NextInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, GaussianMomentsMatch) {
  Rng rng(17);
  const int n = 200000;
  double sum = 0, sum2 = 0;
  for (int i = 0; i < n; ++i) {
    const double v = rng.NextGaussian();
    sum += v;
    sum2 += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum2 / n, 1.0, 0.03);
}

// NextGaussians(out, n) is n NextGaussian() calls, bit for bit: the
// same values, the same spare left behind, the same state, so every
// draw after it matches too. 24581 values span several of the bulk
// draw's parallel transform chunks; the smaller counts cover the spare
// at either end.
TEST(RngTest, BulkGaussiansEqualSequentialDraws) {
  for (const bool spare : {false, true}) {
    for (const size_t n : {0u, 1u, 2u, 3u, 4097u, 24581u}) {
      SCOPED_TRACE("n=" + std::to_string(n) +
                   (spare ? " with a pending spare" : ""));
      Rng sequential(99), bulk(99);
      if (spare) {
        EXPECT_EQ(sequential.NextGaussian(), bulk.NextGaussian());
      }
      std::vector<double> expected(n), got(n);
      for (double& v : expected) v = sequential.NextGaussian();
      bulk.NextGaussians(got.data(), n);
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(std::bit_cast<uint64_t>(got[i]),
                  std::bit_cast<uint64_t>(expected[i]))
            << "at " << i;
      }
      EXPECT_EQ(bulk.StateHash(), sequential.StateHash());
      for (int i = 0; i < 3; ++i) {
        EXPECT_EQ(std::bit_cast<uint64_t>(bulk.NextGaussian()),
                  std::bit_cast<uint64_t>(sequential.NextGaussian()));
      }
      EXPECT_EQ(bulk.NextDouble(), sequential.NextDouble());
    }
  }
}

TEST(RngTest, GaussianWithParameters) {
  Rng rng(19);
  const int n = 100000;
  double sum = 0;
  for (int i = 0; i < n; ++i) sum += rng.NextGaussian(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.05);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(23);
  const int n = 200000;
  double sum = 0;
  for (int i = 0; i < n; ++i) sum += rng.NextExponential(4.0);
  EXPECT_NEAR(sum / n, 0.25, 0.01);
}

TEST(RngTest, PoissonSmallMean) {
  Rng rng(29);
  const int n = 100000;
  int64_t sum = 0;
  for (int i = 0; i < n; ++i) sum += rng.NextPoisson(3.5);
  EXPECT_NEAR(static_cast<double>(sum) / n, 3.5, 0.06);
}

TEST(RngTest, PoissonLargeMeanUsesNormalApprox) {
  Rng rng(31);
  const int n = 50000;
  double sum = 0, sum2 = 0;
  for (int i = 0; i < n; ++i) {
    const double v = static_cast<double>(rng.NextPoisson(400.0));
    sum += v;
    sum2 += v * v;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 400.0, 1.5);
  EXPECT_NEAR(var, 400.0, 25.0);
}

TEST(RngTest, PoissonZeroOrNegativeMeanIsZero) {
  Rng rng(37);
  EXPECT_EQ(rng.NextPoisson(0.0), 0);
  EXPECT_EQ(rng.NextPoisson(-5.0), 0);
}

TEST(RngTest, BernoulliEdges) {
  Rng rng(41);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.NextBernoulli(0.0));
    EXPECT_TRUE(rng.NextBernoulli(1.0));
  }
}

TEST(RngTest, BernoulliProbability) {
  Rng rng(43);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.NextBernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, DiscreteFollowsWeights) {
  Rng rng(47);
  const auto cum = CumulativeWeights({1.0, 3.0, 6.0});
  ASSERT_EQ(cum.size(), 3u);
  EXPECT_DOUBLE_EQ(cum.back(), 10.0);
  std::vector<int> counts(3, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.NextDiscrete(cum)];
  EXPECT_NEAR(counts[0], n * 0.1, n * 0.02);
  EXPECT_NEAR(counts[1], n * 0.3, n * 0.02);
  EXPECT_NEAR(counts[2], n * 0.6, n * 0.02);
}

TEST(RngTest, ForkIsIndependent) {
  Rng a(51);
  Rng b = a.Fork();
  // The fork and the parent should produce different streams.
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, SplitMix64KnownSequenceIsDeterministic) {
  uint64_t s1 = 42, s2 = 42;
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(SplitMix64(&s1), SplitMix64(&s2));
  }
  EXPECT_EQ(s1, s2);
}

TEST(RngTest, CumulativeWeightsClampsNegatives) {
  const auto cum = CumulativeWeights({-1.0, 2.0});
  EXPECT_DOUBLE_EQ(cum[0], 0.0);
  EXPECT_DOUBLE_EQ(cum[1], 2.0);
}

}  // namespace
}  // namespace pstore
