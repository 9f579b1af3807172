#include "common/rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

namespace eo {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, NextBelowInRange) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(r.next_below(17), 17u);
  }
}

TEST(Rng, NextBelowRoughlyUniform) {
  Rng r(9);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[r.next_below(10)];
  for (int c : counts) {
    EXPECT_GT(c, n / 10 - n / 50);
    EXPECT_LT(c, n / 10 + n / 50);
  }
}

TEST(Rng, DoubleInUnitInterval) {
  Rng r(11);
  for (int i = 0; i < 10000; ++i) {
    const double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, UniformInclusiveBounds) {
  Rng r(3);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto v = r.uniform(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    if (v == -3) saw_lo = true;
    if (v == 3) saw_hi = true;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, ExponentialMean) {
  Rng r(13);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += r.exponential(50.0);
  EXPECT_NEAR(sum / n, 50.0, 1.0);
}

TEST(Rng, PoissonSmallMean) {
  Rng r(17);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(r.poisson(3.5));
  EXPECT_NEAR(sum / n, 3.5, 0.1);
}

TEST(Rng, PoissonLargeMean) {
  Rng r(19);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(r.poisson(6667.0));
  EXPECT_NEAR(sum / n, 6667.0, 15.0);
}

TEST(Rng, PoissonZeroMean) {
  Rng r(23);
  EXPECT_EQ(r.poisson(0.0), 0u);
  EXPECT_EQ(r.poisson(-1.0), 0u);
}

TEST(Rng, PoissonPositiveLockstepWithPoisson) {
  // poisson_positive must answer poisson(m) != 0 and leave the stream where
  // poisson(m) would, on both sides of the inversion/normal cutover at 32.
  const double means[] = {-1.0,   0.0,    1e-9,  0.5,   3.37,  31.999,
                          32.0,   32.001, 66.7,  337.0, 6667.0, 1e6};
  for (std::uint64_t seed = 0; seed < 256; ++seed) {
    Rng a(seed), b(seed);
    for (int rep = 0; rep < 16; ++rep) {
      for (const double m : means) {
        ASSERT_EQ(a.poisson_positive(m), b.poisson(m) != 0)
            << "seed " << seed << " mean " << m;
        ASSERT_EQ(a.next_u64(), b.next_u64())
            << "seed " << seed << " mean " << m;
      }
    }
  }
}

TEST(Rng, PoissonPositiveExactBranchMatchesPoisson) {
  // This seed's first uniform is 9.5e-7 <= 2^-20, too small to bound the
  // Box-Muller radius, so poisson_positive(32) must evaluate the normal
  // approximation itself.
  ASSERT_LE(Rng(1445042).next_double(), 0x1.0p-20);
  Rng a(1445042), b(1445042);
  EXPECT_EQ(a.poisson_positive(32.0), b.poisson(32.0) != 0);
  EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, NormalMoments) {
  Rng r(29);
  double sum = 0, sq = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double v = r.normal(10.0, 2.0);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.05);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.05);
}

TEST(Rng, ChanceExtremes) {
  Rng r(31);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.chance(0.0));
    EXPECT_TRUE(r.chance(1.0));
  }
}

TEST(Rng, ChanceProbability) {
  Rng r(37);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += r.chance(0.25) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.01);
}

TEST(Rng, SplitIndependence) {
  Rng parent(41);
  Rng child = parent.split();
  // Child stream differs from the parent's continuation.
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (parent.next_u64() == child.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

}  // namespace
}  // namespace eo
