#include "sim/random.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace hrmc::sim {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    const double v = r.next_double();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
  }
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng r(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto v = r.uniform_int(3, 8);
    ASSERT_GE(v, 3);
    ASSERT_LE(v, 8);
    saw_lo |= v == 3;
    saw_hi |= v == 8;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, ChanceExtremes) {
  Rng r(11);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.chance(0.0));
    EXPECT_TRUE(r.chance(1.0));
    EXPECT_FALSE(r.chance(-0.5));
    EXPECT_TRUE(r.chance(1.5));
  }
}

TEST(Rng, ChanceMatchesProbability) {
  Rng r(13);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (r.chance(0.3)) ++hits;
  }
  const double p = static_cast<double>(hits) / n;
  EXPECT_NEAR(p, 0.3, 0.01);
}

TEST(Rng, SatisfiesUniformRandomBitGenerator) {
  Rng r(19);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::shuffle(v.begin(), v.end(), r);  // must compile and not crash
  EXPECT_EQ(v.size(), 8u);
}

TEST(SubstreamSeed, LabelsGiveIndependentSeeds) {
  const auto a = substream_seed(1, "router:0");
  const auto b = substream_seed(1, "router:1");
  const auto c = substream_seed(2, "router:0");
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a, substream_seed(1, "router:0"));  // stable
}

TEST(Rng, ZeroSeedStillWorks) {
  Rng r(0);
  // Must not get stuck in an all-zero state.
  std::uint64_t x = 0;
  for (int i = 0; i < 10; ++i) x |= r.next_u64();
  EXPECT_NE(x, 0u);
}

}  // namespace
}  // namespace hrmc::sim
