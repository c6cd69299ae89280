// Deterministic RNG: reproducibility, distribution sanity, stream
// independence.

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "sim/rng.hpp"

namespace hs = hpcs::sim;

TEST(Rng, DeterministicFromSeed) {
  hs::Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  hs::Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i)
    if (a() == b()) ++equal;
  EXPECT_LT(equal, 2);
}

TEST(Rng, UniformInUnitInterval) {
  hs::Rng r(7);
  double mn = 1.0, mx = 0.0, sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double u = r.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    mn = std::min(mn, u);
    mx = std::max(mx, u);
    sum += u;
  }
  EXPECT_NEAR(sum / n, 0.5, 0.01);
  EXPECT_LT(mn, 0.001);
  EXPECT_GT(mx, 0.999);
}

TEST(Rng, UniformRange) {
  hs::Rng r(8);
  for (int i = 0; i < 1000; ++i) {
    const double v = r.uniform(-3.0, 5.0);
    EXPECT_GE(v, -3.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(Rng, UniformIntInclusive) {
  hs::Rng r(9);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.uniform_int(2, 5);
    EXPECT_GE(v, 2);
    EXPECT_LE(v, 5);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 4u);  // all values hit
}

TEST(Rng, NormalMoments) {
  hs::Rng r(10);
  const int n = 200000;
  double sum = 0, sum2 = 0;
  for (int i = 0; i < n; ++i) {
    const double x = r.normal(2.0, 3.0);
    sum += x;
    sum2 += x * x;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.05);
  EXPECT_NEAR(std::sqrt(var), 3.0, 0.05);
}

TEST(Rng, ExponentialMean) {
  hs::Rng r(11);
  const int n = 100000;
  double sum = 0;
  for (int i = 0; i < n; ++i) {
    const double x = r.exponential(4.0);
    ASSERT_GE(x, 0.0);
    sum += x;
  }
  EXPECT_NEAR(sum / n, 0.25, 0.01);
}

TEST(Rng, LognormalMedian) {
  hs::Rng r(12);
  const int n = 100001;
  std::vector<double> v(n);
  for (auto& x : v) x = r.lognormal_median(2.5, 0.3);
  std::nth_element(v.begin(), v.begin() + n / 2, v.end());
  EXPECT_NEAR(v[n / 2], 2.5, 0.05);
}

TEST(Rng, NamedChildStreamsIndependent) {
  hs::Rng root(42);
  auto a = root.child("deployment");
  auto b = root.child("noise");
  int equal = 0;
  for (int i = 0; i < 100; ++i)
    if (a() == b()) ++equal;
  EXPECT_LT(equal, 2);
}

TEST(Rng, NamedChildDeterministic) {
  hs::Rng r1(42), r2(42);
  auto a = r1.child("x");
  auto b = r2.child("x");
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, IndexedChildrenDiffer) {
  hs::Rng root(42);
  auto a = root.child(std::uint64_t{0});
  auto b = root.child(std::uint64_t{1});
  int equal = 0;
  for (int i = 0; i < 100; ++i)
    if (a() == b()) ++equal;
  EXPECT_LT(equal, 2);
}

TEST(Rng, ChildDerivedFromSeedNotState) {
  // Drawing from the parent must not change what a child stream produces.
  hs::Rng r1(42), r2(42);
  (void)r1();
  (void)r1();
  auto a = r1.child("s");
  auto b = r2.child("s");
  EXPECT_EQ(a(), b());
}

TEST(Rng, BitStreamIsPinned) {
  // Literal values of one seed's stream.  Every golden and pin depends on
  // these bits, so moving code between rng.hpp and rng.cpp, or touching
  // the generator, must leave them unchanged.
  hs::Rng r(20190520);
  EXPECT_EQ(r(), 0x85582ad2757f318aull);
  EXPECT_EQ(r(), 0x5248f66046e548cbull);
  EXPECT_EQ(r(), 0xd5868bfa07c872b7ull);
  EXPECT_EQ(r.uniform(), 0x1.c1c3e2ca0ee2ep-2);
  EXPECT_EQ(r.uniform(), 0x1.ff5a46eaa6961p-1);
  EXPECT_EQ(r.uniform(), 0x1.e4055ddfce29p-3);
  // normal() consumes pinned uniforms but goes through libm's log, sqrt
  // and cos, which C libraries may round differently in the last place;
  // within 4 ulp still fails on any change to the draws.
  EXPECT_DOUBLE_EQ(r.normal(), 0x1.11781f21d6e0bp-1);
  EXPECT_DOUBLE_EQ(r.normal(), 0x1.44a56a4936d7ap-4);
  EXPECT_DOUBLE_EQ(r.normal(), 0x1.af5cb49d9ff02p-2);
  // Children derive from the seed, so the draws above do not move them.
  EXPECT_EQ(r.child(std::uint64_t{12345})(), 0x201c6a7a1420e76eull);
  EXPECT_EQ(r.child("rank")(), 0x1dae4ede0c749c31ull);
  EXPECT_EQ(hs::Rng(20190520).child(std::uint64_t{0})(),
            0x21ca2f37b3d34bedull);
}

TEST(Hash64, StableAndDistinct) {
  EXPECT_EQ(hs::hash64("abc"), hs::hash64("abc"));
  EXPECT_NE(hs::hash64("abc"), hs::hash64("abd"));
  EXPECT_NE(hs::hash64(""), hs::hash64("a"));
}

TEST(Splitmix, AdvancesState) {
  std::uint64_t s = 1;
  const auto a = hs::splitmix64(s);
  const auto b = hs::splitmix64(s);
  EXPECT_NE(a, b);
  EXPECT_NE(s, 1u);
}
