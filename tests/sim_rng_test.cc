#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <numeric>
#include <random>

#include "sim/rng.hh"

namespace cxlfork::sim {
namespace {

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.raw(), b.raw());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.raw() == b.raw();
    EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(7);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        const double v = r.uniform();
        ASSERT_GE(v, 0.0);
        ASSERT_LT(v, 1.0);
        sum += v;
    }
    EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

/** Hands out one fixed 64-bit value: a URBG for edge draws. */
struct FixedDraw
{
    using result_type = uint64_t;
    static constexpr uint64_t min() { return 0; }
    static constexpr uint64_t max() { return ~uint64_t(0); }
    uint64_t operator()() { return value; }
    uint64_t value;
};

// uniform() replaces std::uniform_real_distribution<double>(0, 1) over
// mt19937_64 without changing a single draw: every seeded stream, and so
// every digest and golden, depends on it.
TEST(Rng, UniformMatchesTheStandardDistributionBitForBit)
{
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    const uint64_t top = uint64_t(1) << 63;
    const uint64_t edges[] = {0,
                              1,
                              uint64_t(1) << 53,
                              (uint64_t(1) << 53) + 1,
                              top - 1,
                              top,
                              top + 1,
                              top + 0x400, // a tie: rounds to even
                              top + 0xc00, // a tie: rounds up
                              0x7ffffffffffffe00ull,
                              ~uint64_t(0) - 2047,
                              ~uint64_t(0) - 1025,
                              ~uint64_t(0) - 1024,
                              ~uint64_t(0) - 1023, // rounds to 2^64: clamped
                              ~uint64_t(0)};
    for (uint64_t x : edges) {
        FixedDraw g{x};
        const double want = unit(g);
        const double got = Rng::unitOf(x);
        EXPECT_EQ(std::memcmp(&want, &got, sizeof want), 0)
            << std::hex << x << ": " << want << " vs " << got;
    }
    std::mt19937_64 eng(12345);
    Rng rng(12345);
    for (int i = 0; i < 1000000; ++i) {
        const double want = unit(eng);
        const double got = rng.uniform();
        ASSERT_EQ(std::memcmp(&want, &got, sizeof want), 0) << "draw " << i;
    }
}

TEST(Rng, UniformRange)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i) {
        const double v = r.uniform(10.0, 20.0);
        ASSERT_GE(v, 10.0);
        ASSERT_LT(v, 20.0);
    }
}

TEST(Rng, IndexInBounds)
{
    Rng r(9);
    std::vector<int> hits(5, 0);
    for (int i = 0; i < 5000; ++i)
        ++hits[r.index(5)];
    for (int h : hits)
        EXPECT_GT(h, 800) << "each bucket should be hit roughly equally";
}

TEST(Rng, IntRangeInclusive)
{
    Rng r(3);
    bool sawLo = false, sawHi = false;
    for (int i = 0; i < 2000; ++i) {
        const int64_t v = r.intRange(-2, 2);
        ASSERT_GE(v, -2);
        ASSERT_LE(v, 2);
        sawLo |= v == -2;
        sawHi |= v == 2;
    }
    EXPECT_TRUE(sawLo);
    EXPECT_TRUE(sawHi);
}

TEST(Rng, ChanceRespectsProbability)
{
    Rng r(11);
    int yes = 0;
    for (int i = 0; i < 10000; ++i)
        yes += r.chance(0.25);
    EXPECT_NEAR(double(yes) / 10000, 0.25, 0.02);
}

TEST(Rng, ExponentialHasRequestedMean)
{
    Rng r(13);
    double sum = 0;
    for (int i = 0; i < 20000; ++i)
        sum += r.exponential(5.0);
    EXPECT_NEAR(sum / 20000, 5.0, 0.25);
}

TEST(Rng, ParetoBoundedBelowByScale)
{
    Rng r(17);
    for (int i = 0; i < 1000; ++i)
        ASSERT_GE(r.pareto(2.0, 1.5), 2.0);
}

TEST(Rng, ShuffleIsAPermutation)
{
    Rng r(19);
    std::vector<int> v(50);
    std::iota(v.begin(), v.end(), 0);
    auto original = v;
    r.shuffle(v);
    EXPECT_NE(v, original) << "50 elements should not stay in place";
    std::sort(v.begin(), v.end());
    EXPECT_EQ(v, original);
}

TEST(Rng, SplitStreamsAreIndependent)
{
    Rng parent(23);
    Rng c1 = parent.split();
    Rng c2 = parent.split();
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += c1.raw() == c2.raw();
    EXPECT_LT(same, 2);
}

} // namespace
} // namespace cxlfork::sim
