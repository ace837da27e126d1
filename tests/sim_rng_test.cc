#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
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

// The in-tree engine replaces std::mt19937_64 without changing a single
// draw. Ten million draws per seed cross about 32,000 twists.
TEST(Rng, RawMatchesTheStandardEngine)
{
    constexpr int kDraws = 10'000'000;
    for (uint64_t seed : {uint64_t(0), uint64_t(1),
                          uint64_t(0x5eed'cafe'f00d'd00dULL), ~uint64_t(0)}) {
        std::mt19937_64 want(seed);
        Rng got(seed);
        for (int i = 0; i < kDraws; ++i)
            ASSERT_EQ(got.raw(), want()) << "seed " << seed << " draw " << i;
    }
    std::mt19937_64 fallback(0x5eed'cafe'f00d'd00dULL);
    Rng byDefault;
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(byDefault.raw(), fallback()) << "default seed draw " << i;
}

TEST(Rng, SplitChainMatchesTheStandardEngine)
{
    std::mt19937_64 want(7);
    Rng got(7);
    for (int depth = 0; depth < 8; ++depth) {
        // Draw a little first, so each split comes from mid-block.
        for (int i = 0; i < 1000 + 37 * depth; ++i)
            ASSERT_EQ(got.raw(), want()) << "depth " << depth;
        want = std::mt19937_64(want() ^ 0x9e3779b97f4a7c15ULL);
        got = got.split();
        for (int i = 0; i < 1'000'000; ++i)
            ASSERT_EQ(got.raw(), want()) << "depth " << depth << " draw " << i;
    }
}

// exponential() computes what std::exponential_distribution<double>
// computes over std::mt19937_64, so every arrival of every trace stays.
TEST(Rng, ExponentialMatchesTheStandardDistributionBitForBit)
{
    const uint64_t edges[] = {0, 1, uint64_t(1) << 63, ~uint64_t(0),
                              0xfffffffffffffc00ull};
    const double means[] = {1e-9, 0.022, 1.0, 8.0, 1e9};
    for (double mean : means) {
        std::exponential_distribution<double> dist(1.0 / mean);
        for (uint64_t x : edges) {
            FixedDraw g{x};
            const double want = dist(g);
            const double got = Rng::exponentialOf(x, mean);
            EXPECT_EQ(std::memcmp(&want, &got, sizeof want), 0)
                << "mean " << mean << " draw " << std::hex << x << ": "
                << want << " vs " << got;
        }
        std::mt19937_64 eng(0xe4b0);
        Rng rng(0xe4b0);
        for (int i = 0; i < 1000000; ++i) {
            const double want = dist(eng);
            const double got = rng.exponential(mean);
            ASSERT_EQ(std::memcmp(&want, &got, sizeof want), 0)
                << "mean " << mean << " draw " << i;
        }
    }
}

// index(), intRange() and shuffle() draw through
// std::uniform_int_distribution, which may take several raw draws per
// value; interleaving them checks that each consumes what the standard
// engine would.
TEST(Rng, IntegerDrawsMatchAStandardEngineReference)
{
    std::mt19937_64 eng(0x1d3);
    auto index = [&](uint64_t n) {
        return std::uniform_int_distribution<uint64_t>(0, n - 1)(eng);
    };
    auto intRange = [&](int64_t lo, int64_t hi) {
        return std::uniform_int_distribution<int64_t>(lo, hi)(eng);
    };
    Rng rng(0x1d3);
    const uint64_t ns[] = {1, 2, 3, 7, 1000, (uint64_t(1) << 32) + 1,
                           uint64_t(1) << 63, (uint64_t(1) << 63) + 12345,
                           ~uint64_t(0)};
    const int64_t lo = std::numeric_limits<int64_t>::min();
    const int64_t hi = std::numeric_limits<int64_t>::max();
    for (int round = 0; round < 20000; ++round) {
        for (uint64_t n : ns)
            ASSERT_EQ(rng.index(n), index(n)) << "n " << n;
        ASSERT_EQ(rng.intRange(-2, 2), intRange(-2, 2));
        ASSERT_EQ(rng.intRange(-1000000, 3), intRange(-1000000, 3));
        ASSERT_EQ(rng.intRange(lo, hi), intRange(lo, hi));
        ASSERT_EQ(rng.intRange(5, 5), intRange(5, 5));
    }
    for (size_t size : {size_t(0), size_t(1), size_t(2), size_t(50),
                        size_t(4097)}) {
        std::vector<int> got(size), want(size);
        std::iota(got.begin(), got.end(), 0);
        std::iota(want.begin(), want.end(), 0);
        rng.shuffle(got);
        for (size_t i = want.size(); i > 1; --i)
            std::swap(want[i - 1], want[index(i)]);
        ASSERT_EQ(got, want) << "size " << size;
    }
    ASSERT_EQ(rng.raw(), eng());
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
