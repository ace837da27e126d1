#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "sim/rng.hh"
#include "sim/stats.hh"

namespace cxlfork::sim {
namespace {

TEST(Counter, IncAndReset)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.inc();
    c.inc(4);
    EXPECT_EQ(c.value(), 5u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Summary, TracksMoments)
{
    Summary s;
    EXPECT_EQ(s.mean(), 0.0);
    s.add(1.0);
    s.add(3.0);
    s.add(2.0);
    EXPECT_EQ(s.count(), 3u);
    EXPECT_DOUBLE_EQ(s.mean(), 2.0);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 3.0);
    EXPECT_DOUBLE_EQ(s.total(), 6.0);
}

TEST(Histogram, ExactPercentiles)
{
    Histogram h;
    for (int i = 1; i <= 100; ++i)
        h.add(double(i));
    EXPECT_DOUBLE_EQ(h.p50(), 50.0);
    EXPECT_DOUBLE_EQ(h.p99(), 99.0);
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 100.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(h.min(), 1.0);
    EXPECT_DOUBLE_EQ(h.max(), 100.0);
    EXPECT_DOUBLE_EQ(h.mean(), 50.5);
}

TEST(Histogram, SingleSample)
{
    Histogram h;
    h.add(7.0);
    EXPECT_DOUBLE_EQ(h.p50(), 7.0);
    EXPECT_DOUBLE_EQ(h.p99(), 7.0);
}

TEST(Histogram, EmptyIsZero)
{
    Histogram h;
    EXPECT_DOUBLE_EQ(h.p99(), 0.0);
    EXPECT_EQ(h.count(), 0u);
}

TEST(Histogram, AddSimTimeUsesNs)
{
    Histogram h;
    h.add(SimTime::us(1));
    EXPECT_DOUBLE_EQ(h.p50(), 1000.0);
}

TEST(Histogram, InterleavedAddAndQuery)
{
    Histogram h;
    h.add(10.0);
    EXPECT_DOUBLE_EQ(h.p99(), 10.0);
    h.add(20.0);
    EXPECT_DOUBLE_EQ(h.p99(), 20.0);
    h.clear();
    EXPECT_EQ(h.count(), 0u);
}

// percentile(), min() and max() select instead of sorting every sample;
// each must equal what a fully sorted copy gives, query after query.
TEST(Histogram, SelectionMatchesAFullySortedReference)
{
    const double qs[] = {0.99, 0.0, 0.5, 1.0, 0.25, 0.999, 0.5, 0.01, 0.75};
    auto check = [&](const std::vector<double> &samples) {
        Histogram h;
        for (double v : samples)
            h.add(v);
        std::vector<double> sorted = samples;
        std::sort(sorted.begin(), sorted.end());
        const size_t n = sorted.size();
        for (double q : qs) {
            size_t rank = size_t(std::ceil(q * double(n)));
            rank = std::max<size_t>(rank, 1);
            EXPECT_EQ(h.percentile(q), n ? sorted[rank - 1] : 0.0)
                << "q " << q << " over " << n << " samples";
        }
        EXPECT_EQ(h.min(), n ? sorted.front() : 0.0);
        EXPECT_EQ(h.max(), n ? sorted.back() : 0.0);
    };

    Rng rng(31);
    std::vector<double> random(10007);
    for (double &v : random)
        v = rng.exponential(1e6);
    check(random);

    std::vector<double> duplicates(5000);
    for (double &v : duplicates)
        v = double(rng.index(4));
    check(duplicates);

    check({42.0});
    check({});

    // A query between adds sees the later samples too.
    Histogram h;
    std::vector<double> seen;
    for (int i = 0; i < 300; ++i) {
        const double v = rng.uniform(-5.0, 5.0);
        h.add(v);
        seen.push_back(v);
        if (i % 37 == 0) {
            std::vector<double> sorted = seen;
            std::sort(sorted.begin(), sorted.end());
            const size_t rank = std::max<size_t>(
                size_t(std::ceil(0.9 * double(sorted.size()))), 1);
            ASSERT_EQ(h.percentile(0.9), sorted[rank - 1]) << "add " << i;
            ASSERT_EQ(h.min(), sorted.front());
            ASSERT_EQ(h.max(), sorted.back());
        }
    }
}

TEST(Histogram, PercentileOutOfRangePanics)
{
    Histogram h;
    h.add(1.0);
    EXPECT_DEATH(h.percentile(1.5), "out of");
}

TEST(Summary, MergeFoldsCountTotalAndExtrema)
{
    Summary a;
    a.add(2.0);
    a.add(10.0);
    Summary b;
    b.add(-1.0);
    a.merge(b);
    EXPECT_EQ(a.count(), 3u);
    EXPECT_EQ(a.total(), 11.0);
    EXPECT_EQ(a.min(), -1.0);
    EXPECT_EQ(a.max(), 10.0);

    // Merging an empty summary changes nothing (not even min/max).
    a.merge(Summary{});
    EXPECT_EQ(a.count(), 3u);
    EXPECT_EQ(a.min(), -1.0);

    // Merging into an empty summary adopts the source wholesale.
    Summary c;
    c.merge(a);
    EXPECT_EQ(c.count(), 3u);
    EXPECT_EQ(c.total(), 11.0);
    EXPECT_EQ(c.min(), -1.0);
    EXPECT_EQ(c.max(), 10.0);
}

} // namespace
} // namespace cxlfork::sim
