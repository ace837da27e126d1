#include <gtest/gtest.h>

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
