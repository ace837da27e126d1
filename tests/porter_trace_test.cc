#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>

#include "porter/trace.hh"
#include "sim/log.hh"

namespace cxlfork::porter {
namespace {

using sim::SimTime;

TraceConfig
cfg(double rps = 150.0, double secs = 30.0, uint64_t seed = 1)
{
    TraceConfig c;
    c.totalRps = rps;
    c.duration = SimTime::sec(secs);
    c.seed = seed;
    return c;
}

std::vector<std::string>
fns()
{
    return {"Float", "Json", "Bert", "BFS"};
}

TEST(Trace, DeterministicForSameSeed)
{
    TraceGenerator g1(fns(), cfg());
    TraceGenerator g2(fns(), cfg());
    const auto a = g1.generate();
    const auto b = g2.generate();
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].arrival, b[i].arrival);
        EXPECT_EQ(a[i].function, b[i].function);
    }
}

TEST(Trace, DifferentSeedsDiffer)
{
    const auto a = TraceGenerator(fns(), cfg(150, 30, 1)).generate();
    const auto b = TraceGenerator(fns(), cfg(150, 30, 2)).generate();
    EXPECT_NE(a.size(), b.size());
}

TEST(Trace, SortedWithSequentialIds)
{
    const auto reqs = TraceGenerator(fns(), cfg()).generate();
    ASSERT_FALSE(reqs.empty());
    for (size_t i = 1; i < reqs.size(); ++i) {
        EXPECT_LE(reqs[i - 1].arrival, reqs[i].arrival);
        EXPECT_EQ(reqs[i].id, reqs[i - 1].id + 1);
    }
}

TEST(Trace, AggregateRateNearTarget)
{
    const auto c = cfg(150, 60, 7);
    const auto reqs = TraceGenerator(fns(), c).generate();
    const double rps = TraceGenerator::measuredRps(reqs, c.duration);
    EXPECT_NEAR(rps, 150.0, 30.0);
}

TEST(Trace, AllFunctionsAppear)
{
    const auto reqs = TraceGenerator(fns(), cfg()).generate();
    std::map<std::string, int> counts;
    for (const auto &r : reqs)
        ++counts[r.function];
    for (const auto &f : fns())
        EXPECT_GT(counts[f], 0) << f;
}

TEST(Trace, BurstsCreateHeavyTails)
{
    // Inter-arrival CV of a bursty trace exceeds a plain Poisson's ~1.
    const auto reqs =
        TraceGenerator({"Solo"}, cfg(50, 120, 3)).generate();
    ASSERT_GT(reqs.size(), 100u);
    std::vector<double> gaps;
    for (size_t i = 1; i < reqs.size(); ++i)
        gaps.push_back((reqs[i].arrival - reqs[i - 1].arrival).toSec());
    double mean = 0;
    for (double g : gaps)
        mean += g;
    mean /= double(gaps.size());
    double var = 0;
    for (double g : gaps)
        var += (g - mean) * (g - mean);
    var /= double(gaps.size());
    const double cv = std::sqrt(var) / mean;
    EXPECT_GT(cv, 1.15) << "burstiness should exceed Poisson";
}

TEST(Trace, EmptyFunctionListRejected)
{
    EXPECT_THROW(TraceGenerator({}, cfg()), sim::FatalError);
}

TEST(Trace, RejectsNonPositiveOrNonFiniteRates)
{
    TraceConfig c = cfg();
    c.totalRps = -1.0;
    EXPECT_THROW(TraceGenerator(fns(), c), sim::FatalError);
    c.totalRps = 0.0;
    EXPECT_THROW(TraceGenerator(fns(), c), sim::FatalError);
    c.totalRps = std::numeric_limits<double>::infinity();
    EXPECT_THROW(TraceGenerator(fns(), c), sim::FatalError);
    c.totalRps = std::nan("");
    EXPECT_THROW(TraceGenerator(fns(), c), sim::FatalError);
}

TEST(Trace, RejectsBurstMultiplierBelowOne)
{
    TraceConfig c = cfg();
    c.burstRateMultiplier = 0.5;
    EXPECT_THROW(TraceGenerator(fns(), c), sim::FatalError);
    c.burstRateMultiplier = 1.0; // bursts at the baseline rate: allowed
    EXPECT_NO_THROW(TraceGenerator(fns(), c).generate());
}

TEST(Trace, RejectsNonPositiveBurstWindows)
{
    TraceConfig c = cfg();
    c.meanBurstGap = SimTime::zero();
    EXPECT_THROW(TraceGenerator(fns(), c), sim::FatalError);
    c = cfg();
    c.meanBurstLength = SimTime::zero();
    EXPECT_THROW(TraceGenerator(fns(), c), sim::FatalError);
    c = cfg();
    c.meanBurstGap = SimTime::sec(-1);
    EXPECT_THROW(TraceGenerator(fns(), c), sim::FatalError);
}

/**
 * Pins the generator's exact output: a hash of every request's
 * (arrival bits, function) for one fixed seed and config. Any change
 * to the draw order or the burst test moves it.
 */
TEST(Trace, FingerprintPinned)
{
    const auto reqs = TraceGenerator(fns(), cfg(150, 120, 0x5eed)).generate();
    uint64_t h = 0xcbf29ce484222325ull; // FNV-1a
    auto mix = [&h](uint64_t byte) {
        h = (h ^ byte) * 0x100000001b3ull;
    };
    for (const Request &r : reqs) {
        const uint64_t bits = std::bit_cast<uint64_t>(r.arrival.toNs());
        for (int i = 0; i < 64; i += 8)
            mix((bits >> i) & 0xff);
        for (char c : r.function)
            mix(uint8_t(c));
        mix(0);
    }
    EXPECT_EQ(reqs.size(), 17140u);
    EXPECT_EQ(h, 0x8c611054ef35e6b6ull);
}

TEST(Trace, ZeroDurationYieldsEmpty)
{
    const auto reqs =
        TraceGenerator(fns(), cfg(150, 0, 1)).generate();
    EXPECT_TRUE(reqs.empty());
    EXPECT_EQ(TraceGenerator::measuredRps(reqs, SimTime::zero()), 0.0);
}


TEST(TraceCsv, ParsesWellFormedRows)
{
    const std::string csv =
        "# flattened Azure-style trace\n"
        "0.50,Bert\n"
        "0.25,Float\n"
        "\n"
        "1.75,Bert\n";
    const auto reqs = parseTraceCsv(csv);
    ASSERT_EQ(reqs.size(), 3u);
    EXPECT_EQ(reqs[0].function, "Float");
    EXPECT_EQ(reqs[0].arrival, SimTime::sec(0.25));
    EXPECT_EQ(reqs[1].function, "Bert");
    EXPECT_EQ(reqs[2].arrival, SimTime::sec(1.75));
    EXPECT_EQ(reqs[2].id, 2u);
}

TEST(TraceCsv, SkipsHeaderRow)
{
    const auto reqs = parseTraceCsv("timestamp,function\n1.0,Json\n");
    ASSERT_EQ(reqs.size(), 1u);
    EXPECT_EQ(reqs[0].function, "Json");
}

TEST(TraceCsv, RejectsMalformedRows)
{
    EXPECT_THROW(parseTraceCsv("1.0,Json\nnot-a-row\n"), sim::FatalError);
    EXPECT_THROW(parseTraceCsv("1.0,Json\nabc,Fn\n"), sim::FatalError);
    EXPECT_THROW(parseTraceCsv("1.0,Json\n-1.0,Fn\n"), sim::FatalError);
    EXPECT_THROW(parseTraceCsv("1.0,\n"), sim::FatalError);
    EXPECT_THROW(parseTraceCsv("1.0,Json\n2.0x,Fn\n"), sim::FatalError);
}

TEST(TraceCsv, MissingFileIsFatal)
{
    EXPECT_THROW(loadTraceCsv("/no/such/trace.csv"), sim::FatalError);
}

TEST(TraceCsv, RoundTripsAGeneratedTrace)
{
    const auto gen = TraceGenerator(fns(), cfg(40, 10, 3)).generate();
    std::string csv = "timestamp,function\n";
    for (const auto &r : gen) {
        csv += std::to_string(r.arrival.toSec()) + "," + r.function + "\n";
    }
    const auto parsed = parseTraceCsv(csv);
    ASSERT_EQ(parsed.size(), gen.size());
    for (size_t i = 0; i < gen.size(); ++i) {
        EXPECT_EQ(parsed[i].function, gen[i].function);
        EXPECT_NEAR(parsed[i].arrival.toSec(), gen[i].arrival.toSec(),
                    1e-5);
    }
}

} // namespace
} // namespace cxlfork::porter
