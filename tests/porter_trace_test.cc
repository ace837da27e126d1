#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <type_traits>
#include <utility>

#include "porter/trace.hh"
#include "sim/log.hh"
#include "sim/thread_pool.hh"

namespace cxlfork::porter {
namespace {

using sim::SimTime;

// Millions of requests per porter sweep: an id, an arrival and an
// interned name, copied as plain bytes.
static_assert(sizeof(Request) == 24);
static_assert(std::is_trivially_copyable_v<Request>);

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
        ++counts[r.function.name()];
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

// A NaN duration never ended the arrival loop and an infinite one never
// ended the burst loop; both grew memory until killed.
TEST(Trace, RejectsNegativeOrNonFiniteDuration)
{
    const std::pair<double, const char *> bad[] = {
        {-1.0, "-1 s"},
        {-std::numeric_limits<double>::infinity(), "-inf"},
        {std::numeric_limits<double>::infinity(), "inf"},
        {std::nan(""), "nan"},
    };
    for (const auto &[secs, named] : bad) {
        try {
            TraceGenerator(fns(), cfg(150, secs, 1));
            ADD_FAILURE() << "duration " << secs << " s was accepted";
        } catch (const sim::FatalError &e) {
            EXPECT_NE(std::string(e.what()).find("duration"),
                      std::string::npos) << e.what();
            EXPECT_NE(std::string(e.what()).find(named), std::string::npos)
                << e.what();
        }
    }
    EXPECT_NO_THROW(TraceGenerator(fns(), cfg(150, 0, 1)));
}

/**
 * The arrivals each function's stream draws, written out plainly: the
 * s-th split of the seed's stream draws the s-th function's burst
 * windows, then its thinned candidates, each tested against every
 * window. Times in seconds, in draw order.
 */
std::vector<std::vector<double>>
referenceStreams(size_t functions, const TraceConfig &c)
{
    const double duration = c.duration.toSec();
    const double meanGap = c.meanBurstGap.toSec();
    const double meanLength = c.meanBurstLength.toSec();
    const double burstFrac = meanLength / (meanLength + meanGap);
    const double inflation =
        (1.0 - burstFrac) + c.burstRateMultiplier * burstFrac;
    const double perFnRps = c.totalRps / (double(functions) * inflation);
    const double maxRate = perFnRps * c.burstRateMultiplier;
    sim::Rng rng(c.seed);
    std::vector<std::vector<double>> streams(functions);
    for (std::vector<double> &stream : streams) {
        sim::Rng fnRng = rng.split();
        std::vector<std::pair<double, double>> bursts;
        for (double t = fnRng.exponential(meanGap); t < duration;) {
            const double len = fnRng.exponential(meanLength);
            bursts.push_back({t, t + len});
            t += len + fnRng.exponential(meanGap);
        }
        for (double at = fnRng.exponential(1.0 / maxRate); at < duration;
             at += fnRng.exponential(1.0 / maxRate)) {
            bool inBurst = false;
            for (const auto &[start, end] : bursts)
                inBurst |= at >= start && at < end;
            if (fnRng.uniform() < (inBurst ? 1.0 : perFnRps / maxRate))
                stream.push_back(at);
        }
    }
    return streams;
}

// The k-way merge emits every stream's arrivals, in (arrival, name)
// order, with ids 0..n-1: a stable sort of all the streams' arrivals,
// across seeds, short durations, a repeated name and empty streams.
TEST(Trace, MergeEqualsASortOfTheDrawnStreams)
{
    const std::vector<std::vector<std::string>> lists = {
        fns(),
        {"Float", "Json", "Float", "BFS", "Json"},
        {"Solo"},
        {"k", "j", "i", "h", "g", "f", "e", "d", "c", "b", "a", "Float"},
    };
    size_t emptyStreams = 0, cases = 0;
    for (const std::vector<std::string> &names : lists) {
        for (uint64_t seed : {1ull, 2ull, 0x5eedull, 0xfeedull}) {
            for (double secs : {0.05, 0.7, 3.0, 20.0}) {
                for (double rps : {4.0, 150.0}) {
                    const TraceConfig c = cfg(rps, secs, seed);
                    const auto drawn = referenceStreams(names.size(), c);
                    std::vector<std::pair<SimTime, std::string>> want;
                    for (size_t s = 0; s < names.size(); ++s) {
                        emptyStreams += drawn[s].empty();
                        for (double at : drawn[s])
                            want.push_back({SimTime::sec(at), names[s]});
                    }
                    std::stable_sort(want.begin(), want.end());
                    const auto got = TraceGenerator(names, c).generate();
                    ++cases;
                    ASSERT_EQ(got.size(), want.size())
                        << "seed " << seed << " secs " << secs;
                    for (size_t i = 0; i < got.size(); ++i) {
                        ASSERT_EQ(got[i].id, i);
                        ASSERT_EQ(got[i].arrival, want[i].first)
                            << "request " << i << " seed " << seed;
                        ASSERT_EQ(got[i].function.name(), want[i].second)
                            << "request " << i << " seed " << seed;
                    }
                }
            }
        }
    }
    EXPECT_EQ(cases, 128u);
    EXPECT_GT(emptyStreams, 0u) << "no case covers an empty stream";
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
        for (char c : r.function.name())
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
    EXPECT_EQ(reqs[0].function.name(), "Float");
    EXPECT_EQ(reqs[0].arrival, SimTime::sec(0.25));
    EXPECT_EQ(reqs[1].function.name(), "Bert");
    EXPECT_EQ(reqs[2].arrival, SimTime::sec(1.75));
    EXPECT_EQ(reqs[2].id, 2u);
}

TEST(TraceCsv, SkipsHeaderRow)
{
    const auto reqs = parseTraceCsv("timestamp,function\n1.0,Json\n");
    ASSERT_EQ(reqs.size(), 1u);
    EXPECT_EQ(reqs[0].function.name(), "Json");
}

// The header is the first row that is neither blank nor a comment,
// wherever it sits in the file; a header-like row after data is still
// a malformed row.
TEST(TraceCsv, HeaderAfterCommentsOrBlankLinesIsSkipped)
{
    for (const char *csv :
         {"# exported trace\ntimestamp,function\n1.0,Json\n",
          "\n\ntimestamp,function\n1.0,Json\n",
          "# a\n\n  # b\ntimestamp,function\n1.0,Json\n"}) {
        const auto reqs = parseTraceCsv(csv);
        ASSERT_EQ(reqs.size(), 1u) << csv;
        EXPECT_EQ(reqs[0].function.name(), "Json");
        EXPECT_EQ(reqs[0].arrival, SimTime::sec(1.0));
    }
    EXPECT_THROW(parseTraceCsv("# a\n1.0,Json\ntimestamp,function\n"),
                 sim::FatalError);
}

TEST(TraceCsv, RejectsMalformedRows)
{
    EXPECT_THROW(parseTraceCsv("1.0,Json\nnot-a-row\n"), sim::FatalError);
    EXPECT_THROW(parseTraceCsv("1.0,Json\nabc,Fn\n"), sim::FatalError);
    EXPECT_THROW(parseTraceCsv("1.0,Json\n-1.0,Fn\n"), sim::FatalError);
    EXPECT_THROW(parseTraceCsv("1.0,\n"), sim::FatalError);
    EXPECT_THROW(parseTraceCsv("1.0,Json\n2.0x,Fn\n"), sim::FatalError);
}

// stod parses "inf" and "nan". An infinite arrival never comes, so a
// porter run over it never ended; a NaN arrival broke the sort and the
// run reported a NaN P99. Both must fail on their own line.
TEST(TraceCsv, RejectsNonFiniteTimestamps)
{
    for (const char *bad : {"inf", "nan", "-nan", "infinity", "+inf"}) {
        const std::string csv =
            std::string("1.0,Json\n") + bad + ",Json\n";
        try {
            parseTraceCsv(csv);
            ADD_FAILURE() << bad << " was accepted";
        } catch (const sim::FatalError &e) {
            EXPECT_NE(std::string(e.what()).find("line 2"),
                      std::string::npos)
                << e.what();
            EXPECT_NE(std::string(e.what()).find("non-finite"),
                      std::string::npos)
                << e.what();
        }
    }
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
        csv += std::to_string(r.arrival.toSec()) + "," + r.function.name() +
               "\n";
    }
    const auto parsed = parseTraceCsv(csv);
    ASSERT_EQ(parsed.size(), gen.size());
    for (size_t i = 0; i < gen.size(); ++i) {
        EXPECT_EQ(parsed[i].function, gen[i].function);
        EXPECT_NEAR(parsed[i].arrival.toSec(), gen[i].arrival.toSec(),
                    1e-5);
    }
}

/** A 64-hex-char name, as Azure traces hash function names. */
std::string
hashName(uint64_t seed)
{
    std::string out;
    for (uint64_t i = 0; i < 4; ++i) {
        char word[17];
        std::snprintf(word, sizeof(word), "%016llx",
                      (unsigned long long)((seed + i) *
                                           0x9e3779b97f4a7c15ull));
        out += word;
    }
    return out;
}

TEST(TraceCsv, RoundTripsLongHashedNames)
{
    std::vector<std::string> names;
    for (uint64_t i = 1; i <= 4; ++i)
        names.push_back(hashName(i));
    ASSERT_EQ(names[0].size(), 64u);
    const auto gen = TraceGenerator(names, cfg(40, 10, 5)).generate();
    std::string csv = "timestamp,function\n";
    for (const auto &r : gen) {
        csv += std::to_string(r.arrival.toSec()) + "," + r.function.name() +
               "\n";
    }
    const auto parsed = parseTraceCsv(csv);
    ASSERT_EQ(parsed.size(), gen.size());
    for (size_t i = 0; i < gen.size(); ++i) {
        EXPECT_EQ(parsed[i].function, gen[i].function);
        EXPECT_EQ(parsed[i].function.name().size(), 64u);
    }
}

// Requests at one time sort by name, whatever order the names were
// interned in: ids never order a trace.
TEST(TraceCsv, TiesSortByNameNotByInternOrder)
{
    const std::string lo = "00" + hashName(7).substr(2);
    const std::string hi = "ff" + hashName(7).substr(2);
    const FunctionId hiId = FunctionId::intern(hi);
    const FunctionId loId = FunctionId::intern(lo);
    ASSERT_LT(hiId.index(), loId.index());
    const auto reqs = parseTraceCsv("2.0," + hi + "\n2.0," + lo +
                                    "\n1.0," + hi + "\n");
    ASSERT_EQ(reqs.size(), 3u);
    EXPECT_EQ(reqs[0].function, hiId);
    EXPECT_EQ(reqs[1].function, loId);
    EXPECT_EQ(reqs[2].function, hiId);
    EXPECT_EQ(reqs[1].arrival, reqs[2].arrival);
}

TEST(FunctionId, InternsEachNameOnce)
{
    const FunctionId a = FunctionId::intern("intern-once-a");
    EXPECT_TRUE(a.valid());
    EXPECT_EQ(a.name(), "intern-once-a");
    EXPECT_EQ(FunctionId::intern(std::string("intern-once-a")), a);
    EXPECT_NE(FunctionId::intern("intern-once-b"), a);

    const FunctionId none;
    EXPECT_FALSE(none.valid());
    EXPECT_EQ(none.name(), "");
    EXPECT_EQ(Request{}.function, none);
}

// Workers intern overlapping name sets in different orders; every one
// must get the same id for a name, and distinct names distinct ids.
TEST(FunctionId, ConcurrentInternGivesOneIdPerName)
{
    constexpr size_t kTasks = 8;
    constexpr size_t kNames = 64;
    std::vector<std::vector<FunctionId>> seen(
        kTasks, std::vector<FunctionId>(kNames));
    sim::ThreadPool pool(4);
    pool.parallelIndexed(kTasks, [&](size_t t) {
        // Each task covers a window of the names, from its own start.
        for (size_t k = 0; k < kNames; ++k) {
            const size_t n = (t * 13 + k) % kNames;
            if (n % kTasks == t % 3)
                continue; // not every task sees every name
            seen[t][n] =
                FunctionId::intern("concurrent-" + std::to_string(n));
        }
    });
    std::set<uint32_t> indexes;
    for (size_t n = 0; n < kNames; ++n) {
        FunctionId id;
        for (size_t t = 0; t < kTasks; ++t) {
            if (!seen[t][n].valid())
                continue;
            if (!id.valid())
                id = seen[t][n];
            EXPECT_EQ(seen[t][n], id) << "name " << n << " task " << t;
        }
        ASSERT_TRUE(id.valid()) << n;
        EXPECT_EQ(id.name(), "concurrent-" + std::to_string(n));
        EXPECT_TRUE(indexes.insert(id.index()).second) << n;
    }
}

} // namespace
} // namespace cxlfork::porter
