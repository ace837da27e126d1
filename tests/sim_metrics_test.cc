/**
 * @file
 * Unit tests for the metrics registry: counter/gauge/summary semantics,
 * latency-histogram bucket edges and percentiles, and the flat JSON
 * export the golden-benchmark suite diffs.
 */

#include <gtest/gtest.h>

#include "sim/json.hh"
#include "sim/log.hh"
#include "sim/metrics.hh"

namespace cxlfork::sim {
namespace {

TEST(MetricsRegistry, LookupOrCreateAndReadOnlyViews)
{
    MetricsRegistry reg;
    EXPECT_TRUE(reg.empty());
    EXPECT_EQ(reg.counterValue("os.fault.minor"), 0u);
    EXPECT_EQ(reg.findSummary("nope"), nullptr);
    EXPECT_EQ(reg.findLatency("nope"), nullptr);

    reg.counter("os.fault.minor").inc();
    reg.counter("os.fault.minor").inc(4);
    reg.gauge("mem.resident_mb").set(128.0);
    reg.gauge("mem.resident_mb").add(2.0);
    reg.summary("rfork.restore_ms").add(3.0);
    reg.latency("rfork.restore_ns").record(100.0);

    EXPECT_FALSE(reg.empty());
    EXPECT_EQ(reg.counterValue("os.fault.minor"), 5u);
    EXPECT_DOUBLE_EQ(reg.gaugeValue("mem.resident_mb"), 130.0);
    ASSERT_TRUE(reg.findSummary("rfork.restore_ms"));
    EXPECT_EQ(reg.findSummary("rfork.restore_ms")->count(), 1u);
    ASSERT_TRUE(reg.findLatency("rfork.restore_ns"));
    EXPECT_EQ(reg.findLatency("rfork.restore_ns")->count(), 1u);

    reg.clear();
    EXPECT_TRUE(reg.empty());
    EXPECT_EQ(reg.counterValue("os.fault.minor"), 0u);
}

TEST(LatencyHistogram, BucketEdgesArePowersOfTwo)
{
    // Bucket 0 = [0, 1); bucket i >= 1 = [2^(i-1), 2^i).
    EXPECT_EQ(LatencyHistogram::bucketIndex(0.0), 0u);
    EXPECT_EQ(LatencyHistogram::bucketIndex(0.999), 0u);
    EXPECT_EQ(LatencyHistogram::bucketIndex(1.0), 1u);
    EXPECT_EQ(LatencyHistogram::bucketIndex(1.5), 1u);
    EXPECT_EQ(LatencyHistogram::bucketIndex(2.0), 2u);
    EXPECT_EQ(LatencyHistogram::bucketIndex(3.0), 2u);
    EXPECT_EQ(LatencyHistogram::bucketIndex(4.0), 3u);
    EXPECT_EQ(LatencyHistogram::bucketIndex(1024.0), 11u);
    // Everything past the top edge clamps into the last bucket.
    EXPECT_EQ(LatencyHistogram::bucketIndex(1e30),
              LatencyHistogram::kBuckets - 1);

    EXPECT_DOUBLE_EQ(LatencyHistogram::bucketFloorNs(0), 0.0);
    EXPECT_DOUBLE_EQ(LatencyHistogram::bucketCeilNs(0), 1.0);
    for (uint32_t i = 1; i < 20; ++i) {
        EXPECT_DOUBLE_EQ(LatencyHistogram::bucketFloorNs(i),
                         std::ldexp(1.0, int(i) - 1));
        EXPECT_DOUBLE_EQ(LatencyHistogram::bucketCeilNs(i),
                         std::ldexp(1.0, int(i)));
        // Every value inside the bucket maps back to it.
        EXPECT_EQ(LatencyHistogram::bucketIndex(
                      LatencyHistogram::bucketFloorNs(i)),
                  i);
        EXPECT_EQ(LatencyHistogram::bucketIndex(
                      LatencyHistogram::bucketCeilNs(i) - 0.5),
                  i);
    }
}

TEST(LatencyHistogram, AggregatesAndReset)
{
    LatencyHistogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.minNs(), 0.0);
    EXPECT_DOUBLE_EQ(h.maxNs(), 0.0);
    EXPECT_DOUBLE_EQ(h.meanNs(), 0.0);
    EXPECT_DOUBLE_EQ(h.percentileNs(0.5), 0.0);

    h.record(SimTime::ns(10));
    h.record(30.0);
    h.record(50.0);
    EXPECT_EQ(h.count(), 3u);
    EXPECT_DOUBLE_EQ(h.sumNs(), 90.0);
    EXPECT_DOUBLE_EQ(h.minNs(), 10.0);
    EXPECT_DOUBLE_EQ(h.maxNs(), 50.0);
    EXPECT_DOUBLE_EQ(h.meanNs(), 30.0);
    EXPECT_EQ(h.bucketCount(LatencyHistogram::bucketIndex(10.0)), 1u);
    EXPECT_EQ(h.bucketCount(LatencyHistogram::bucketIndex(30.0)), 1u);

    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.sumNs(), 0.0);
}

TEST(LatencyHistogram, PercentilesNearestRankWithinBucketResolution)
{
    LatencyHistogram h;
    // 100 samples at 100 ns, one outlier at 100000 ns.
    for (int i = 0; i < 100; ++i)
        h.record(100.0);
    h.record(100000.0);

    // p50 rank lands in the 100 ns bucket [64, 128); the upper edge 128
    // exceeds the true value by < 2x and stays within [min, max].
    const double p50 = h.p50Ns();
    EXPECT_GE(p50, 100.0);
    EXPECT_LE(p50, 200.0);

    // p99 of 101 samples is rank 100 — still a 100 ns sample.
    EXPECT_LE(h.p99Ns(), 200.0);
    // The maximum is exact.
    EXPECT_DOUBLE_EQ(h.percentileNs(1.0), 100000.0);

    // A single-sample histogram clamps every quantile to that sample.
    LatencyHistogram one;
    one.record(777.0);
    EXPECT_DOUBLE_EQ(one.percentileNs(0.01), 777.0);
    EXPECT_DOUBLE_EQ(one.p50Ns(), 777.0);
    EXPECT_DOUBLE_EQ(one.p99Ns(), 777.0);
}

TEST(MetricsRegistry, FlattenExpandsCompositesSorted)
{
    MetricsRegistry reg;
    reg.counter("z.count").inc(2);
    reg.gauge("a.gauge").set(1.5);
    reg.summary("m.sum").add(1.0);
    reg.summary("m.sum").add(3.0);
    reg.latency("l.lat").record(40.0);

    const auto flat = reg.flatten();
    // Sorted by name, composites expanded with suffixes.
    ASSERT_FALSE(flat.empty());
    EXPECT_TRUE(std::is_sorted(flat.begin(), flat.end()));

    auto value = [&](const std::string &name) -> double {
        for (const auto &[k, v] : flat) {
            if (k == name)
                return v;
        }
        ADD_FAILURE() << "missing flat metric " << name;
        return -1.0;
    };
    EXPECT_DOUBLE_EQ(value("z.count"), 2.0);
    EXPECT_DOUBLE_EQ(value("a.gauge"), 1.5);
    EXPECT_DOUBLE_EQ(value("m.sum.count"), 2.0);
    EXPECT_DOUBLE_EQ(value("m.sum.total"), 4.0);
    EXPECT_DOUBLE_EQ(value("m.sum.mean"), 2.0);
    EXPECT_DOUBLE_EQ(value("m.sum.min"), 1.0);
    EXPECT_DOUBLE_EQ(value("m.sum.max"), 3.0);
    EXPECT_DOUBLE_EQ(value("l.lat.count"), 1.0);
    EXPECT_DOUBLE_EQ(value("l.lat.sum_ns"), 40.0);
    EXPECT_DOUBLE_EQ(value("l.lat.p99_ns"), 40.0);
}

/** The JSON export parses back to exactly the flat view. */
TEST(MetricsRegistry, JsonExportRoundTrips)
{
    MetricsRegistry reg;
    reg.counter("rfork.cxlfork.restores").inc(3);
    reg.summary("fig7.cxlfork.restore_ms").add(1.25);
    reg.summary("fig7.cxlfork.restore_ms").add(2.75);
    reg.latency("os.fault_ns").record(2500.0);

    const json::Value doc = json::parse(reg.toJson());
    ASSERT_TRUE(doc.isObject());
    const auto flat = reg.flatten();
    EXPECT_EQ(doc.object.size(), flat.size());
    for (const auto &[name, value] : flat) {
        const json::Value *v = doc.find(name);
        ASSERT_TRUE(v && v->isNumber()) << name;
        EXPECT_EQ(v->number, value) << name;
    }

    // An empty registry is still a valid (empty) JSON object.
    MetricsRegistry empty;
    const json::Value none = json::parse(empty.toJson());
    ASSERT_TRUE(none.isObject());
    EXPECT_TRUE(none.object.empty());
}

TEST(MetricsRegistry, MergeFromFoldsEveryMetricKind)
{
    MetricsRegistry a;
    MetricsRegistry b;
    a.counter("c").inc(2);
    b.counter("c").inc(3);
    b.counter("b_only").inc(1);
    a.gauge("g").set(1.0);
    b.gauge("g").set(4.0);
    a.summary("s").add(1.0);
    b.summary("s").add(3.0);
    b.summary("s").add(5.0);
    a.latency("l").record(SimTime::ns(100));
    b.latency("l").record(SimTime::ns(800));

    a.mergeFrom(b);
    EXPECT_EQ(a.counterValue("c"), 5u);
    EXPECT_EQ(a.counterValue("b_only"), 1u);
    // Gauges are last-writer-wins, matching sequential replay.
    EXPECT_EQ(a.gaugeValue("g"), 4.0);
    const Summary *s = a.findSummary("s");
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->count(), 3u);
    EXPECT_EQ(s->total(), 9.0);
    EXPECT_EQ(s->min(), 1.0);
    EXPECT_EQ(s->max(), 5.0);
    const LatencyHistogram *l = a.findLatency("l");
    ASSERT_NE(l, nullptr);
    EXPECT_EQ(l->count(), 2u);
    EXPECT_EQ(l->sumNs(), 900.0);
    EXPECT_EQ(l->minNs(), 100.0);
    EXPECT_EQ(l->maxNs(), 800.0);
    EXPECT_EQ(l->bucketCount(LatencyHistogram::bucketIndex(100.0)), 1u);
    EXPECT_EQ(l->bucketCount(LatencyHistogram::bucketIndex(800.0)), 1u);
}

TEST(MetricsRegistry, MergeFromMatchesSequentialRecordingExactly)
{
    // The parallel-sweep property: recording split across per-point
    // registries and merged in order exports byte-identically to
    // recording everything into one registry.
    MetricsRegistry sequential;
    MetricsRegistry p1;
    MetricsRegistry p2;
    const auto record = [](MetricsRegistry &r, double v) {
        r.counter("runs").inc();
        r.summary("ms").add(v);
        r.latency("ns").record(SimTime::ns(v * 10));
        r.gauge("last").set(v);
    };
    record(sequential, 3.25);
    record(sequential, 7.5);
    record(p1, 3.25);
    record(p2, 7.5);

    MetricsRegistry merged;
    merged.mergeFrom(p1);
    merged.mergeFrom(p2);
    EXPECT_EQ(merged.toJson(), sequential.toJson());
}

TEST(MetricsRegistry, MergeFromEmptyIsIdentity)
{
    MetricsRegistry a;
    a.counter("c").inc(7);
    a.summary("s").add(2.0);
    const std::string before = a.toJson();
    a.mergeFrom(MetricsRegistry{});
    EXPECT_EQ(a.toJson(), before);
}

TEST(MetricsRegistry, ToTableListsEveryFlatEntry)
{
    MetricsRegistry reg;
    reg.counter("a").inc();
    reg.counter("b").inc(7);
    const Table t = reg.toTable("metrics");
    // Two counters, two rows; rendering is covered by sim_table_test.
    EXPECT_EQ(reg.flatten().size(), 2u);
    (void)t;
}

// The parser recurses once per nesting level: 200,000 '[' used to
// overflow the stack. Past 256 levels the document is a FatalError
// that names the offset; 256 levels still parse.
TEST(JsonParse, NestingDepthIsCapped)
{
    const std::string ok = std::string(256, '[') + std::string(256, ']');
    EXPECT_EQ(json::parse(ok).kind, json::Value::Kind::Array);
    const std::string over = std::string(257, '[') + std::string(257, ']');
    EXPECT_THROW(json::parse(over), FatalError);
    std::string objects;
    for (int i = 0; i < 257; ++i)
        objects += "{\"k\":";
    objects += "1" + std::string(257, '}');
    EXPECT_THROW(json::parse(objects), FatalError);
    EXPECT_EQ(json::parse(objects.substr(5, objects.size() - 6)).kind,
              json::Value::Kind::Object);

    const std::string deep(200000, '[');
    try {
        json::parse(deep);
        ADD_FAILURE() << "200000 open brackets parsed";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("offset 257"),
                  std::string::npos)
            << e.what();
        EXPECT_NE(std::string(e.what()).find("nesting"), std::string::npos)
            << e.what();
    }
}

} // namespace
} // namespace cxlfork::sim
