#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "porter/autoscaler.hh"
#include "porter/trace.hh"
#include "sim/log.hh"

#include "porter_test_util.hh"

namespace cxlfork::porter {
namespace {

using faas::FunctionSpec;
using sim::SimTime;

/** A tiny function so profiles measure fast. */
FunctionSpec
tinySpec(const std::string &name, uint64_t mib = 8)
{
    FunctionSpec s;
    s.name = name;
    s.footprintBytes = mem::mib(mib);
    s.workingSetBytes = mem::mib(1);
    s.wsReuse = 4;
    s.computeTime = SimTime::ms(10);
    s.stateInitTime = SimTime::ms(100);
    s.vmaCount = 12;
    s.seed = std::hash<std::string>()(name);
    return s;
}

std::vector<Request>
steadyTrace(const std::vector<std::string> &fns, double rps, double secs)
{
    TraceConfig c;
    c.totalRps = rps;
    c.duration = SimTime::sec(secs);
    c.seed = 99;
    return TraceGenerator(fns, c).generate();
}

/** The FatalError message fn throws, or "" if it returns. */
template <typename Fn>
std::string
fatalMessage(Fn &&fn)
{
    try {
        fn();
    } catch (const sim::FatalError &e) {
        return e.what();
    }
    return "";
}

class PorterSimTest : public ::testing::Test
{
  protected:
    PerfModel perf;
};

TEST_F(PorterSimTest, CompletesEveryRequest)
{
    PorterConfig cfg;
    cfg.mechanism = Mechanism::CxlFork;
    PorterSim sim(cfg, {tinySpec("a"), tinySpec("b")}, perf);
    const auto trace = steadyTrace({"a", "b"}, 20, 10);
    const auto m = runAudited(sim, trace);
    EXPECT_EQ(m.requests, trace.size());
    EXPECT_EQ(m.latency.count(), trace.size());
    EXPECT_GT(m.completedRps, 0.0);
}

TEST_F(PorterSimTest, FirstRequestsColdStartThenCheckpoint)
{
    PorterConfig cfg;
    cfg.mechanism = Mechanism::CxlFork;
    cfg.checkpointAfterInvocations = 4;
    PorterSim sim(cfg, {tinySpec("a")}, perf);
    const auto m = runAudited(sim, steadyTrace({"a"}, 15, 10));
    EXPECT_GT(m.coldStarts, 0u);
    EXPECT_GT(m.restores + m.warmHits, 0u)
        << "after the checkpoint threshold restores must take over";
}

TEST_F(PorterSimTest, WarmHitsDominateSteadyLoad)
{
    PorterConfig cfg;
    cfg.mechanism = Mechanism::CxlFork;
    PorterSim sim(cfg, {tinySpec("a")}, perf);
    const auto m = runAudited(sim, steadyTrace({"a"}, 30, 20));
    EXPECT_GT(m.warmHits, m.requests / 2);
}

TEST_F(PorterSimTest, GhostContainersUsedByCxlForkNotCriu)
{
    const auto trace = steadyTrace({"a"}, 20, 12);
    PorterConfig gcfg;
    gcfg.mechanism = Mechanism::CxlFork;
    gcfg.checkpointAfterInvocations = 2;
    const auto gm =
        runAudited(PorterSim(gcfg, {tinySpec("a")}, perf), trace);
    EXPECT_GT(gm.ghostHits, 0u);

    PorterConfig ccfg;
    ccfg.mechanism = Mechanism::CriuCxl;
    ccfg.checkpointAfterInvocations = 2;
    const auto cm =
        runAudited(PorterSim(ccfg, {tinySpec("a")}, perf), trace);
    EXPECT_EQ(cm.ghostHits, 0u) << "CRIU is incompatible with ghosts";
}

TEST_F(PorterSimTest, P99OrderingMatchesPaper)
{
    // Bursty load with short keep-alive so tails are spawn-dominated;
    // CXLfork's tail should beat Mitosis's which beats CRIU's.
    const std::vector<FunctionSpec> fns{tinySpec("a", 64),
                                        tinySpec("b", 32)};
    const auto trace = steadyTrace({"a", "b"}, 60, 20);

    auto runWith = [&](Mechanism mech) {
        PorterConfig cfg;
        cfg.mechanism = mech;
        cfg.checkpointAfterInvocations = 4;
        cfg.keepAlive = SimTime::sec(1);
        return runAudited(PorterSim(cfg, fns, perf), trace);
    };
    const auto criu = runWith(Mechanism::CriuCxl);
    const auto mito = runWith(Mechanism::MitosisCxl);
    const auto cxlf = runWith(Mechanism::CxlFork);

    EXPECT_LT(cxlf.p99Ms(), criu.p99Ms());
    EXPECT_LE(mito.p99Ms(), criu.p99Ms());
    EXPECT_LE(cxlf.p99Ms(), mito.p99Ms() * 1.05);
}

TEST_F(PorterSimTest, MemoryPressureForcesEvictions)
{
    PorterConfig cfg;
    cfg.mechanism = Mechanism::CriuCxl; // biggest per-instance memory
    cfg.memPerNodeBytes = mem::mib(64);
    cfg.checkpointAfterInvocations = 2;
    PorterSim sim(cfg, {tinySpec("a", 24), tinySpec("b", 24)}, perf);
    const auto m = runAudited(sim, steadyTrace({"a", "b"}, 40, 15));
    EXPECT_GT(m.evictions, 0u);
    EXPECT_LE(m.peakMemBytes, mem::mib(64));
    EXPECT_EQ(m.latency.count(), m.requests);
}

TEST_F(PorterSimTest, ConstrainedMemoryHurtsCriuMoreThanCxlFork)
{
    const std::vector<FunctionSpec> fns{tinySpec("a", 32),
                                        tinySpec("b", 32)};
    const auto trace = steadyTrace({"a", "b"}, 50, 20);

    auto p99At = [&](Mechanism mech, double scale) {
        PorterConfig cfg;
        cfg.mechanism = mech;
        cfg.memPerNodeBytes = mem::mib(256);
        cfg.memoryScale = scale;
        cfg.checkpointAfterInvocations = 2;
        return runAudited(PorterSim(cfg, fns, perf), trace).p99Ms();
    };
    const double criuDegradation =
        p99At(Mechanism::CriuCxl, 0.25) / p99At(Mechanism::CriuCxl, 1.0);
    const double cxlfDegradation =
        p99At(Mechanism::CxlFork, 0.25) / p99At(Mechanism::CxlFork, 1.0);
    EXPECT_GT(criuDegradation, cxlfDegradation)
        << "CXLfork's memory frugality must shield it from pressure";
}

TEST_F(PorterSimTest, ControllerCountsAbitResets)
{
    PorterConfig cfg;
    cfg.mechanism = Mechanism::CxlFork;
    cfg.abitResetPeriod = SimTime::sec(2);
    cfg.controllerPeriod = SimTime::sec(1);
    PorterSim sim(cfg, {tinySpec("a")}, perf);
    const auto m = runAudited(sim, steadyTrace({"a"}, 10, 10));
    EXPECT_GT(m.abitResets, 1u);
}

TEST_F(PorterSimTest, PerFunctionHistogramsPopulated)
{
    PorterConfig cfg;
    PorterSim sim(cfg, {tinySpec("a"), tinySpec("b")}, perf);
    const auto m = runAudited(sim, steadyTrace({"a", "b"}, 20, 10));
    EXPECT_GT(m.perFunction.at("a").count(), 0u);
    EXPECT_GT(m.perFunction.at("b").count(), 0u);
    EXPECT_EQ(m.perFunction.at("a").count() + m.perFunction.at("b").count(),
              m.latency.count());
}

TEST_F(PorterSimTest, UnknownFunctionIsFatalBeforeAnythingRuns)
{
    // Interned before the simulation is built, and so inside its id
    // table, but not one of its functions.
    const FunctionId early = FunctionId::intern("unknown-before-sim");
    PorterConfig cfg;
    PorterSim sim(cfg, {tinySpec("known-fn")}, perf);
    const auto good = steadyTrace({"known-fn"}, 20, 5);
    ASSERT_GT(good.size(), 2u);
    // Past the end of the id table, inside it, and no name at all.
    for (const FunctionId bad :
         {FunctionId::intern("nope"), early, FunctionId{}}) {
        auto trace = good;
        Request &req = trace[trace.size() / 2];
        req.function = bad;
        try {
            sim.run(trace);
            ADD_FAILURE() << "'" << bad.name() << "' was accepted";
        } catch (const sim::FatalError &e) {
            EXPECT_NE(std::string(e.what()).find(
                          "request " + std::to_string(req.id) + " "),
                      std::string::npos)
                << e.what();
        }
    }

    // Nothing of the rejected traces was scheduled: a good trace on
    // the same simulator runs exactly as on a fresh one.
    const auto m = runAudited(sim, good);
    const auto fresh =
        runAudited(PorterSim(cfg, {tinySpec("known-fn")}, perf), good);
    EXPECT_EQ(m.latency.count(), good.size());
    EXPECT_EQ(m.p99Ms(), fresh.p99Ms());
    EXPECT_EQ(m.warmHits, fresh.warmHits);
}

TEST_F(PorterSimTest, UnsortedTraceCompletesEveryRequest)
{
    PorterConfig cfg;
    PorterSim sim(cfg, {tinySpec("a"), tinySpec("b")}, perf);
    auto trace = steadyTrace({"a", "b"}, 20, 10);
    std::reverse(trace.begin(), trace.end());
    const auto m = runAudited(sim, trace);
    EXPECT_EQ(m.latency.count(), trace.size());
    EXPECT_EQ(m.warmHits + m.restores + m.coldStarts, trace.size());
}

TEST_F(PorterSimTest, SecondRunIsFatal)
{
    PorterConfig cfg;
    PorterSim sim(cfg, {tinySpec("a")}, perf);
    const auto trace = steadyTrace({"a"}, 20, 5);
    runAudited(sim, trace);
    EXPECT_THROW(sim.run(trace), sim::FatalError);
}

TEST_F(PorterSimTest, ClusterWithoutNodesOrMemoryIsFatal)
{
    // Each of these once built a cluster that served nothing and still
    // reported a throughput, or cast a NaN or negative budget to an
    // integer.
    const auto refused = [&](auto edit) {
        PorterConfig cfg;
        edit(cfg);
        return fatalMessage(
            [&] { PorterSim sim(cfg, {tinySpec("a")}, perf); });
    };
    EXPECT_NE(refused([](PorterConfig &c) { c.numNodes = 0; })
                  .find("at least one node"),
              std::string::npos);
    EXPECT_NE(refused([](PorterConfig &c) { c.memPerNodeBytes = 0; })
                  .find("no usable budget"),
              std::string::npos);
    for (double scale : {0.0, -1.0, std::nan(""), HUGE_VAL}) {
        EXPECT_NE(refused([&](PorterConfig &c) { c.memoryScale = scale; })
                      .find("not a positive number"),
                  std::string::npos)
            << scale;
    }
    EXPECT_NE(refused([](PorterConfig &c) { c.memoryScale = 1e300; })
                  .find("no usable budget"),
              std::string::npos);
    // The smallest budget that is still a byte is accepted.
    EXPECT_EQ(refused([](PorterConfig &c) {
                  c.memPerNodeBytes = 1;
                  c.memoryScale = 1.0;
              }),
              "");
}

/**
 * The event loop's work, counted by the queue in plain integers, for
 * one fixed trace. Every count is exact on any host, so moving work
 * back onto the heap fails here: each request's completion is the only
 * heap event (no faults, so no crash events), and every keep-alive
 * timer, controller tick and ghost refill takes its lane.
 */
TEST_F(PorterSimTest, EventCountersPinned)
{
    PorterConfig cfg;
    cfg.mechanism = Mechanism::CxlFork;
    cfg.coresPerNode = 2;
    cfg.memPerNodeBytes = mem::mib(96);
    cfg.checkpointAfterInvocations = 4;
    cfg.keepAlivePressured = SimTime::sec(2);
    PorterSim sim(cfg, {tinySpec("a", 16), tinySpec("b", 24)}, perf);
    const auto trace = steadyTrace({"a", "b"}, 30, 20);
    const auto m = runAudited(sim, trace);

    const sim::EventQueue::Counters &c = sim.eventCounters();
    EXPECT_EQ(c.heapPushes, trace.size());
    EXPECT_EQ(c.lanePushes[PorterSim::kGhostRefillLane], m.ghostHits);
    // Arrivals are dispatched straight from the trace, never queued.
    uint64_t pushes = c.heapPushes;
    for (uint64_t n : c.lanePushes)
        pushes += n;
    EXPECT_EQ(c.dispatches, pushes + trace.size());

    // Both keep-alive windows run: memory pressure shortens some.
    EXPECT_EQ(c.heapPushes, 1100u);
    EXPECT_EQ(c.lanePushes[PorterSim::kKeepAliveLane], 634u);
    EXPECT_EQ(c.lanePushes[PorterSim::kPressuredKeepAliveLane], 474u);
    EXPECT_EQ(c.lanePushes[PorterSim::kControllerLane], 124u);
    EXPECT_EQ(c.lanePushes[PorterSim::kGhostRefillLane], 6u);
    EXPECT_EQ(c.dispatches, 3438u);
    EXPECT_GT(m.evictions, 0u);
}

/**
 * The controller keeps ticking while requests are still to arrive,
 * even when nothing is queued or in flight. Two bursts are 100 s
 * apart, much longer than the keep-alive window, so every instance of
 * the first burst is evicted and its timers have all fired midway
 * through the gap. The tick and A-bit reset counts are the values
 * recorded when arrivals still waited in the event queue; a tick that
 * stopped in the gap would never restart for the second burst.
 */
TEST_F(PorterSimTest, ControllerTicksAcrossAnIdleGap)
{
    PorterConfig cfg;
    cfg.mechanism = Mechanism::CxlFork;
    cfg.keepAlive = SimTime::sec(20);
    cfg.keepAlivePressured = SimTime::sec(20);
    PorterSim sim(cfg, {tinySpec("a"), tinySpec("b")}, perf);
    std::vector<Request> trace;
    for (double start : {0.0, 120.0}) {
        for (int i = 0; i < 10; ++i) {
            Request r;
            r.id = trace.size();
            r.arrival = SimTime::sec(start + 0.5 * i);
            r.function = FunctionId::intern(i % 2 ? "b" : "a");
            trace.push_back(r);
        }
    }
    const auto m = runAudited(sim, trace);
    EXPECT_EQ(m.latency.count(), trace.size());
    EXPECT_EQ(sim.eventCounters().lanePushes[PorterSim::kControllerLane],
              29u);
    EXPECT_EQ(m.abitResets, 4u);
}

/**
 * Instances idle since the same simulated time are reclaimed lowest id
 * first, whatever order they went idle in. Instances 1 (function b)
 * and 2 (function a) cold-start together. At 10 s the warm hit on 2 is
 * dispatched before the one on 1, so 2 goes idle first, at the same
 * time as 1. At 20 s function c's cold start must reclaim one of them:
 * it has to be 1, which leaves 2 for a's warm hit at 30 s.
 */
TEST_F(PorterSimTest, ReclaimEvictsTheLowerIdAmongEquallyIdle)
{
    // Same-seed, same-size specs under equal-length names measure the
    // same profile, so their runs take equally long.
    std::vector<FunctionSpec> fns;
    for (const char *name : {"a", "b", "c"}) {
        FunctionSpec s = tinySpec("twin");
        s.name = name;
        fns.push_back(s);
    }
    PorterConfig cfg;
    cfg.mechanism = Mechanism::CriuCxl;
    cfg.numNodes = 1;
    cfg.checkpointAfterInvocations = 100; // cold starts and warm hits only
    const auto policy = os::TieringPolicy::MigrateOnAccess;
    const PerfProfile &prof = perf.profile(fns[0], cfg.mechanism, policy);
    for (const FunctionSpec &s : fns) {
        const PerfProfile &p = perf.profile(s, cfg.mechanism, policy);
        ASSERT_EQ(p.coldStartLatency, prof.coldStartLatency);
        ASSERT_EQ(p.coldStartExec, prof.coldStartExec);
        ASSERT_EQ(p.warmExecLatency, prof.warmExecLatency);
        ASSERT_EQ(p.coldLocalBytes, prof.coldLocalBytes);
    }
    // Room for two and a half instances (each adds a 512 KiB shell):
    // c fits only once one of the others is evicted.
    cfg.memPerNodeBytes = (prof.coldLocalBytes + mem::kib(512)) * 5 / 2;

    auto request = [](uint64_t id, double sec, const char *fn) {
        Request r;
        r.id = id;
        r.arrival = SimTime::sec(sec);
        r.function = FunctionId::intern(fn);
        return r;
    };
    const std::vector<Request> trace{
        request(0, 0, "b"),  request(1, 0, "a"),  request(2, 10, "a"),
        request(3, 10, "b"), request(4, 20, "c"), request(5, 30, "a")};
    PorterSim sim(cfg, fns, perf);
    const auto m = runAudited(sim, trace);
    // Reclaiming 2 instead would cold-start a again at 30 s, reclaiming
    // 1 on the way. Either way the keep-alive timers evict the two
    // instances left once the trace ends.
    EXPECT_EQ(m.coldStarts, 3u);
    EXPECT_EQ(m.warmHits, 3u);
    EXPECT_EQ(m.evictions, 1u + 2u);
    EXPECT_EQ(m.queuedForMemory, 0u);
}

/**
 * Mitosis pins each checkpoint's shadow copy in its parent node's
 * DRAM. A torn restore releases the checkpoint, and with it the
 * shadow; the node's memory must come back, or the leaked bytes pile
 * up until requests wait for memory that never frees.
 */
TEST_F(PorterSimTest, MitosisShadowsReturnToTheirNode)
{
    PorterConfig cfg;
    cfg.mechanism = Mechanism::MitosisCxl;
    cfg.keepAlive = SimTime::sec(5);
    cfg.memPerNodeBytes = mem::mib(512);
    cfg.faults.corruptRestoreRate = 0.2;
    PorterSim sim(cfg,
                  {tinySpec("a", 24), tinySpec("b", 32), tinySpec("c", 16),
                   tinySpec("d", 40)},
                  perf);
    const auto trace = steadyTrace({"a", "b", "c", "d"}, 100, 120);
    const auto m = runAudited(sim, trace);
    EXPECT_GT(m.corruptRestores, 0u);
    EXPECT_GT(m.checkpointsTaken, 4u) << "torn checkpoints are retaken";
    EXPECT_EQ(m.latency.count(), trace.size());
}

TEST(PerfModelTest, ProfilesAreCachedAndSane)
{
    PerfModel perf;
    const FunctionSpec s = tinySpec("x");
    const auto &p1 =
        perf.profile(s, Mechanism::CxlFork, os::TieringPolicy::MigrateOnWrite);
    const auto &p2 =
        perf.profile(s, Mechanism::CxlFork, os::TieringPolicy::MigrateOnWrite);
    EXPECT_EQ(&p1, &p2) << "second lookup must hit the cache";
    EXPECT_GT(p1.restoreLatency.toNs(), 0.0);
    EXPECT_GT(p1.coldStartLatency, p1.restoreLatency);
    EXPECT_GT(p1.coldLocalBytes, p1.localBytesAfterExec);
    EXPECT_GT(p1.checkpointCxlBytes, 0u);
}

TEST(PerfModelTest, MechanismContrastsHold)
{
    PerfModel perf;
    FunctionSpec s = tinySpec("y", 64);
    s.initFrac = 0.72;
    s.roFrac = 0.25;
    s.rwFrac = 0.03;
    const auto &criu = perf.profile(s, Mechanism::CriuCxl,
                                    os::TieringPolicy::MigrateOnAccess);
    const auto &mito = perf.profile(s, Mechanism::MitosisCxl,
                                    os::TieringPolicy::MigrateOnAccess);
    const auto &cxlf = perf.profile(s, Mechanism::CxlFork,
                                    os::TieringPolicy::MigrateOnWrite);
    EXPECT_GT(criu.restoreLatency, mito.restoreLatency);
    EXPECT_GT(mito.restoreLatency, cxlf.restoreLatency);
    EXPECT_GT(criu.localBytesAfterExec, cxlf.localBytesAfterExec);
    EXPECT_GT(mito.checkpointLocalBytes, 0u);
    EXPECT_EQ(cxlf.checkpointLocalBytes, 0u);
    EXPECT_GT(criu.checkpointLatency, cxlf.checkpointLatency);
    EXPECT_LT(mito.checkpointLatency, cxlf.checkpointLatency);
}

} // namespace
} // namespace cxlfork::porter
