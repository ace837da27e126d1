#include <gtest/gtest.h>

#include <algorithm>

#include "porter/autoscaler.hh"
#include "porter/trace.hh"
#include "sim/log.hh"

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
    const auto m = sim.run(trace);
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
    const auto m = sim.run(steadyTrace({"a"}, 15, 10));
    EXPECT_GT(m.coldStarts, 0u);
    EXPECT_GT(m.restores + m.warmHits, 0u)
        << "after the checkpoint threshold restores must take over";
}

TEST_F(PorterSimTest, WarmHitsDominateSteadyLoad)
{
    PorterConfig cfg;
    cfg.mechanism = Mechanism::CxlFork;
    PorterSim sim(cfg, {tinySpec("a")}, perf);
    const auto m = sim.run(steadyTrace({"a"}, 30, 20));
    EXPECT_GT(m.warmHits, m.requests / 2);
}

TEST_F(PorterSimTest, GhostContainersUsedByCxlForkNotCriu)
{
    const auto trace = steadyTrace({"a"}, 20, 12);
    PorterConfig gcfg;
    gcfg.mechanism = Mechanism::CxlFork;
    gcfg.checkpointAfterInvocations = 2;
    const auto gm = PorterSim(gcfg, {tinySpec("a")}, perf).run(trace);
    EXPECT_GT(gm.ghostHits, 0u);

    PorterConfig ccfg;
    ccfg.mechanism = Mechanism::CriuCxl;
    ccfg.checkpointAfterInvocations = 2;
    const auto cm = PorterSim(ccfg, {tinySpec("a")}, perf).run(trace);
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
        return PorterSim(cfg, fns, perf).run(trace);
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
    const auto m = sim.run(steadyTrace({"a", "b"}, 40, 15));
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
        return PorterSim(cfg, fns, perf).run(trace).p99Ms();
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
    const auto m = sim.run(steadyTrace({"a"}, 10, 10));
    EXPECT_GT(m.abitResets, 1u);
}

TEST_F(PorterSimTest, PerFunctionHistogramsPopulated)
{
    PorterConfig cfg;
    PorterSim sim(cfg, {tinySpec("a"), tinySpec("b")}, perf);
    const auto m = sim.run(steadyTrace({"a", "b"}, 20, 10));
    EXPECT_GT(m.perFunction.at("a").count(), 0u);
    EXPECT_GT(m.perFunction.at("b").count(), 0u);
    EXPECT_EQ(m.perFunction.at("a").count() + m.perFunction.at("b").count(),
              m.latency.count());
}

TEST_F(PorterSimTest, UnknownFunctionIsFatalBeforeAnythingRuns)
{
    PorterConfig cfg;
    PorterSim sim(cfg, {tinySpec("a")}, perf);
    auto trace = steadyTrace({"a"}, 20, 5);
    ASSERT_GT(trace.size(), 2u);
    trace[trace.size() / 2].function = "nope";
    EXPECT_THROW(sim.run(trace), sim::FatalError);

    // Nothing of the rejected trace was scheduled: a good trace on the
    // same simulator runs exactly as on a fresh one.
    const auto good = steadyTrace({"a"}, 20, 5);
    const auto m = sim.run(good);
    const auto fresh = PorterSim(cfg, {tinySpec("a")}, perf).run(good);
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
    const auto m = sim.run(trace);
    EXPECT_EQ(m.latency.count(), trace.size());
    EXPECT_EQ(m.warmHits + m.restores + m.coldStarts, trace.size());
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
