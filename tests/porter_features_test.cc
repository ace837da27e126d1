/**
 * @file
 * CXLporter feature tests: checkpoint reclamation under CXL pressure,
 * dynamic tiering promotion, keep-alive shortening under memory
 * pressure, ghost-pool refill, and fabric contention derivation.
 */

#include <gtest/gtest.h>

#include "cxl/fabric_queue.hh"
#include "porter/autoscaler.hh"
#include "porter/trace.hh"

#include "porter_test_util.hh"

namespace cxlfork::porter {
namespace {

using faas::FunctionSpec;
using sim::SimTime;

FunctionSpec
spec(const std::string &name, uint64_t mib, double computeMs = 10,
     uint64_t wsMib = 1)
{
    FunctionSpec s;
    s.name = name;
    s.footprintBytes = mem::mib(mib);
    s.workingSetBytes = mem::mib(wsMib);
    s.wsReuse = 4;
    s.computeTime = SimTime::ms(computeMs);
    s.stateInitTime = SimTime::ms(100);
    s.vmaCount = 12;
    s.seed = std::hash<std::string>()(name);
    return s;
}

std::vector<Request>
trace(const std::vector<std::string> &fns, double rps, double secs,
      uint64_t seed = 11)
{
    TraceConfig c;
    c.totalRps = rps;
    c.duration = SimTime::sec(secs);
    c.seed = seed;
    return TraceGenerator(fns, c).generate();
}

class PorterFeatureTest : public ::testing::Test
{
  protected:
    PerfModel perf;
};

TEST_F(PorterFeatureTest, CheckpointReclamationUnderCxlPressure)
{
    PorterConfig cfg;
    cfg.mechanism = Mechanism::CxlFork;
    cfg.checkpointAfterInvocations = 2;
    // Room for roughly one 24 MB checkpoint at a time.
    cfg.cxlCapacityBytes = mem::mib(40);
    PorterSim sim(cfg, {spec("a", 24), spec("b", 24), spec("c", 24)},
                  perf);
    const auto m = runAudited(sim, trace({"a", "b", "c"}, 30, 15));
    EXPECT_GT(m.checkpointsTaken, 3u)
        << "reclaimed functions must re-checkpoint";
    EXPECT_GT(m.checkpointsReclaimed, 0u);
    EXPECT_LE(m.peakCxlBytes, mem::mib(40));
    EXPECT_EQ(m.latency.count(), m.requests);
}

TEST_F(PorterFeatureTest, NoReclamationWithAmpleCxl)
{
    PorterConfig cfg;
    cfg.mechanism = Mechanism::CxlFork;
    cfg.checkpointAfterInvocations = 2;
    PorterSim sim(cfg, {spec("a", 24), spec("b", 24)}, perf);
    const auto m = runAudited(sim, trace({"a", "b"}, 20, 10));
    EXPECT_EQ(m.checkpointsReclaimed, 0u);
    EXPECT_EQ(m.checkpointsTaken, 2u);
}

TEST_F(PorterFeatureTest, DedupCapacityChargesSharedLayersOnce)
{
    // Three tenants of the same function content (equal specs, names
    // aside) all checkpoint. With dedupCapacity, the measured shared
    // portion is charged against the device once per content group, so
    // peak CXL residency drops by exactly (tenants-1) x shared.
    auto run = [&](bool dedup) {
        PorterConfig cfg;
        cfg.mechanism = Mechanism::CxlFork;
        cfg.checkpointAfterInvocations = 2;
        cfg.dedupCapacity = dedup;
        FunctionSpec a = spec("tenant0", 24);
        FunctionSpec b = a;
        b.name = "tenant1";
        FunctionSpec c = a;
        c.name = "tenant2";
        PorterSim sim(cfg, {a, b, c}, perf);
        return runAudited(sim,
                          trace({"tenant0", "tenant1", "tenant2"}, 30, 15));
    };
    const auto off = run(false);
    const auto on = run(true);
    ASSERT_EQ(off.checkpointsReclaimed, 0u); // ample capacity
    ASSERT_EQ(on.checkpointsReclaimed, 0u);
    ASSERT_GE(off.checkpointsTaken, 3u);
    EXPECT_EQ(on.checkpointsTaken, off.checkpointsTaken);

    const PerfProfile &prof = perf.profile(
        spec("tenant0", 24), Mechanism::CxlFork,
        os::TieringPolicy::MigrateOnWrite);
    const uint64_t shared =
        perf.sharedCxlBytes(spec("tenant0", 24), Mechanism::CxlFork);
    ASSERT_GT(shared, 0u);
    ASSERT_LE(shared, prof.checkpointCxlBytes);
    EXPECT_EQ(off.peakCxlBytes - on.peakCxlBytes, 2 * shared);
}

// Only dedupCapacity reads the shared bytes, so profiling alone must
// not pay for the dedup scratch cluster that measures them.
TEST_F(PorterFeatureTest, ProfileBuildsNoDedupWorld)
{
    for (Mechanism mech : {Mechanism::CriuCxl, Mechanism::MitosisCxl,
                           Mechanism::CxlFork}) {
        perf.profile(spec("a", 8), mech, os::TieringPolicy::MigrateOnWrite);
    }
    EXPECT_EQ(perf.dedupWorldsBuilt(), 0u);

    // A porter run without dedupCapacity checkpoints, and still none.
    PorterConfig cfg;
    cfg.checkpointAfterInvocations = 2;
    const auto m = runAudited(PorterSim(cfg, {spec("a", 8)}, perf),
                              trace({"a"}, 20, 5));
    ASSERT_GT(m.checkpointsTaken, 0u);
    EXPECT_EQ(perf.dedupWorldsBuilt(), 0u);

    // Mitosis keeps no content on the device: no world to build.
    EXPECT_EQ(perf.sharedCxlBytes(spec("a", 8), Mechanism::MitosisCxl), 0u);
    EXPECT_EQ(perf.dedupWorldsBuilt(), 0u);
}

// Under dedupCapacity, every (function, mechanism) is measured once,
// however many checkpoints, reclaims and policies the run goes through.
TEST_F(PorterFeatureTest, DedupCapacityMeasuresEachFunctionOnce)
{
    PorterConfig cfg;
    cfg.mechanism = Mechanism::CxlFork;
    cfg.checkpointAfterInvocations = 2;
    cfg.cxlCapacityBytes = mem::mib(40); // reclaims, then re-checkpoints
    cfg.dedupCapacity = true;
    FunctionSpec a = spec("tenant0", 24);
    FunctionSpec b = a;
    b.name = "tenant1";
    const auto m =
        runAudited(PorterSim(cfg, {a, b, spec("other", 24)}, perf),
                   trace({"tenant0", "tenant1", "other"}, 30, 15));
    ASSERT_GT(m.checkpointsTaken, 3u);
    EXPECT_EQ(perf.dedupWorldsBuilt(), 3u);

    // A second simulation on the same model measures nothing again.
    runAudited(PorterSim(cfg, {a, b, spec("other", 24)}, perf),
               trace({"tenant0", "tenant1", "other"}, 30, 15, 12));
    EXPECT_EQ(perf.dedupWorldsBuilt(), 3u);
}

TEST_F(PorterFeatureTest, DedupCapacityReleaseIsBalanced)
{
    // Under pressure, reclamation must release exactly what charging
    // charged: the shared portion returns only when the last group
    // member leaves, and usage never wedges above capacity.
    PorterConfig cfg;
    cfg.mechanism = Mechanism::CxlFork;
    cfg.checkpointAfterInvocations = 2;
    cfg.cxlCapacityBytes = mem::mib(40);
    cfg.dedupCapacity = true;
    FunctionSpec a = spec("tenant0", 24);
    FunctionSpec b = a;
    b.name = "tenant1";
    FunctionSpec d = spec("other", 24); // different seed: its own group
    PorterSim sim(cfg, {a, b, d}, perf);
    const auto m =
        runAudited(sim, trace({"tenant0", "tenant1", "other"}, 30, 15));
    EXPECT_GT(m.checkpointsTaken, 0u);
    EXPECT_LE(m.peakCxlBytes, mem::mib(40));
    EXPECT_EQ(m.latency.count(), m.requests);
}

TEST_F(PorterFeatureTest, DynamicTieringPromotesSlowFunctions)
{
    // A function whose working set spills the LLC: MoW warm exec is
    // notably slower than local, so the controller promotes it.
    FunctionSpec heavy = spec("heavy", 256, 50, 160);
    heavy.roFrac = 0.6;
    heavy.initFrac = 0.35;
    heavy.rwFrac = 0.05;

    PorterConfig cfg;
    cfg.mechanism = Mechanism::CxlFork;
    cfg.dynamicTiering = true;
    cfg.checkpointAfterInvocations = 2;
    cfg.controllerPeriod = SimTime::sec(1);
    cfg.sloFactor = 1.1;
    PorterSim sim(cfg, {heavy}, perf);
    const auto m = runAudited(sim, trace({"heavy"}, 15, 12));
    EXPECT_GT(m.tieringPromotions, 0u);
}

TEST_F(PorterFeatureTest, StaticMoWNeverPromotes)
{
    FunctionSpec heavy = spec("heavy", 256, 50, 160);
    PorterConfig cfg;
    cfg.mechanism = Mechanism::CxlFork;
    cfg.dynamicTiering = false;
    cfg.sloFactor = 1.0;
    PorterSim sim(cfg, {heavy}, perf);
    const auto m = runAudited(sim, trace({"heavy"}, 10, 8));
    EXPECT_EQ(m.tieringPromotions, 0u);
}

TEST_F(PorterFeatureTest, GhostPoolRefillsInBackground)
{
    PorterConfig cfg;
    cfg.mechanism = Mechanism::CxlFork;
    cfg.checkpointAfterInvocations = 1;
    cfg.ghostsPerFunction = 1;
    cfg.keepAlive = SimTime::sec(1); // force repeated restores
    PorterSim sim(cfg, {spec("a", 16)}, perf);
    const auto m = runAudited(sim, trace({"a"}, 15, 20));
    EXPECT_GT(m.ghostHits, 1u)
        << "a refilled pool must serve more hits than its initial size";
}

TEST_F(PorterFeatureTest, BaselinesNeverPromoteOrReclaimGhosts)
{
    PorterConfig cfg;
    cfg.mechanism = Mechanism::CriuCxl;
    cfg.checkpointAfterInvocations = 2;
    PorterSim sim(cfg, {spec("a", 24)}, perf);
    const auto m = runAudited(sim, trace({"a"}, 20, 10));
    EXPECT_EQ(m.tieringPromotions, 0u);
    EXPECT_EQ(m.ghostHits, 0u);
}

TEST_F(PorterFeatureTest, QueueingCountersPopulateUnderOverload)
{
    PorterConfig cfg;
    cfg.mechanism = Mechanism::CriuCxl;
    cfg.coresPerNode = 1;
    cfg.numNodes = 1;
    cfg.memPerNodeBytes = mem::mib(96);
    cfg.checkpointAfterInvocations = 2;
    PorterSim sim(cfg, {spec("a", 24, 50), spec("b", 24, 50)}, perf);
    const auto m = runAudited(sim, trace({"a", "b"}, 30, 8));
    EXPECT_GT(m.queuedForCores, 0u);
    EXPECT_EQ(m.latency.count(), m.requests)
        << "queued requests must still complete";
}

// The steady-state contention derivation moved from the (dead)
// mem::FabricContentionModel into cxl::contendedCosts when the
// per-request queue model landed. This regression pins the surviving
// math to its closed form so the ext_scaling golden can never drift:
// share(n) = 1 / (n * (1 + 0.05 (n-1))), latency *= 1 + 0.12 (n-1).
TEST(FabricContention, DeratesBandwidthAndInflatesLatency)
{
    sim::CostParams base;
    const auto one = cxl::contendedCosts(base, 1);
    EXPECT_DOUBLE_EQ(one.cxlReadBwGBs, base.cxlReadBwGBs);
    EXPECT_EQ(one.cxlLatency, base.cxlLatency);

    const auto four = cxl::contendedCosts(base, 4);
    const double share4 = 1.0 / (4.0 * (1.0 + 0.05 * 3.0));
    EXPECT_DOUBLE_EQ(four.cxlReadBwGBs, base.cxlReadBwGBs * share4);
    EXPECT_DOUBLE_EQ(four.cxlWriteBwGBs, base.cxlWriteBwGBs * share4);
    EXPECT_DOUBLE_EQ(four.cxlLatency.toNs(),
                     base.cxlLatency.toNs() * (1.0 + 0.12 * 3.0));
    EXPECT_LT(four.cxlReadBwGBs, base.cxlReadBwGBs / 3.9);

    const auto eight = cxl::contendedCosts(base, 8);
    const double share8 = 1.0 / (8.0 * (1.0 + 0.05 * 7.0));
    EXPECT_DOUBLE_EQ(eight.cxlReadBwGBs, base.cxlReadBwGBs * share8);
    EXPECT_DOUBLE_EQ(eight.cxlLatency.toNs(),
                     base.cxlLatency.toNs() * (1.0 + 0.12 * 7.0));
    EXPECT_LT(eight.cxlReadBwGBs, four.cxlReadBwGBs);
    EXPECT_GT(eight.cxlLatency, four.cxlLatency);
    // Local memory untouched.
    EXPECT_EQ(eight.dramLatency, base.dramLatency);
    EXPECT_DOUBLE_EQ(eight.dramBwGBs, base.dramBwGBs);
}

} // namespace
} // namespace cxlfork::porter
