/**
 * @file
 * FaultInjector reconfiguration semantics: setConfig() must make the
 * injector a pure function of the new config — streams, stats, and
 * crash-site state all reset — so sweep points that reuse a machine
 * (or run back-to-back in one process) cannot contaminate each other.
 */

#include <gtest/gtest.h>

#include <vector>

#include "bench_util.hh"
#include "porter/scenario.hh"
#include "sim/clock.hh"
#include "sim/error.hh"
#include "sim/fault_injector.hh"
#include "test_util.hh"

namespace cxlfork {
namespace {

using sim::FaultConfig;
using sim::FaultInjector;

FaultConfig
noisyConfig(uint64_t seed = 0xabcd)
{
    FaultConfig cfg;
    cfg.seed = seed;
    cfg.cxlTransientRate = 0.3;
    cfg.framePoisonRate = 0.1;
    cfg.tornWriteRate = 0.05;
    return cfg;
}

TEST(FaultReset, SetConfigRestartsEveryStream)
{
    const FaultConfig cfg = noisyConfig();
    FaultInjector reused(cfg);
    // Consume an arbitrary prefix of every stream.
    for (int i = 0; i < 777; ++i) {
        (void)reused.drawTransient();
        (void)reused.drawPoison();
        (void)reused.drawTornWrite();
    }
    (void)reused.backoffRng().raw();

    reused.setConfig(cfg);
    FaultInjector fresh(cfg);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_EQ(reused.drawTransient(), fresh.drawTransient());
        EXPECT_EQ(reused.drawPoison(), fresh.drawPoison());
        EXPECT_EQ(reused.drawTornWrite(), fresh.drawTornWrite());
    }
    EXPECT_EQ(reused.backoffRng().raw(), fresh.backoffRng().raw());
}

TEST(FaultReset, SetConfigClearsStatsAndCrashState)
{
    FaultInjector inj(noisyConfig());
    for (int i = 0; i < 200; ++i)
        (void)inj.drawTransient();
    ASSERT_GT(inj.stats().transientsInjected, 0u);

    // Leave a crash armed but unfired — the classic leak: the next
    // sweep point's first crash site would detonate a stale bomb.
    inj.armCrashSite(5);
    inj.crashPoint("site-a");
    ASSERT_EQ(inj.crashSitesSeen(), 1u);

    inj.setConfig(noisyConfig());
    EXPECT_EQ(inj.stats().transientsInjected, 0u);
    EXPECT_EQ(inj.stats().crashesInjected, 0u);
    EXPECT_EQ(inj.crashMode(), sim::CrashMode::Off);
    EXPECT_EQ(inj.crashSitesSeen(), 0u);
    // Crash sites are free no-ops again: nothing fires, nothing ticks.
    for (int i = 0; i < 100; ++i)
        inj.crashPoint("site-b");
    EXPECT_EQ(inj.crashSitesSeen(), 0u);
    EXPECT_EQ(inj.stats().crashesInjected, 0u);
}

/** One injected "sweep point" on a shared machine: stats + sim time. */
struct PointResult
{
    sim::FaultStats stats;
    sim::SimTime elapsed;

    bool
    operator==(const PointResult &o) const
    {
        return stats.transientsInjected == o.stats.transientsInjected &&
               stats.transientsRetried == o.stats.transientsRetried &&
               stats.transientsEscalated == o.stats.transientsEscalated &&
               stats.framesPoisoned == o.stats.framesPoisoned &&
               elapsed == o.elapsed;
    }
};

PointResult
runPointOn(mem::Machine &machine, const FaultConfig &cfg)
{
    machine.setFaultConfig(cfg);
    sim::SimClock clock;
    std::vector<mem::PhysAddr> frames;
    for (int i = 0; i < 120; ++i) {
        try {
            machine.cxlTransaction(clock, "point-op");
        } catch (const sim::TransientFaultError &) {
            // Escalations count via stats; the point carries on.
        }
        if (i % 3 == 0)
            frames.push_back(
                machine.cxl().alloc(mem::FrameUse::Data, uint64_t(i)));
    }
    for (mem::PhysAddr f : frames)
        machine.cxl().decRef(f);
    return {machine.faults().stats(), clock.now()};
}

TEST(FaultReset, BackToBackPointsOnOneMachineAreIdentical)
{
    test::World w(test::smallConfig());
    const FaultConfig a = noisyConfig(111);
    FaultConfig b = noisyConfig(222);
    b.cxlTransientRate = 0.6; // a deliberately different middle point

    const PointResult first = runPointOn(*w.machine, a);
    const PointResult middle = runPointOn(*w.machine, b);
    const PointResult again = runPointOn(*w.machine, a);
    // The interposed point must leave no trace: same config, same
    // schedule, same stats, same simulated cost.
    EXPECT_TRUE(first == again);
    EXPECT_GT(first.stats.transientsInjected, 0u);
    EXPECT_FALSE(first == middle) << "the middle point must differ for "
                                     "the regression to mean anything";
}

TEST(FaultReset, SweepPointsBackToBackAreIdentical)
{
    // Two identical chaos points through the sweep executor: each
    // builds all mutable state inside the point, so running the same
    // point twice back-to-back must reproduce the report exactly.
    porter::Scenario cc = porter::Scenario::chaos();
    cc.rounds = 17; // three generations and one scrub step
    std::vector<porter::Report> reports(2);
    const std::vector<int> points = {0, 1};
    bench::runSweep(points,
                    [&](int, size_t i) { reports[i] = porter::run(cc); });
    EXPECT_TRUE(reports[0].pass) << reports[0].firstViolation;
    EXPECT_EQ(reports[0].invocations, reports[1].invocations);
    EXPECT_EQ(reports[0].checkpointsPublished,
              reports[1].checkpointsPublished);
    EXPECT_EQ(reports[0].restoresOk, reports[1].restoresOk);
    EXPECT_EQ(reports[0].coldStarts, reports[1].coldStarts);
    EXPECT_EQ(reports[0].checkpointsLost, reports[1].checkpointsLost);
    EXPECT_EQ(reports[0].repairs, reports[1].repairs);
    EXPECT_EQ(reports[0].strikes, reports[1].strikes);
    EXPECT_EQ(reports[0].crashesInjected, reports[1].crashesInjected);
    EXPECT_EQ(reports[0].pass, reports[1].pass);
}

} // namespace
} // namespace cxlfork
