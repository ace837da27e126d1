/**
 * @file
 * The partition soak (porter/partition_harness.hh) as a ctest: all
 * four mechanisms under sustained link chaos with quarantines and
 * split-brain replays, the fence-off negative control that must
 * demonstrably double-publish, and report-level determinism. Labeled
 * `partition` so CI runs the suite explicitly (ctest -L partition),
 * including under ASAN and TSAN.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>

#include "porter/partition_harness.hh"

namespace cxlfork {
namespace {

using rfork::MechanismKind;
using porter::PartitionConfig;
using porter::PartitionReport;

PartitionConfig
soakConfig(MechanismKind mech, uint64_t rounds = 200)
{
    PartitionConfig cfg;
    cfg.mechanism = mech;
    cfg.rounds = rounds;
    return cfg;
}

class PartitionSoakAllMechanisms
    : public ::testing::TestWithParam<MechanismKind>
{
};

TEST_P(PartitionSoakAllMechanisms, HoldsEveryInvariant)
{
    const PartitionReport rep =
        porter::runPartitionSoak(soakConfig(GetParam()));
    EXPECT_TRUE(rep.pass) << rep.firstViolation;
    EXPECT_GT(rep.invocations, 200u) << "soak too short to mean much";
    EXPECT_GT(rep.checkpointsPublished, 0u);
    EXPECT_EQ(rep.framesLeaked, 0u);
    EXPECT_EQ(rep.doublePublishes, 0u)
        << "with the fence on, no zombie publish may ever win";
    EXPECT_GE(rep.survivalFraction(), 0.9)
        << "the ladder should keep nearly every restore byte-identical";
}

INSTANTIATE_TEST_SUITE_P(
    Mechanisms, PartitionSoakAllMechanisms,
    ::testing::Values(MechanismKind::CxlFork, MechanismKind::CriuCxl,
                      MechanismKind::MitosisCxl, MechanismKind::LocalFork),
    [](const ::testing::TestParamInfo<MechanismKind> &info) {
        std::string name = rfork::mechanismName(info.param);
        name.erase(std::remove_if(name.begin(), name.end(),
                                  [](char c) { return !std::isalnum(c); }),
                   name.end());
        return name;
    });

TEST(PartitionSoak, LadderAndFenceActuallyExercised)
{
    // A soak where no link ever fails proves nothing: the weather must
    // push restores off the direct rung, the heartbeat must quarantine
    // cut-off nodes, and the replayed zombie must be fenced.
    const PartitionReport rep =
        porter::runPartitionSoak(soakConfig(MechanismKind::CxlFork));
    EXPECT_GT(rep.severedTxns, 0u);
    EXPECT_GT(rep.degradedTxns, 0u);
    EXPECT_GT(rep.retriedRestores, 0u);
    EXPECT_GT(rep.failovers, 0u);
    EXPECT_GT(rep.reroutes, 0u)
        << "K=2 replicas should feed the reroute rung";
    EXPECT_GT(rep.heartbeatMisses, 0u);
    EXPECT_GT(rep.quarantines, 0u);
    EXPECT_GT(rep.rejoins, 0u);
    EXPECT_GT(rep.stalePublishesRejected, 0u)
        << "the split-brain replay never reached the fence";
    EXPECT_GT(rep.staleRecordsReclaimed, 0u);
}

TEST(PartitionSoak, NegativeControlDoublePublishes)
{
    // Fence off: the returning zombie's publish must now WIN at least
    // once, flipping the tuple the survivors published — the split
    // brain the fence exists to prevent. Every other invariant still
    // holds (the harness knows the flip was "allowed").
    PartitionConfig cfg = soakConfig(MechanismKind::CxlFork);
    cfg.epochFencing = false;
    const PartitionReport rep = porter::runPartitionSoak(cfg);
    EXPECT_TRUE(rep.pass) << rep.firstViolation;
    EXPECT_GT(rep.doublePublishes, 0u)
        << "without the fence the zombie never won: the fence is not "
           "load-bearing";
    EXPECT_EQ(rep.stalePublishesRejected, 0u);
    EXPECT_EQ(rep.framesLeaked, 0u);
}

TEST(PartitionSoak, ReplicasFeedTheRerouteRung)
{
    // Same weather, with and without RAS replicas: the reroute rung
    // only exists with replicas, and it must buy survival.
    PartitionConfig with = soakConfig(MechanismKind::CxlFork, 120);
    with.scheduledSeverProb = 0.0;
    with.midPublishSeverProb = 0.0;
    with.splitBrainEvery = 0;
    with.severRate = 0.05;
    with.degradeRate = 0.05;
    PartitionConfig without = with;
    without.replicas = 0;
    const PartitionReport rWith = porter::runPartitionSoak(with);
    const PartitionReport rWithout = porter::runPartitionSoak(without);
    EXPECT_TRUE(rWith.pass) << rWith.firstViolation;
    EXPECT_TRUE(rWithout.pass) << rWithout.firstViolation;
    EXPECT_GT(rWith.reroutes, 0u);
    EXPECT_EQ(rWithout.reroutes, 0u);
    EXPECT_GT(rWith.survivalFraction(), rWithout.survivalFraction());
}

TEST(PartitionSoak, CalmWeatherIsAllDirect)
{
    PartitionConfig cfg = soakConfig(MechanismKind::CriuCxl, 60);
    cfg.severRate = 0.0;
    cfg.degradeRate = 0.0;
    cfg.scheduledSeverProb = 0.0;
    cfg.midPublishSeverProb = 0.0;
    cfg.splitBrainEvery = 0;
    const PartitionReport rep = porter::runPartitionSoak(cfg);
    EXPECT_TRUE(rep.pass) << rep.firstViolation;
    EXPECT_EQ(rep.invocations, rep.directRestores);
    EXPECT_EQ(rep.failovers, 0u);
    EXPECT_EQ(rep.coldStarts, 0u);
    EXPECT_EQ(rep.quarantines, 0u);
    EXPECT_DOUBLE_EQ(rep.survivalFraction(), 1.0);
}

TEST(PartitionSoak, ReportIsDeterministic)
{
    const PartitionConfig cfg = soakConfig(MechanismKind::MitosisCxl, 120);
    const PartitionReport a = porter::runPartitionSoak(cfg);
    const PartitionReport b = porter::runPartitionSoak(cfg);
    EXPECT_EQ(a.invocations, b.invocations);
    EXPECT_EQ(a.checkpointsPublished, b.checkpointsPublished);
    EXPECT_EQ(a.restoresOk, b.restoresOk);
    EXPECT_EQ(a.directRestores, b.directRestores);
    EXPECT_EQ(a.retriedRestores, b.retriedRestores);
    EXPECT_EQ(a.reroutes, b.reroutes);
    EXPECT_EQ(a.failovers, b.failovers);
    EXPECT_EQ(a.coldStarts, b.coldStarts);
    EXPECT_EQ(a.heartbeatMisses, b.heartbeatMisses);
    EXPECT_EQ(a.quarantines, b.quarantines);
    EXPECT_EQ(a.rejoins, b.rejoins);
    EXPECT_EQ(a.publishPartitioned, b.publishPartitioned);
    EXPECT_EQ(a.stalePublishesRejected, b.stalePublishesRejected);
    EXPECT_EQ(a.staleRecordsReclaimed, b.staleRecordsReclaimed);
    EXPECT_EQ(a.severedTxns, b.severedTxns);
    EXPECT_EQ(a.degradedTxns, b.degradedTxns);
    EXPECT_EQ(a.restoreLatenciesUs, b.restoreLatenciesUs);
    EXPECT_EQ(a.pass, b.pass);
}

TEST(PartitionSoak, QueueArmedSoakHoldsEveryInvariant)
{
    // Partition chaos with the fabric queue model charging contention
    // on top: reroutes, failovers, and quarantine retries all ride
    // cxlTransaction, so every one of them now pays queue delay — but
    // correctness (leaks, fencing, byte-identical survivors) must be
    // exactly as solid as the queue-off soak, and the contention must
    // actually have been exercised, not silently disabled.
    PartitionConfig cfg = soakConfig(MechanismKind::CxlFork);
    cfg.contention.enabled = true;
    const PartitionReport rep = porter::runPartitionSoak(cfg);
    EXPECT_TRUE(rep.pass) << rep.firstViolation;
    EXPECT_EQ(rep.framesLeaked, 0u);
    EXPECT_EQ(rep.doublePublishes, 0u);
    EXPECT_GE(rep.survivalFraction(), 0.9);
    EXPECT_GT(rep.severedTxns, 0u) << "the weather must still blow";
}

TEST(PartitionSoak, SeedChangesTheWeather)
{
    PartitionConfig cfg = soakConfig(MechanismKind::CxlFork, 120);
    const PartitionReport a = porter::runPartitionSoak(cfg);
    cfg.seed ^= 0x5eedULL;
    const PartitionReport b = porter::runPartitionSoak(cfg);
    EXPECT_TRUE(a.pass && b.pass);
    EXPECT_TRUE(a.severedTxns != b.severedTxns ||
                a.quarantines != b.quarantines ||
                a.failovers != b.failovers ||
                a.coldStarts != b.coldStarts);
}

} // namespace
} // namespace cxlfork
