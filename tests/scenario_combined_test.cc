/**
 * @file
 * Every fault layer in one soak, which no single preset combines: RAS
 * poison, transients and post-birth strikes with scrubbing; link flaps,
 * scheduled severs, heartbeat quarantines and split-brain replays; and
 * mid-publish node crashes, on a three-node cluster, for all four
 * mechanisms. Each soak runs twice: the reports must be equal, the
 * teardown audit must pass, and every restore must be byte-identical
 * or end in a typed degradation (Report::pass). Labeled crash, chaos
 * and partition, so each suite's CI run and the ASan/UBSan smoke run
 * it.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <string>

#include "porter/scenario.hh"

namespace cxlfork::porter {
namespace {

using rfork::MechanismKind;

/** The partition soak with the chaos soak's injectors and steps on. */
Scenario
combined(MechanismKind m)
{
    const Scenario chaos = Scenario::chaos();
    Scenario s = Scenario::partition();
    s.mechanism = m;
    sim::FaultConfig &f = s.cluster.machine.faults;
    const sim::FaultConfig &c = chaos.cluster.machine.faults;
    f.framePoisonRate = c.framePoisonRate;
    f.cxlTransientRate = c.cxlTransientRate;
    f.maxRetries = c.maxRetries;
    f.backoffJitter = c.backoffJitter;
    s.publishFault = chaos.publishFault;
    s.publishFaultProb = chaos.publishFaultProb;
    s.publishSites = chaos.publishSites;
    s.steps |= chaos.steps;
    return s;
}

class CombinedScenario : public ::testing::TestWithParam<MechanismKind>
{
};

TEST_P(CombinedScenario, EveryLayerAtOnceHoldsAndReplays)
{
    const Scenario s = combined(GetParam());
    const Report a = run(s);
    const Report b = run(s);
    EXPECT_TRUE(a.pass) << a.firstViolation;
    EXPECT_EQ(a.framesLeaked, 0u);
    EXPECT_TRUE(a == b) << "the same scenario reported differently";
    // Every layer struck in the same run.
    EXPECT_GT(a.restoresOk, 0u);
    EXPECT_GT(a.severedTxns, 0u) << "the link weather never blew";
    if (s.mechanism == MechanismKind::LocalFork)
        return; // no cross-node restore, split brain or scheduled cut
    EXPECT_GT(a.crashesInjected, 0u) << "no mid-publish crash fired";
    EXPECT_GT(a.quarantines, 0u);
    EXPECT_GT(a.stalePublishesRejected, 0u);
    if (s.mechanism == MechanismKind::MitosisCxl)
        return; // its checkpoints live in the parent's DRAM
    EXPECT_GT(a.strikes, 0u);
    EXPECT_GT(a.repairs, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Mechanisms, CombinedScenario,
    ::testing::Values(MechanismKind::CxlFork, MechanismKind::CriuCxl,
                      MechanismKind::MitosisCxl, MechanismKind::LocalFork),
    [](const ::testing::TestParamInfo<MechanismKind> &info) {
        std::string name = rfork::mechanismName(info.param);
        std::erase_if(name, [](char c) { return !std::isalnum(c); });
        return name;
    });

} // namespace
} // namespace cxlfork::porter
