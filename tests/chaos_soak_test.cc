/**
 * @file
 * The chaos preset of porter::Scenario (porter/scenario.hh) as a ctest: thousands of
 * invocations per mechanism under combined poison/transient/crash
 * injection, the negative control that proves losses are visible, and
 * report-level determinism. Labeled `chaos` so CI runs the suite
 * explicitly (ctest -L chaos), including under ASAN.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>

#include "porter/scenario.hh"

namespace cxlfork {
namespace {

using porter::Report;
using porter::Scenario;
using rfork::MechanismKind;

Scenario
soakConfig(MechanismKind mech, uint64_t rounds = 600)
{
    Scenario cfg = Scenario::chaos();
    cfg.mechanism = mech;
    cfg.rounds = rounds;
    return cfg;
}

class ChaosSoakAllMechanisms
    : public ::testing::TestWithParam<MechanismKind>
{
};

TEST_P(ChaosSoakAllMechanisms, HoldsEveryInvariant)
{
    const Report rep = porter::run(soakConfig(GetParam()));
    EXPECT_TRUE(rep.pass) << rep.firstViolation;
    EXPECT_GT(rep.invocations, 1000u) << "soak too short to mean much";
    EXPECT_GT(rep.checkpointsPublished, 0u);
    EXPECT_GT(rep.crashesInjected, 0u) << "crash arm never fired";
    EXPECT_EQ(rep.framesLeaked, 0u);
    EXPECT_GE(rep.checkpointSurvival(), 0.9)
        << "replication should keep nearly every checkpoint restorable";
}

INSTANTIATE_TEST_SUITE_P(
    Mechanisms, ChaosSoakAllMechanisms,
    ::testing::Values(MechanismKind::CxlFork, MechanismKind::CriuCxl,
                      MechanismKind::MitosisCxl, MechanismKind::LocalFork),
    [](const ::testing::TestParamInfo<MechanismKind> &info) {
        // Param names must be alphanumeric: strip the dashes out of
        // display names like "CRIU-CXL".
        std::string name = rfork::mechanismName(info.param);
        name.erase(std::remove_if(name.begin(), name.end(),
                                  [](char c) { return !std::isalnum(c); }),
                   name.end());
        return name;
    });

TEST(ChaosSoak, RepairLadderActuallyExercised)
{
    // CXLfork keeps its checkpoints on the device, so the strike
    // injector must hit live frames and the ladder must repair them —
    // a soak where nothing ever breaks proves nothing.
    const Report rep =
        porter::run(soakConfig(MechanismKind::CxlFork));
    EXPECT_GT(rep.strikes, 0u);
    EXPECT_GT(rep.repairs, 0u);
    EXPECT_GT(rep.replicasWritten, 0u);
    EXPECT_GT(rep.peakReplicaBytes, 0u);
    EXPECT_GT(rep.recoveries, 0u);
}

TEST(ChaosSoak, ScrubberRepairsAreReported)
{
    // With no restores, nothing reads a struck primary before the
    // scrubber does, so every repair is the scrubber's. The report used
    // to zero this count whenever RAS was on, the only time the
    // scrubber runs.
    Scenario cfg = soakConfig(MechanismKind::CxlFork, 250);
    cfg.steps = Scenario::kRas;
    const Report rep = porter::run(cfg);
    EXPECT_TRUE(rep.pass) << rep.firstViolation;
    EXPECT_GT(rep.strikes, 0u);
    EXPECT_GT(rep.scrubRepairs, 0u);
    EXPECT_EQ(rep.scrubRepairs, rep.repairs);
}

TEST(ChaosSoak, NegativeControlLosesCheckpoints)
{
    // Replication off: the same storm must now destroy checkpoints —
    // and every loss must still be provable (reclaimed, not corrupt).
    Scenario cfg = soakConfig(MechanismKind::CxlFork);
    cfg.setReplicas(0);
    const Report rep = porter::run(cfg);
    EXPECT_TRUE(rep.pass) << rep.firstViolation;
    EXPECT_GT(rep.checkpointsLost, 0u)
        << "the harness cannot see losses at all";
    EXPECT_EQ(rep.repairs, 0u);
    EXPECT_EQ(rep.framesLeaked, 0u);
    EXPECT_LT(rep.checkpointSurvival(), 0.9);
}

TEST(ChaosSoak, ReplicationBeatsNoReplication)
{
    Scenario with = soakConfig(MechanismKind::CxlFork);
    Scenario without = with;
    without.setReplicas(0);
    const Report r2 = porter::run(with);
    const Report r0 = porter::run(without);
    EXPECT_GT(r2.checkpointSurvival(), r0.checkpointSurvival());
}

TEST(ChaosSoak, ReportIsDeterministic)
{
    const Scenario cfg = soakConfig(MechanismKind::CriuCxl, 200);
    const Report a = porter::run(cfg);
    const Report b = porter::run(cfg);
    EXPECT_EQ(a.invocations, b.invocations);
    EXPECT_EQ(a.checkpointsPublished, b.checkpointsPublished);
    EXPECT_EQ(a.restoresOk, b.restoresOk);
    EXPECT_EQ(a.coldStarts, b.coldStarts);
    EXPECT_EQ(a.transientFailures, b.transientFailures);
    EXPECT_EQ(a.checkpointsLost, b.checkpointsLost);
    EXPECT_EQ(a.pagesLost, b.pagesLost);
    EXPECT_EQ(a.repairs, b.repairs);
    EXPECT_EQ(a.replicasWritten, b.replicasWritten);
    EXPECT_EQ(a.peakReplicaBytes, b.peakReplicaBytes);
    EXPECT_EQ(a.strikes, b.strikes);
    EXPECT_EQ(a.crashesInjected, b.crashesInjected);
    EXPECT_EQ(a.recoveries, b.recoveries);
    EXPECT_EQ(a.scrubRepairs, b.scrubRepairs);
    EXPECT_EQ(a.pass, b.pass);
}

// --- The storm again with the coherence directory armed.
//
// Every publish/restore/crash round now runs through the MESI
// directory; the harness's byte-identical restore check doubles as a
// staleness oracle (a crashed node's unflushed HDM-D stores surfacing
// in a "successful" restore would be caught as a corrupt restore), and
// finalAudit additionally runs the directory's MESI invariant audit.

class ChaosSoakCoherence
    : public ::testing::TestWithParam<cxl::CoherenceMode>
{
};

TEST_P(ChaosSoakCoherence, HoldsEveryInvariantWithDirectoryArmed)
{
    Scenario cfg = soakConfig(MechanismKind::CxlFork, 250);
    cfg.cluster.coherence.mode = GetParam();
    const Report rep = porter::run(cfg);
    EXPECT_TRUE(rep.pass) << rep.firstViolation;
    EXPECT_GT(rep.checkpointsPublished, 0u);
    EXPECT_GT(rep.crashesInjected, 0u) << "crash arm never fired";
    EXPECT_GT(rep.recoveries, 0u);
    EXPECT_EQ(rep.framesLeaked, 0u);
}

INSTANTIATE_TEST_SUITE_P(Modes, ChaosSoakCoherence,
                         ::testing::Values(cxl::CoherenceMode::HdmH,
                                           cxl::CoherenceMode::HdmD),
                         [](const auto &info) {
                             return info.param == cxl::CoherenceMode::HdmH
                                        ? "HdmH"
                                        : "HdmD";
                         });

TEST(ChaosSoakCoherence, DirectoryOffReportMatchesPreCoherenceSoak)
{
    // The coherence knob at Off must reproduce the directory-free soak
    // bit-identically — same storm, same counts, no directory in the
    // loop.
    const Scenario off = soakConfig(MechanismKind::CriuCxl, 200);
    Scenario offExplicit = off;
    offExplicit.cluster.coherence.mode = cxl::CoherenceMode::Off;
    const Report a = porter::run(off);
    const Report b = porter::run(offExplicit);
    EXPECT_EQ(a.invocations, b.invocations);
    EXPECT_EQ(a.restoresOk, b.restoresOk);
    EXPECT_EQ(a.checkpointsLost, b.checkpointsLost);
    EXPECT_EQ(a.repairs, b.repairs);
    EXPECT_EQ(a.crashesInjected, b.crashesInjected);
    EXPECT_EQ(a.pass, b.pass);
}

TEST(ChaosSoak, SeedChangesTheStorm)
{
    Scenario cfg = soakConfig(MechanismKind::CxlFork, 200);
    const Report a = porter::run(cfg);
    cfg.seed ^= 0x5eedULL;
    const Report b = porter::run(cfg);
    EXPECT_TRUE(a.pass && b.pass);
    // Different seed, different schedule — at least one observable
    // differs (all equal would suggest the seed is ignored).
    EXPECT_TRUE(a.strikes != b.strikes || a.repairs != b.repairs ||
                a.crashesInjected != b.crashesInjected ||
                a.coldStarts != b.coldStarts);
}

} // namespace
} // namespace cxlfork
