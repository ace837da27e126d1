/**
 * @file
 * The harness core's one teardown audit and its site sweep against
 * planted violations: a leaked CXL frame, a STAGED record that was
 * never published, a stray HDM-D token, and a dry-run count that
 * disagrees with the armed replays. Each is planted on a small
 * cluster and must be named; the clean cluster must pass.
 */

#include <gtest/gtest.h>

#include <string>

#include "cxl/coherence.hh"
#include "porter/harness_core.hh"

namespace cxlfork::cxl {

struct CoherenceDirectoryTestAccess
{
    /** Give node n an HDM-D cached token the line's mask lacks. */
    static void
    plantStrayToken(CoherenceDirectory &dir, mem::PhysAddr a, mem::NodeId n)
    {
        dir.tokens_[CoherenceDirectory::tokenKey(
            dir.lineIndexOf(a), n, CoherenceDirectory::TokenKind::Cached)] = 1;
    }
};

} // namespace cxlfork::cxl

namespace cxlfork::porter::harness {
namespace {

using rfork::MechanismKind;

TEST(HarnessAudit, CleanClusterPasses)
{
    Rig rig(smallCluster(2), MechanismKind::CxlFork, "auditfn", 4,
            {0xc0ffee});
    Verdict v;
    EXPECT_EQ(rig.audit(v), 0u);
    EXPECT_FALSE(v.failed) << v.detail;
}

TEST(HarnessAudit, NamesALeakedCxlFrame)
{
    Rig rig(smallCluster(2), MechanismKind::CxlFork, "auditfn", 4,
            {0xc0ffee});
    rig.cluster.machine().cxl().alloc(mem::FrameUse::Data);
    Verdict v;
    EXPECT_EQ(rig.audit(v), 1u);
    EXPECT_EQ(v.detail, "1 frames leaked");
}

TEST(HarnessAudit, NamesAnUnpublishedStagedRecord)
{
    Rig rig(smallCluster(2), MechanismKind::CxlFork, "auditfn", 4,
            {0xc0ffee});
    rig.parent.fill(0);
    rig.cluster.checkpoints().stage(
        kUser, "auditfn",
        rig.mech->checkpoint(rig.cluster.node(0), *rig.parent.task), 0);
    rig.parent.exit();
    // The staged record pins its frames, which the census would name
    // first; a baseline taken now isolates the STAGED check.
    rig.baselineFrames = rig.cluster.machine().usedFrames();
    Verdict v;
    EXPECT_EQ(rig.audit(v), 0u);
    EXPECT_EQ(v.detail, "STAGED journal record survived teardown");
}

TEST(HarnessAudit, NamesAStrayHdmDToken)
{
    ClusterConfig cc = smallCluster(2);
    cc.coherence.mode = cxl::CoherenceMode::HdmD;
    Rig rig(cc, MechanismKind::CxlFork, "auditfn", 4, {0xc0ffee});
    cxl::CoherenceDirectory *dir = rig.cluster.fabric().coherence();
    ASSERT_NE(dir, nullptr);
    cxl::CoherenceDirectoryTestAccess::plantStrayToken(
        *dir, mem::PhysAddr{mem::Machine::kCxlBase}, 1);
    Verdict v;
    EXPECT_EQ(rig.audit(v), 0u);
    EXPECT_EQ(v.detail, "coherence audit failed: coherence line 0: stray "
                          "cached token for node 1");
}

TEST(HarnessAudit, KeepsOnlyTheFirstViolation)
{
    Verdict v("CXLfork: ");
    v.fail("first");
    v.fail("second");
    EXPECT_TRUE(v.failed);
    EXPECT_EQ(v.detail, "CXLfork: first");
}

struct FakeSite
{
    bool fired = false;
    bool violation = false;
    std::string detail;
};

TEST(SiteSweep, FlagsCountDrift)
{
    // Site 1 of 3 never fires, and the control fires: both disagree
    // with the dry-run count.
    const auto rep = sweepSites(
        MechanismKind::CriuCxl, 3, "crash", &FakeSite::fired,
        [](uint64_t k) { return FakeSite{k != 1, false, {}}; });
    ASSERT_EQ(rep.results.size(), 4u);
    EXPECT_FALSE(rep.pass);
    EXPECT_FALSE(rep.results[0].violation);
    EXPECT_EQ(rep.results[1].detail,
              "armed crash site never fired (count drift)");
    EXPECT_EQ(rep.results[3].detail,
              "crash fired past the counted site range");
    EXPECT_EQ(rep.firstViolation,
              "CRIU-CXL site 1: armed crash site never fired (count drift)");
}

} // namespace
} // namespace cxlfork::porter::harness
