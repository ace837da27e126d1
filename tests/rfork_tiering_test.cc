#include <gtest/gtest.h>

#include "rfork/cxlfork.hh"
#include "test_util.hh"

namespace cxlfork::rfork {
namespace {

using mem::kPageSize;
using mem::VirtAddr;
using os::kVmaRead;
using os::kVmaWrite;
using os::TieringPolicy;
using test::World;

class TieringTest : public ::testing::Test
{
  protected:
    static constexpr uint64_t kHotPages = 16;
    static constexpr uint64_t kColdPages = 16;

    TieringTest()
        : world(test::smallConfig()), node0(world.node(0)),
          node1(world.node(1)), fork(*world.fabric)
    {
        parent = node0.createTask("fn");
        os::Vma &heap =
            node0.mapAnon(*parent, (kHotPages + kColdPages) * kPageSize,
                          kVmaRead | kVmaWrite, "[heap]");
        heapStart = heap.start;
        for (uint64_t i = 0; i < kHotPages + kColdPages; ++i)
            node0.write(*parent, heapStart.plus(i * kPageSize), 100 + i);

        // Establish the parent's steady access pattern: clear A bits,
        // then touch only the hot half (CXLporter's "checkpoint in the
        // steady state, not the init phase").
        parent->mm().pageTable().clearAccessedBits(/*alsoDirty=*/true);
        for (uint64_t i = 0; i < kHotPages; ++i)
            node0.read(*parent, heapStart.plus(i * kPageSize));

        handle = fork.checkpoint(node0, *parent);
        img = CxlFork::image(handle);
    }

    std::unique_ptr<int> unused_;

    RestoreOptions
    optsFor(TieringPolicy p, bool prefetch = false)
    {
        RestoreOptions o;
        o.policy = p;
        o.prefetchDirty = prefetch;
        return o;
    }

    World world;
    os::NodeOs &node0;
    os::NodeOs &node1;
    CxlFork fork;
    std::shared_ptr<os::Task> parent;
    std::shared_ptr<CheckpointHandle> handle;
    std::shared_ptr<CheckpointImage> img;
    VirtAddr heapStart;
};

TEST_F(TieringTest, CheckpointPreservesParentAccessPattern)
{
    // Only the hot half carries A bits into the checkpoint.
    EXPECT_EQ(img->accessedPageCount(), kHotPages);
    for (uint64_t i = 0; i < kHotPages; ++i)
        EXPECT_TRUE(
            img->checkpointPte(heapStart.plus(i * kPageSize)).accessed());
    for (uint64_t i = kHotPages; i < kHotPages + kColdPages; ++i)
        EXPECT_FALSE(
            img->checkpointPte(heapStart.plus(i * kPageSize)).accessed());
}

TEST_F(TieringTest, MigrateOnWriteReadsStayRemoteWritesComeLocal)
{
    auto child =
        fork.restore(handle, node1, optsFor(TieringPolicy::MigrateOnWrite));
    auto read = node1.access(*child, heapStart, false);
    EXPECT_EQ(read.fault, os::FaultKind::None);
    EXPECT_EQ(read.tier, mem::Tier::Cxl);

    auto write = node1.access(*child, heapStart.plus(kPageSize), true, 9);
    EXPECT_EQ(write.fault, os::FaultKind::CowCxl);
    EXPECT_EQ(write.tier, mem::Tier::LocalDram);
}

TEST_F(TieringTest, MigrateOnAccessCopiesEverythingTouched)
{
    auto child =
        fork.restore(handle, node1, optsFor(TieringPolicy::MigrateOnAccess));
    // No leaves attached: the very first read faults and migrates.
    auto read = node1.access(*child, heapStart, false);
    EXPECT_EQ(read.fault, os::FaultKind::CxlMigrate);
    EXPECT_EQ(read.tier, mem::Tier::LocalDram);
    EXPECT_EQ(node1.read(*child, heapStart), 100u);
    EXPECT_EQ(child->mm().cxlMappedBytes(), 0u);
}

TEST_F(TieringTest, HybridUsesAccessedBits)
{
    auto child =
        fork.restore(handle, node1, optsFor(TieringPolicy::Hybrid));
    // Hot page (A bit set in checkpoint): copied to local on access.
    auto hot = node1.access(*child, heapStart, false);
    EXPECT_EQ(hot.fault, os::FaultKind::CxlMigrate);
    EXPECT_EQ(hot.tier, mem::Tier::LocalDram);
    // Cold page (A clear): mapped through, stays on CXL.
    auto cold = node1.access(
        *child, heapStart.plus(kHotPages * kPageSize), false);
    EXPECT_EQ(cold.fault, os::FaultKind::CxlMapThrough);
    EXPECT_EQ(cold.tier, mem::Tier::Cxl);
    // Contents are right either way.
    EXPECT_EQ(node1.read(*child, heapStart), 100u);
    EXPECT_EQ(node1.read(*child, heapStart.plus(kHotPages * kPageSize)),
              100 + kHotPages);
}

TEST_F(TieringTest, HybridWritesAlwaysComeLocal)
{
    auto child =
        fork.restore(handle, node1, optsFor(TieringPolicy::Hybrid));
    const VirtAddr coldVa = heapStart.plus((kHotPages + 1) * kPageSize);
    auto w = node1.access(*child, coldVa, true, 0x77);
    EXPECT_EQ(w.fault, os::FaultKind::CxlMigrate);
    EXPECT_EQ(node1.read(*child, coldVa), 0x77u);
}

TEST_F(TieringTest, PolicyMemoryFootprintOrdering)
{
    auto mow = fork.restore(handle, node1,
                            optsFor(TieringPolicy::MigrateOnWrite));
    auto moa = fork.restore(handle, node1,
                            optsFor(TieringPolicy::MigrateOnAccess));
    auto ht =
        fork.restore(handle, node1, optsFor(TieringPolicy::Hybrid));

    // Each child reads every page. The MoW sibling reads last: its page
    // walks set A bits on the *shared* checkpointed tables, which would
    // otherwise promote every page for the hybrid sibling.
    for (uint64_t i = 0; i < kHotPages + kColdPages; ++i)
        node1.read(*moa, heapStart.plus(i * kPageSize));
    for (uint64_t i = 0; i < kHotPages + kColdPages; ++i)
        node1.read(*ht, heapStart.plus(i * kPageSize));
    for (uint64_t i = 0; i < kHotPages + kColdPages; ++i)
        node1.read(*mow, heapStart.plus(i * kPageSize));
    const uint64_t mowLocal = mow->mm().localFootprintBytes();
    const uint64_t moaLocal = moa->mm().localFootprintBytes();
    const uint64_t htLocal = ht->mm().localFootprintBytes();
    EXPECT_LT(mowLocal, htLocal);
    EXPECT_LT(htLocal, moaLocal);
}

TEST_F(TieringTest, AbitResetThenReprofile)
{
    img->resetAccessedBits();
    EXPECT_EQ(img->accessedPageCount(), 0u);

    // A MoW sibling's reads mark the shared checkpointed tables.
    auto child = fork.restore(handle, node1,
                              optsFor(TieringPolicy::MigrateOnWrite));
    for (uint64_t i = 0; i < 5; ++i)
        node1.read(*child, heapStart.plus(i * kPageSize));
    EXPECT_EQ(img->accessedPageCount(), 5u);

    // A later hybrid restore honours the fresh profile.
    auto ht = fork.restore(handle, node0, optsFor(TieringPolicy::Hybrid));
    auto hot = node0.access(*ht, heapStart, false);
    EXPECT_EQ(hot.fault, os::FaultKind::CxlMigrate);
    auto cold = node0.access(*ht, heapStart.plus(10 * kPageSize), false);
    EXPECT_EQ(cold.fault, os::FaultKind::CxlMapThrough);
}

TEST_F(TieringTest, UserHotPagesMigrateUnderHybrid)
{
    img->resetAccessedBits();
    const VirtAddr va = heapStart.plus((kHotPages + 3) * kPageSize);
    img->markUserHot(va);
    auto child =
        fork.restore(handle, node1, optsFor(TieringPolicy::Hybrid));
    // User-hot marking alone doesn't set A; hybrid keys on A bits, so
    // verify the hot hint survives into mapped PTEs for profilers.
    auto r = node1.access(*child, va, false);
    EXPECT_EQ(r.fault, os::FaultKind::CxlMapThrough);
    EXPECT_TRUE(child->mm().pageTable().lookup(va).userHot());
}

TEST_F(TieringTest, PolicySwitchOnLiveChild)
{
    auto child = fork.restore(handle, node1,
                              optsFor(TieringPolicy::MigrateOnWrite));
    EXPECT_EQ(child->mm().policy(), TieringPolicy::MigrateOnWrite);
    child->mm().setPolicy(TieringPolicy::Hybrid);
    EXPECT_EQ(child->mm().policy(), TieringPolicy::Hybrid);
}

} // namespace
} // namespace cxlfork::rfork
