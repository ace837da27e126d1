/**
 * @file
 * Failure and resource-exhaustion behaviour (paper Sec. 3.1: Mitosis
 * couples checkpoints to the parent node, which becomes a point of
 * failure; CXLfork decouples state onto the fabric).
 */

#include <gtest/gtest.h>

#include "rfork/criu.hh"
#include "rfork/cxlfork.hh"
#include "rfork/mitosis.hh"
#include "sim/error.hh"
#include "test_util.hh"

namespace cxlfork::rfork {
namespace {

using mem::kPageSize;
using test::World;

class FailureTest : public ::testing::Test
{
  protected:
    FailureTest() : world(test::smallConfig())
    {
        parent = world.node(0).createTask("fn");
        os::Vma &heap = world.node(0).mapAnon(
            *parent, 32 * kPageSize, os::kVmaRead | os::kVmaWrite, "h");
        heapStart = heap.start;
        for (uint64_t i = 0; i < 32; ++i)
            world.node(0).write(*parent, heapStart.plus(i * kPageSize),
                                i + 1);
    }

    World world;
    std::shared_ptr<os::Task> parent;
    mem::VirtAddr heapStart;
};

TEST_F(FailureTest, MitosisRestoreFailsAfterParentNodeFailure)
{
    MitosisCxl mitosis(*world.fabric);
    auto handle = mitosis.checkpoint(world.node(0), *parent);
    auto h = std::dynamic_pointer_cast<MitosisHandle>(handle);
    ASSERT_NE(h, nullptr);

    h->markParentFailed();
    EXPECT_THROW(mitosis.restore(handle, world.node(1)), sim::FatalError);
}

TEST_F(FailureTest, MitosisLazyFaultsFailAfterParentNodeFailure)
{
    MitosisCxl mitosis(*world.fabric);
    auto handle = mitosis.checkpoint(world.node(0), *parent);
    auto child = mitosis.restore(handle, world.node(1));
    // The child restored fine, but its memory is still on the parent.
    std::dynamic_pointer_cast<MitosisHandle>(handle)->markParentFailed();
    EXPECT_THROW(world.node(1).read(*child, heapStart), sim::FatalError);
}

TEST_F(FailureTest, CxlForkSurvivesParentNodeFailure)
{
    CxlFork fork(*world.fabric);
    auto handle = fork.checkpoint(world.node(0), *parent);
    // The parent node "fails": all of its tasks die and its memory is
    // gone. The checkpoint lives on the fabric, untouched.
    world.node(0).exitTask(parent);
    parent.reset();

    auto child = fork.restore(handle, world.node(1));
    for (uint64_t i = 0; i < 32; ++i) {
        EXPECT_EQ(world.node(1).read(*child, heapStart.plus(i * kPageSize)),
                  i + 1);
    }
}

TEST_F(FailureTest, CriuSurvivesParentNodeFailureViaSharedFs)
{
    CriuCxl criu(*world.fabric);
    auto handle = criu.checkpoint(world.node(0), *parent);
    world.node(0).exitTask(parent);
    parent.reset();
    auto child = criu.restore(handle, world.node(1));
    EXPECT_EQ(world.node(1).read(*child, heapStart), 1u);
}

TEST_F(FailureTest, CxlDeviceExhaustionFailsCheckpointCleanly)
{
    mem::MachineConfig cfg = test::smallConfig();
    cfg.cxlCapacityBytes = mem::mib(1); // 256 frames
    World tiny(cfg);
    auto task = tiny.node(0).createTask("big");
    os::Vma &heap = tiny.node(0).mapAnon(
        *task, 512 * kPageSize, os::kVmaRead | os::kVmaWrite, "h");
    tiny.node(0).touchRange(*task, heap.start, heap.end, true);

    CxlFork fork(*tiny.fabric);
    EXPECT_THROW(fork.checkpoint(tiny.node(0), *task), sim::FatalError);
}

TEST_F(FailureTest, LocalDramExhaustionFailsFaultIn)
{
    mem::MachineConfig cfg = test::smallConfig();
    cfg.dramPerNodeBytes = mem::mib(1); // 256 frames
    World tiny(cfg);
    auto task = tiny.node(0).createTask("big");
    os::Vma &heap = tiny.node(0).mapAnon(
        *task, 512 * kPageSize, os::kVmaRead | os::kVmaWrite, "h");
    EXPECT_THROW(tiny.node(0).touchRange(*task, heap.start, heap.end, true),
                 sim::FatalError);
}

TEST_F(FailureTest, LocalDramExhaustionFailsCriuRestoreCleanly)
{
    // The target runs out of DRAM partway through the install of one
    // run of pages: the restore fails typed, leaves no task, and every
    // frame it took (pages and page-table pages) goes back.
    CriuCxl criu(*world.fabric);
    auto handle = criu.checkpoint(world.node(0), *parent);
    os::NodeOs &target = world.node(1);
    mem::FrameAllocator &dram = target.localDram();
    std::vector<mem::PhysAddr> filler;
    while (dram.freeFrames() > 20)
        filler.push_back(dram.alloc(mem::FrameUse::Data));
    const uint64_t used = dram.usedFrames();
    const uint64_t refs = dram.totalRefs();

    const RestoreOutcome out = criu.tryRestore(handle, target);
    EXPECT_FALSE(out);
    EXPECT_EQ(out.error, RestoreError::CapacityExhausted);
    EXPECT_EQ(target.taskCount(), 0u);
    EXPECT_EQ(dram.usedFrames(), used);
    EXPECT_EQ(dram.totalRefs(), refs);
    const mem::FrameAudit audit = dram.auditLive();
    EXPECT_TRUE(audit.consistent) << audit.detail;

    // With the filler gone the same image restores.
    for (mem::PhysAddr f : filler)
        dram.decRef(f);
    auto child = criu.restore(handle, target);
    EXPECT_EQ(target.read(*child, heapStart.plus(31 * kPageSize)), 32u);
}

TEST_F(FailureTest, RestoreOfMissingCriuImageFails)
{
    CriuCxl criu(*world.fabric);
    auto handle = criu.checkpoint(world.node(0), *parent);
    auto h = std::dynamic_pointer_cast<CriuHandle>(handle);
    world.fabric->sharedFs().remove(h->fileName());
    EXPECT_THROW(criu.restore(handle, world.node(1)), sim::FatalError);
}

TEST_F(FailureTest, RestoreWithMissingRootFsFileFails)
{
    // The container-image assumption: paths must resolve on the target
    // node. Break it by removing the file after checkpoint.
    world.vfs->create("/etc/needed.conf", kPageSize);
    os::File f;
    f.inode = world.vfs->lookup("/etc/needed.conf");
    parent->fds().installFile(f);

    CxlFork fork(*world.fabric);
    auto handle = fork.checkpoint(world.node(0), *parent);
    world.vfs->remove("/etc/needed.conf");
    EXPECT_THROW(fork.restore(handle, world.node(1)), sim::FatalError);
}

TEST_F(FailureTest, CxlForkSurvivesParentNodeDeathMidRestore)
{
    // The decoupling claim at its sharpest: the parent node dies while
    // a child is mid-restore (half its pages still unread), and the
    // child finishes from the fabric alone.
    CxlFork fork(*world.fabric);
    auto handle = fork.checkpoint(world.node(0), *parent);
    auto child = fork.restore(handle, world.node(1));
    for (uint64_t i = 0; i < 16; ++i) {
        EXPECT_EQ(world.node(1).read(*child, heapStart.plus(i * kPageSize)),
                  i + 1);
    }

    // Parent node fails now, mid-consumption.
    world.node(0).exitTask(parent);
    parent.reset();

    for (uint64_t i = 16; i < 32; ++i) {
        EXPECT_EQ(world.node(1).read(*child, heapStart.plus(i * kPageSize)),
                  i + 1);
    }
}

TEST_F(FailureTest, MitosisFailedLazyFaultLeavesTaskRetryable)
{
    // Exception safety of the lazy-fault throw path: a fault against a
    // dead parent installs no partial PTEs, so when the parent comes
    // back the very same access succeeds.
    MitosisCxl mitosis(*world.fabric);
    auto handle = mitosis.checkpoint(world.node(0), *parent);
    auto h = std::dynamic_pointer_cast<MitosisHandle>(handle);
    auto child = mitosis.restore(handle, world.node(1));

    h->markParentFailed();
    EXPECT_THROW(world.node(1).read(*child, heapStart),
                 sim::NodeFailedError);
    EXPECT_THROW(world.node(1).read(*child, heapStart),
                 sim::NodeFailedError)
        << "repeated faults must keep failing cleanly, not corrupt state";

    h->markParentRecovered();
    EXPECT_EQ(world.node(1).read(*child, heapStart), 1u);
    // And the rest of the address space is still intact.
    for (uint64_t i = 1; i < 32; ++i) {
        EXPECT_EQ(world.node(1).read(*child, heapStart.plus(i * kPageSize)),
                  i + 1);
    }
}

TEST_F(FailureTest, FailedRestoreLeavesNoHalfBuiltTask)
{
    MitosisCxl mitosis(*world.fabric);
    auto handle = mitosis.checkpoint(world.node(0), *parent);
    std::dynamic_pointer_cast<MitosisHandle>(handle)->markParentFailed();
    const auto outcome = mitosis.tryRestore(handle, world.node(1));
    EXPECT_FALSE(outcome);
    EXPECT_EQ(outcome.error, RestoreError::ParentNodeFailed);
    EXPECT_EQ(world.node(1).taskCount(), 0u);
}

TEST_F(FailureTest, WrongHandleTypeRejected)
{
    CxlFork fork(*world.fabric);
    MitosisCxl mitosis(*world.fabric);
    auto cxlHandle = fork.checkpoint(world.node(0), *parent);
    EXPECT_THROW(mitosis.restore(cxlHandle, world.node(1)),
                 sim::FatalError);
    auto mitoHandle = mitosis.checkpoint(world.node(0), *parent);
    EXPECT_THROW(fork.restore(mitoHandle, world.node(1)), sim::FatalError);
}

} // namespace
} // namespace cxlfork::rfork
