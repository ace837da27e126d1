/**
 * @file
 * munmap / mprotect semantics, including the checkpointed-leaf cases
 * (Sec. 4.2.1: permission updates on attached state lazily copy the
 * corresponding leaf), shared-anonymous mappings, and the incremental
 * re-checkpoint deduplication extension.
 */

#include <gtest/gtest.h>

#include "rfork/cxlfork.hh"
#include "test_util.hh"

namespace cxlfork::os {
namespace {

using mem::kPageSize;
using mem::VirtAddr;
using test::World;

class SyscallTest : public ::testing::Test
{
  protected:
    SyscallTest() : world(test::smallConfig()), node(world.node(0)) {}

    World world;
    NodeOs &node;
};

TEST_F(SyscallTest, MunmapReleasesRangeAndMemory)
{
    auto task = node.createTask("t");
    Vma &vma = node.mapAnon(*task, 16 * kPageSize, kVmaRead | kVmaWrite,
                            "h");
    const VirtAddr start = vma.start;
    const VirtAddr end = vma.end;
    node.touchRange(*task, start, end, true);
    const uint64_t used = node.localDram().usedFrames();

    node.munmap(*task, start, end);
    EXPECT_LT(node.localDram().usedFrames(), used);
    EXPECT_EQ(task->mm().vmas().localCount(), 0u);
    // Accessing the hole is a segfault.
    EXPECT_THROW(node.access(*task, start, false), sim::FatalError);
    EXPECT_EQ(world.machine->metrics().counterValue("os.syscall.munmap"), 1u);
}

TEST_F(SyscallTest, MunmapThenRemapReusesRange)
{
    auto task = node.createTask("t");
    Vma first;
    first.start = VirtAddr{0x7000'0000};
    first.end = VirtAddr{0x7000'0000 + 4 * kPageSize};
    first.name = "one";
    node.mapVma(*task, first);
    node.write(*task, first.start, 1);
    node.munmap(*task, first.start, first.end);

    Vma second = first;
    second.name = "two";
    node.mapVma(*task, second);
    // Fresh mapping: zero-fill semantics, not the old content.
    EXPECT_EQ(node.read(*task, second.start), 0u);
}

TEST_F(SyscallTest, MprotectRemovesWriteAccess)
{
    auto task = node.createTask("t");
    Vma &vma = node.mapAnon(*task, 4 * kPageSize, kVmaRead | kVmaWrite,
                            "h");
    node.touchRange(*task, vma.start, vma.end, true);
    node.mprotect(*task, vma.start, vma.end, kVmaRead);
    EXPECT_THROW(node.write(*task, vma.start, 5), sim::FatalError);
    // Reads still fine.
    EXPECT_NO_THROW(node.read(*task, vma.start));
    EXPECT_FALSE(task->mm().pageTable().lookup(vma.start).writable());
}

TEST_F(SyscallTest, MprotectRestoresWriteAccessOnPrivatePages)
{
    auto task = node.createTask("t");
    Vma &vma = node.mapAnon(*task, 2 * kPageSize, kVmaRead | kVmaWrite,
                            "h");
    node.write(*task, vma.start, 7);
    node.mprotect(*task, vma.start, vma.end, kVmaRead);
    node.mprotect(*task, vma.start, vma.end, kVmaRead | kVmaWrite);
    EXPECT_TRUE(task->mm().pageTable().lookup(vma.start).writable());
    node.write(*task, vma.start, 9);
    EXPECT_EQ(node.read(*task, vma.start), 9u);
}

TEST_F(SyscallTest, MprotectNeverGrantsDirectWriteToCowPages)
{
    auto parent = node.createTask("p");
    Vma &vma = node.mapAnon(*parent, 2 * kPageSize, kVmaRead | kVmaWrite,
                            "h");
    node.write(*parent, vma.start, 42);
    auto child = node.localFork(*parent, "c");

    node.mprotect(*child, vma.start, vma.end, kVmaRead | kVmaWrite);
    // Still read-only in the PTE: writability must flow via CoW fault.
    EXPECT_FALSE(child->mm().pageTable().lookup(vma.start).writable());
    node.write(*child, vma.start, 43);
    EXPECT_EQ(node.read(*child, vma.start), 43u);
    EXPECT_EQ(node.read(*parent, vma.start), 42u);
}

TEST_F(SyscallTest, MprotectWithoutCoveredVmaIsFatal)
{
    auto task = node.createTask("t");
    EXPECT_THROW(node.mprotect(*task, VirtAddr{0x1000}, VirtAddr{0x2000},
                               kVmaRead),
                 sim::FatalError);
}

TEST_F(SyscallTest, SharedAnonMappingsWorkLocally)
{
    auto task = node.createTask("t");
    Vma vma;
    vma.start = VirtAddr{0x6000'0000};
    vma.end = VirtAddr{0x6000'0000 + 2 * kPageSize};
    vma.kind = VmaKind::SharedAnon;
    vma.name = "shm";
    node.mapVma(*task, vma);
    node.write(*task, vma.start, 0x5a);
    EXPECT_EQ(node.read(*task, vma.start), 0x5au);
}

class CheckpointedSyscallTest : public ::testing::Test
{
  protected:
    CheckpointedSyscallTest()
        : world(test::smallConfig()), node0(world.node(0)),
          node1(world.node(1)), fork(*world.fabric)
    {
        parent = node0.createTask("fn");
        Vma &heap = node0.mapAnon(*parent, 32 * kPageSize,
                                  kVmaRead | kVmaWrite, "[heap]");
        heapStart = heap.start;
        heapEnd = heap.end;
        for (uint64_t i = 0; i < 32; ++i)
            node0.write(*parent, heapStart.plus(i * kPageSize), 100 + i);
        handle = fork.checkpoint(node0, *parent);
    }

    World world;
    NodeOs &node0;
    NodeOs &node1;
    rfork::CxlFork fork;
    std::shared_ptr<Task> parent;
    std::shared_ptr<rfork::CheckpointHandle> handle;
    VirtAddr heapStart, heapEnd;
};

TEST_F(CheckpointedSyscallTest, MprotectOnAttachedStateIsPrivate)
{
    rfork::RestoreOptions opts;
    opts.prefetchDirty = false;
    auto child = fork.restore(handle, node1, opts);
    // The clone CoWs one page (this clones the covering sealed leaf)...
    node1.write(*child, heapStart, 0xaa);
    const uint64_t cowAfterWrite = child->mm().pageTable().leafCowCount();
    EXPECT_GT(cowAfterWrite, 0u);
    // ...then write-protects the whole range: the private copy's PTE
    // loses its write bit; the checkpointed entries were already
    // read-only and stay untouched.
    node1.mprotect(*child, heapStart, heapEnd, kVmaRead);
    EXPECT_FALSE(child->mm().pageTable().lookup(heapStart).writable());
    EXPECT_THROW(node1.write(*child, heapStart, 1), sim::FatalError);

    // The checkpoint stays pristine: fresh siblings see RW semantics.
    auto sibling = fork.restore(handle, node0, opts);
    node0.write(*sibling, heapStart, 1);
    EXPECT_EQ(node0.read(*sibling, heapStart), 1u);
    EXPECT_EQ(rfork::CxlFork::image(handle)
                  ->checkpointPte(heapStart)
                  .writable(),
              false);
}

TEST_F(CheckpointedSyscallTest, MunmapOnAttachedStateKeepsImageIntact)
{
    rfork::RestoreOptions opts;
    opts.prefetchDirty = false;
    auto child = fork.restore(handle, node1, opts);
    node1.munmap(*child, heapStart, heapEnd);
    EXPECT_THROW(node1.access(*child, heapStart, false), sim::FatalError);

    auto sibling = fork.restore(handle, node0, opts);
    for (uint64_t i = 0; i < 32; ++i) {
        EXPECT_EQ(node0.read(*sibling, heapStart.plus(i * kPageSize)),
                  100 + i);
    }
}

TEST_F(CheckpointedSyscallTest, SharedAnonRejectsCheckpoint)
{
    Vma vma;
    vma.start = VirtAddr{0x6100'0000};
    vma.end = VirtAddr{0x6100'0000 + kPageSize};
    vma.kind = VmaKind::SharedAnon;
    vma.name = "shm";
    node0.mapVma(*parent, vma);
    node0.write(*parent, vma.start, 1);
    EXPECT_THROW(fork.checkpoint(node0, *parent), sim::FatalError);
}

TEST_F(CheckpointedSyscallTest, RecheckpointDedupsUnmodifiedPages)
{
    rfork::RestoreOptions opts;
    opts.prefetchDirty = false;
    auto child = fork.restore(handle, node1, opts);
    // The clone modifies 4 of 32 pages.
    for (uint64_t i = 0; i < 4; ++i)
        node1.write(*child, heapStart.plus(i * kPageSize), 900 + i);

    const uint64_t framesBefore = world.machine->cxl().usedFrames();
    rfork::CheckpointStats cs;
    auto handle2 = fork.checkpoint(node1, *child, &cs);
    const uint64_t framesAfter = world.machine->cxl().usedFrames();

    // Only the modified pages (plus metadata) consumed new device
    // frames; the 28 untouched ones are shared with the first image.
    EXPECT_LT(framesAfter - framesBefore, 4 + 8);
    EXPECT_EQ(cs.pages, 32u);

    // Drop the original image first: shared frames must survive.
    handle = nullptr;
    auto gen2 = fork.restore(handle2, node0, opts);
    for (uint64_t i = 0; i < 32; ++i) {
        const uint64_t want = i < 4 ? 900 + i : 100 + i;
        EXPECT_EQ(node0.read(*gen2, heapStart.plus(i * kPageSize)), want);
    }
}

TEST_F(CheckpointedSyscallTest, DedupDisabledCopiesEverything)
{
    rfork::CxlForkConfig cfg;
    cfg.dedupUnmodified = false;
    rfork::CxlFork copyingFork(*world.fabric, cfg);
    rfork::RestoreOptions opts;
    opts.prefetchDirty = false;
    auto child = fork.restore(handle, node1, opts);
    node1.touchRange(*child, heapStart, heapEnd, false);

    const uint64_t framesBefore = world.machine->cxl().usedFrames();
    auto handle2 = copyingFork.checkpoint(node1, *child);
    EXPECT_GE(world.machine->cxl().usedFrames() - framesBefore, 32u);
}

} // namespace
} // namespace cxlfork::os
