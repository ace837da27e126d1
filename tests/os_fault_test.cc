#include <gtest/gtest.h>

#include "test_util.hh"

namespace cxlfork::os {
namespace {

using mem::kPageSize;
using mem::VirtAddr;
using test::World;

class FaultTest : public ::testing::Test
{
  protected:
    FaultTest() : world(test::smallConfig()), node(world.node(0)) {}

    World world;
    NodeOs &node;
};

TEST_F(FaultTest, MinorFaultPopulatesAnon)
{
    auto task = node.createTask("t");
    Vma &vma = node.mapAnon(*task, 4 * kPageSize, kVmaRead | kVmaWrite, "h");
    const auto r = node.access(*task, vma.start, true, 0xfeed);
    EXPECT_EQ(r.fault, FaultKind::Minor);
    EXPECT_EQ(r.tier, mem::Tier::LocalDram);
    EXPECT_EQ(node.read(*task, vma.start), 0xfeedu);
    EXPECT_EQ(world.machine->metrics().counterValue("os.fault.minor"), 1u);
}

TEST_F(FaultTest, SecondAccessHits)
{
    auto task = node.createTask("t");
    Vma &vma = node.mapAnon(*task, kPageSize, kVmaRead | kVmaWrite, "h");
    node.access(*task, vma.start, true, 1);
    const auto r = node.access(*task, vma.start, false);
    EXPECT_EQ(r.fault, FaultKind::None);
}

TEST_F(FaultTest, AccessSetsAccessedAndDirtyBits)
{
    auto task = node.createTask("t");
    Vma &vma = node.mapAnon(*task, kPageSize, kVmaRead | kVmaWrite, "h");
    node.access(*task, vma.start, false);
    Pte p = task->mm().pageTable().lookup(vma.start);
    EXPECT_TRUE(p.accessed());
    EXPECT_FALSE(p.dirty());
    node.access(*task, vma.start, true, 2);
    p = task->mm().pageTable().lookup(vma.start);
    EXPECT_TRUE(p.dirty());
}

TEST_F(FaultTest, MajorFaultReadsFileContent)
{
    auto inode = world.vfs->create("/lib/x.so", 2 * kPageSize, 42);
    auto task = node.createTask("t");
    Vma &vma = node.mapFilePrivate(*task, "/lib/x.so", kVmaRead | kVmaExec);
    const auto r = node.access(*task, vma.start.plus(kPageSize), false);
    EXPECT_EQ(r.fault, FaultKind::Major);
    EXPECT_EQ(node.read(*task, vma.start.plus(kPageSize)),
              inode->pageContent(1));
    EXPECT_EQ(world.machine->metrics().counterValue("os.fault.major"), 1u);
}

TEST_F(FaultTest, WriteToReadOnlyVmaIsFatal)
{
    world.vfs->create("/lib/ro.so", kPageSize);
    auto task = node.createTask("t");
    Vma &vma = node.mapFilePrivate(*task, "/lib/ro.so", kVmaRead);
    EXPECT_THROW(node.access(*task, vma.start, true, 1), sim::FatalError);
}

TEST_F(FaultTest, WritableFileMappingCowsOnWrite)
{
    auto inode = world.vfs->create("/lib/data.bin", kPageSize, 7);
    auto task = node.createTask("t");
    Vma &vma =
        node.mapFilePrivate(*task, "/lib/data.bin", kVmaRead | kVmaWrite);
    EXPECT_EQ(node.read(*task, vma.start), inode->pageContent(0));
    node.write(*task, vma.start, 0xd00d);
    EXPECT_EQ(node.read(*task, vma.start), 0xd00du);
    EXPECT_GE(world.machine->metrics().counterValue("os.fault.cow_local"),
              1u);
}

TEST_F(FaultTest, SegfaultOutsideAnyVma)
{
    auto task = node.createTask("t");
    EXPECT_THROW(node.access(*task, VirtAddr{0xdead0000}, false),
                 sim::FatalError);
}

TEST_F(FaultTest, FaultsChargeSimulatedTime)
{
    auto task = node.createTask("t");
    Vma &vma = node.mapAnon(*task, 64 * kPageSize, kVmaRead | kVmaWrite, "h");
    const auto before = node.clock().now();
    node.touchRange(*task, vma.start, vma.end, true);
    const auto elapsed = node.clock().now() - before;
    // 64 minor faults at 800 ns plus PTE bookkeeping.
    EXPECT_GT(elapsed, sim::SimTime::us(64 * 0.8));
    EXPECT_LT(elapsed, sim::SimTime::ms(1));
}

TEST_F(FaultTest, TouchRangeCountsByKind)
{
    auto task = node.createTask("t");
    Vma &vma = node.mapAnon(*task, 8 * kPageSize, kVmaRead | kVmaWrite, "h");
    auto counts = node.touchRange(*task, vma.start, vma.end, true);
    EXPECT_EQ(counts[FaultKind::Minor], 8u);
    counts = node.touchRange(*task, vma.start, vma.end, false);
    EXPECT_EQ(counts[FaultKind::None], 8u);
}

TEST_F(FaultTest, ExitTaskReleasesMemory)
{
    const uint64_t before = node.localDram().usedFrames();
    auto task = node.createTask("t");
    Vma &vma = node.mapAnon(*task, 32 * kPageSize, kVmaRead | kVmaWrite, "h");
    node.touchRange(*task, vma.start, vma.end, true);
    EXPECT_GT(node.localDram().usedFrames(), before);
    node.exitTask(task);
    task.reset();
    EXPECT_EQ(node.localDram().usedFrames(), before);
}

} // namespace
} // namespace cxlfork::os
