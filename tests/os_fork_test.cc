#include <gtest/gtest.h>

#include "test_util.hh"

namespace cxlfork::os {
namespace {

using mem::kPageSize;
using test::World;

class ForkTest : public ::testing::Test
{
  protected:
    ForkTest() : world(test::smallConfig()), node(world.node(0)) {}

    std::shared_ptr<Task>
    makeParent(uint64_t pages)
    {
        auto task = node.createTask("parent");
        Vma &vma =
            node.mapAnon(*task, pages * kPageSize, kVmaRead | kVmaWrite, "d");
        heapStart = vma.start;
        for (uint64_t i = 0; i < pages; ++i)
            node.write(*task, heapStart.plus(i * kPageSize), 1000 + i);
        return task;
    }

    World world;
    NodeOs &node;
    mem::VirtAddr heapStart;
};

TEST_F(ForkTest, ChildSeesParentMemory)
{
    auto parent = makeParent(16);
    auto child = node.localFork(*parent, "child");
    for (uint64_t i = 0; i < 16; ++i) {
        EXPECT_EQ(node.read(*child, heapStart.plus(i * kPageSize)),
                  1000 + i);
    }
}

TEST_F(ForkTest, ForkSharesFramesUntilWrite)
{
    auto parent = makeParent(16);
    const uint64_t framesAfterParent = node.localDram().usedFrames();
    auto child = node.localFork(*parent, "child");
    // Only table pages were added, not data pages.
    const uint64_t framesAfterFork = node.localDram().usedFrames();
    EXPECT_LT(framesAfterFork - framesAfterParent, 16u);
}

TEST_F(ForkTest, ChildWriteDoesNotAffectParent)
{
    auto parent = makeParent(4);
    auto child = node.localFork(*parent, "child");
    node.write(*child, heapStart, 0xc0de);
    EXPECT_EQ(node.read(*child, heapStart), 0xc0deu);
    EXPECT_EQ(node.read(*parent, heapStart), 1000u);
}

TEST_F(ForkTest, ParentWriteDoesNotAffectChild)
{
    auto parent = makeParent(4);
    auto child = node.localFork(*parent, "child");
    node.write(*parent, heapStart, 0xaaaa);
    EXPECT_EQ(node.read(*parent, heapStart), 0xaaaau);
    EXPECT_EQ(node.read(*child, heapStart), 1000u);
}

TEST_F(ForkTest, CowFaultCountsAndCosts)
{
    auto parent = makeParent(8);
    auto child = node.localFork(*parent, "child");
    const sim::MetricsRegistry &m = world.machine->metrics();
    const uint64_t cowBefore = m.counterValue("os.fault.cow_local");
    for (uint64_t i = 0; i < 8; ++i)
        node.write(*child, heapStart.plus(i * kPageSize), i);
    EXPECT_EQ(m.counterValue("os.fault.cow_local"), cowBefore + 8);
}

TEST_F(ForkTest, FdsAreDuplicated)
{
    world.vfs->create("/etc/config", kPageSize);
    auto parent = makeParent(1);
    File f;
    f.inode = world.vfs->lookup("/etc/config");
    parent->fds().installFile(f);
    parent->fds().installSocket(Socket{"db:5432"});
    auto child = node.localFork(*parent, "child");
    EXPECT_EQ(child->fds().fileCount(), parent->fds().fileCount());
    EXPECT_EQ(child->fds().socketCount(), 1u);
}

TEST_F(ForkTest, CpuContextCopied)
{
    auto parent = makeParent(1);
    parent->cpu().rip = 0x401000;
    parent->cpu().gpr[0] = 7;
    auto child = node.localFork(*parent, "child");
    EXPECT_EQ(child->cpu(), parent->cpu());
}

TEST_F(ForkTest, ChildExitReleasesOnlyItsMemory)
{
    auto parent = makeParent(16);
    auto child = node.localFork(*parent, "child");
    node.write(*child, heapStart, 1); // one private copy
    node.exitTask(child);
    child.reset();
    // Parent still reads its data.
    for (uint64_t i = 0; i < 16; ++i) {
        EXPECT_EQ(node.read(*parent, heapStart.plus(i * kPageSize)),
                  1000 + i);
    }
}

TEST_F(ForkTest, ForkAfterChildWritesIsIndependent)
{
    auto parent = makeParent(4);
    auto c1 = node.localFork(*parent, "c1");
    node.write(*c1, heapStart, 0x11);
    auto c2 = node.localFork(*parent, "c2");
    EXPECT_EQ(node.read(*c2, heapStart), 1000u);
    EXPECT_EQ(node.read(*c1, heapStart), 0x11u);
}

} // namespace
} // namespace cxlfork::os
