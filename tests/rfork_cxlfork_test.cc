#include <gtest/gtest.h>

#include "rfork/cxlfork.hh"
#include "rfork/state_capture.hh"
#include "test_util.hh"

namespace cxlfork::rfork {
namespace {

using mem::kPageSize;
using mem::VirtAddr;
using os::kVmaRead;
using os::kVmaWrite;
using test::World;

/** A parent with a heap, a file mapping, open fds, and CPU state. */
class CxlForkTest : public ::testing::Test
{
  protected:
    static constexpr uint64_t kHeapPages = 64;
    static constexpr uint64_t kFilePages = 8;

    CxlForkTest()
        : world(test::smallConfig()), node0(world.node(0)),
          node1(world.node(1)), fork(*world.fabric)
    {
        world.vfs->create("/lib/libfn.so", kFilePages * kPageSize, 777);
        world.vfs->create("/etc/fn.conf", kPageSize, 88);

        parent = node0.createTask("fn");
        os::Vma &heap = node0.mapAnon(*parent, kHeapPages * kPageSize,
                                      kVmaRead | kVmaWrite, "[heap]");
        heapStart = heap.start;
        os::Vma &lib = node0.mapFilePrivate(*parent, "/lib/libfn.so",
                                            kVmaRead | os::kVmaExec);
        libStart = lib.start;

        for (uint64_t i = 0; i < kHeapPages; ++i)
            node0.write(*parent, heapStart.plus(i * kPageSize), 5000 + i);
        node0.touchRange(*parent, libStart,
                         libStart.plus(kFilePages * kPageSize), false);

        os::File cfg;
        cfg.inode = world.vfs->lookup("/etc/fn.conf");
        parent->fds().installFile(cfg);
        parent->fds().installSocket(os::Socket{"gw:80"});
        parent->cpu().rip = 0x401234;
        parent->cpu().gpr[3] = 99;
    }

    World world;
    os::NodeOs &node0;
    os::NodeOs &node1;
    CxlFork fork;
    std::shared_ptr<os::Task> parent;
    VirtAddr heapStart;
    VirtAddr libStart;
};

TEST_F(CxlForkTest, CheckpointCapturesAllResidentState)
{
    CheckpointStats cs;
    auto handle = fork.checkpoint(node0, *parent, &cs);
    EXPECT_EQ(cs.pages, kHeapPages + kFilePages);
    EXPECT_GT(cs.leaves, 0u);
    EXPECT_EQ(cs.vmas, 2u);
    EXPECT_GT(cs.bytesToCxl, (kHeapPages + kFilePages) * kPageSize);
    EXPECT_GT(cs.latency.toUs(), 0.0);
    EXPECT_GT(handle->cxlBytes(), 0u);
    EXPECT_EQ(handle->localBytes(), 0u);
}

TEST_F(CxlForkTest, RestoredChildReadsParentContent)
{
    auto handle = fork.checkpoint(node0, *parent);
    auto child = fork.restore(handle, node1);
    for (uint64_t i = 0; i < kHeapPages; ++i) {
        EXPECT_EQ(node1.read(*child, heapStart.plus(i * kPageSize)),
                  5000 + i)
            << "heap page " << i;
    }
    auto inode = world.vfs->lookup("/lib/libfn.so");
    for (uint64_t i = 0; i < kFilePages; ++i) {
        EXPECT_EQ(node1.read(*child, libStart.plus(i * kPageSize)),
                  inode->pageContent(i))
            << "lib page " << i;
    }
}

TEST_F(CxlForkTest, RestoreRedoesGlobalState)
{
    auto handle = fork.checkpoint(node0, *parent);
    auto child = fork.restore(handle, node1);
    EXPECT_EQ(child->fds().fileCount(), 1u);
    EXPECT_EQ(child->fds().socketCount(), 1u);
    EXPECT_EQ(child->cpu().rip, 0x401234u);
    EXPECT_EQ(child->cpu().gpr[3], 99u);
}

TEST_F(CxlForkTest, ZeroCopyReadsStayOnCxl)
{
    auto handle = fork.checkpoint(node0, *parent);
    RestoreOptions opts;
    opts.prefetchDirty = false;
    auto child = fork.restore(handle, node1, opts);

    const uint64_t localBefore = node1.localDram().usedFrames();
    for (uint64_t i = 0; i < kHeapPages; ++i) {
        const auto r =
            node1.access(*child, heapStart.plus(i * kPageSize), false);
        EXPECT_EQ(r.fault, os::FaultKind::None) << "attached leaves "
                                                   "eliminate read faults";
        EXPECT_EQ(r.tier, mem::Tier::Cxl);
    }
    EXPECT_EQ(node1.localDram().usedFrames(), localBefore)
        << "reads must not consume local memory";
}

TEST_F(CxlForkTest, WritesCowAndKeepCheckpointPristine)
{
    auto handle = fork.checkpoint(node0, *parent);
    RestoreOptions opts;
    opts.prefetchDirty = false;
    auto c1 = fork.restore(handle, node1, opts);

    const sim::MetricsRegistry &m = world.machine->metrics();
    const uint64_t cowBefore = m.counterValue("os.fault.cow_cxl");
    node1.write(*c1, heapStart, 0xbeef);
    EXPECT_EQ(node1.read(*c1, heapStart), 0xbeefu);
    EXPECT_GE(m.counterValue("os.fault.cow_cxl"), cowBefore + 1);

    // A second clone still sees the original data.
    auto c2 = fork.restore(handle, node0, opts);
    EXPECT_EQ(node0.read(*c2, heapStart), 5000u);
    // And the parent was never involved.
    EXPECT_EQ(node0.read(*parent, heapStart), 5000u);
}

TEST_F(CxlForkTest, CheckpointIsDecoupledFromParent)
{
    auto handle = fork.checkpoint(node0, *parent);
    // Parent exits; its node frees the private memory.
    node0.exitTask(parent);
    parent.reset();
    // The checkpoint remains restorable anywhere.
    auto child = fork.restore(handle, node1);
    EXPECT_EQ(node1.read(*child, heapStart), 5000u);
}

TEST_F(CxlForkTest, SiblingsOnDifferentNodesShareCxlFrames)
{
    auto handle = fork.checkpoint(node0, *parent);
    const uint64_t cxlAfterCkpt = world.machine->cxl().usedFrames();
    RestoreOptions opts;
    opts.prefetchDirty = false;
    auto c0 = fork.restore(handle, node0, opts);
    auto c1 = fork.restore(handle, node1, opts);
    node0.touchRange(*c0, heapStart,
                     heapStart.plus(kHeapPages * kPageSize), false);
    node1.touchRange(*c1, heapStart,
                     heapStart.plus(kHeapPages * kPageSize), false);
    EXPECT_EQ(world.machine->cxl().usedFrames(), cxlAfterCkpt)
        << "cluster-wide dedup: no per-sibling CXL growth";
    EXPECT_GT(c0->mm().cxlMappedBytes(), 0u);
    EXPECT_EQ(c0->mm().cxlMappedBytes(), c1->mm().cxlMappedBytes());
}

TEST_F(CxlForkTest, DirtyPrefetchPullsParentWrittenPages)
{
    auto handle = fork.checkpoint(node0, *parent);
    RestoreStats rs;
    auto child = fork.restore(handle, node1, RestoreOptions{}, &rs);
    // All heap pages were dirty in the parent (it wrote them).
    EXPECT_EQ(rs.pagesCopied, kHeapPages);
    EXPECT_GT(rs.dataCopy.toNs(), 0.0);
    // Prefetched pages are local and writable: no CoW faults on write.
    const sim::MetricsRegistry &m = world.machine->metrics();
    const uint64_t cowBefore = m.counterValue("os.fault.cow_cxl");
    node1.write(*child, heapStart, 1);
    EXPECT_EQ(m.counterValue("os.fault.cow_cxl"), cowBefore);
}

TEST_F(CxlForkTest, RestoreBreakdownIsPopulated)
{
    auto handle = fork.checkpoint(node0, *parent);
    RestoreStats rs;
    fork.restore(handle, node1, RestoreOptions{}, &rs);
    EXPECT_GT(rs.latency.toNs(), 0.0);
    EXPECT_GT(rs.memoryState.toNs(), 0.0);
    EXPECT_GT(rs.globalState.toNs(), 0.0);
    EXPECT_GT(rs.leavesAttached, 0u);
    EXPECT_GE(rs.latency, rs.memoryState + rs.globalState + rs.dataCopy);
}

TEST_F(CxlForkTest, AttachAblationStillCorrectButSlower)
{
    CxlForkConfig cfg;
    cfg.attachLeaves = false;
    CxlFork slowFork(*world.fabric, cfg);
    auto handle = slowFork.checkpoint(node0, *parent);

    RestoreOptions opts;
    opts.prefetchDirty = false;
    RestoreStats slow;
    auto child = slowFork.restore(handle, node1, opts, &slow);
    EXPECT_EQ(node1.read(*child, heapStart), 5000u);

    auto fastHandle = fork.checkpoint(node0, *parent);
    RestoreStats fast;
    fork.restore(fastHandle, node0, opts, &fast);
    EXPECT_GT(slow.memoryState, fast.memoryState)
        << "leaf attach must beat leaf copy";
    EXPECT_EQ(fast.leavesAttached, CxlFork::image(fastHandle)->leafCount());
}

TEST_F(CxlForkTest, ImageInterfaceExposesAccessBits)
{
    auto handle = fork.checkpoint(node0, *parent);
    auto img = CxlFork::image(handle);
    // Parent touched everything, so A bits are set.
    EXPECT_EQ(img->accessedPageCount(), kHeapPages + kFilePages);
    img->resetAccessedBits();
    EXPECT_EQ(img->accessedPageCount(), 0u);

    // A restored sibling re-populates A bits through its page walks.
    RestoreOptions opts;
    opts.prefetchDirty = false;
    auto child = fork.restore(handle, node1, opts);
    node1.read(*child, heapStart);
    EXPECT_EQ(img->accessedPageCount(), 1u)
        << "hardware A-bit updates flow into the shared checkpointed "
           "page tables";
}

TEST_F(CxlForkTest, UserHotMarking)
{
    auto handle = fork.checkpoint(node0, *parent);
    auto img = CxlFork::image(handle);
    img->markUserHot(heapStart);
    EXPECT_TRUE(img->checkpointPte(heapStart).userHot());
    EXPECT_THROW(img->markUserHot(VirtAddr{0x1}), sim::FatalError);
}

TEST_F(CxlForkTest, ImageTeardownFreesDevice)
{
    const uint64_t before = world.machine->cxl().usedFrames();
    {
        auto handle = fork.checkpoint(node0, *parent);
        EXPECT_GT(world.machine->cxl().usedFrames(), before);
    }
    EXPECT_EQ(world.machine->cxl().usedFrames(), before);
}

TEST_F(CxlForkTest, RestoreIntoContainerNamespaces)
{
    auto handle = fork.checkpoint(node0, *parent);
    os::NamespaceSet containerNs;
    containerNs.pid = world.nsRegistry.makePidNs();
    containerNs.mount = world.nsRegistry.makeMountNs();
    containerNs.net = world.nsRegistry.makeNetNs("cbr0");
    containerNs.cgroup.name = "/faas/ghost-1";
    RestoreOptions opts;
    opts.container = &containerNs;
    auto child = fork.restore(handle, node1, opts);
    EXPECT_EQ(child->namespaces().net->bridge, "cbr0");
    EXPECT_EQ(child->namespaces().cgroup.name, "/faas/ghost-1");
}

} // namespace
} // namespace cxlfork::rfork
