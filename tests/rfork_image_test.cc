/**
 * @file
 * CheckpointImage internals: construction invariants, activation,
 * dirty-set iteration, rebased-form storage, capture/redo helpers, and
 * memory-leak checks under checkpoint/restore churn.
 */

#include <gtest/gtest.h>

#include "cxl/rebase.hh"
#include "faas/container.hh"
#include "faas/workloads.hh"
#include "porter/cluster.hh"
#include "rfork/checkpoint_image.hh"
#include "rfork/cxlfork.hh"
#include "rfork/state_capture.hh"
#include "sim/error.hh"
#include "test_util.hh"

namespace cxlfork::rfork {
namespace {

using mem::kPageSize;
using mem::VirtAddr;
using os::Pte;
using os::TablePage;
using test::World;

class ImageTest : public ::testing::Test
{
  protected:
    ImageTest() : world(test::smallConfig()) {}

    /** A sealed, rebased leaf with `n` checkpointed pages. */
    std::shared_ptr<TablePage>
    makeImageLeaf(uint32_t n, bool dirtyOdd = false)
    {
        auto &cxl = world.machine->cxl();
        auto leaf = std::make_shared<TablePage>(
            0, cxl.alloc(mem::FrameUse::PageTable), false);
        for (uint32_t i = 0; i < n; ++i) {
            Pte p = Pte::make(cxl.alloc(mem::FrameUse::Data, 40 + i),
                              false);
            p.set(Pte::kSoftCxl);
            if (dirtyOdd && i % 2)
                p.set(Pte::kDirty);
            leaf->pte(i) = p;
        }
        cxl::LeafRebaser(*world.machine).rebase(*leaf);
        leaf->seal();
        return leaf;
    }

    World world;
};

TEST_F(ImageTest, AddLeafRequiresRebasedSealedForm)
{
    CheckpointImage img(*world.machine, "t");
    auto bad = std::make_shared<TablePage>(
        0, world.machine->cxl().alloc(mem::FrameUse::PageTable), false);
    Pte p = Pte::make(world.machine->cxl().alloc(mem::FrameUse::Data),
                      false);
    bad->pte(0) = p; // absolute form, unsealed
    EXPECT_DEATH(img.addLeaf(0, bad), "leafIsRebased|sealed");
}

TEST_F(ImageTest, ActivateDerebasesExactlyOnce)
{
    CheckpointImage img(*world.machine, "t");
    img.addLeaf(0, makeImageLeaf(4));
    EXPECT_FALSE(img.activated());
    img.activate();
    EXPECT_TRUE(img.activated());
    // PTEs now hold absolute CXL addresses.
    const Pte pte = img.checkpointPte(VirtAddr::fromPageNumber(0));
    ASSERT_TRUE(pte.present());
    EXPECT_TRUE(world.machine->cxl().contains(pte.frame()));
    EXPECT_FALSE(pte.rebased());
    EXPECT_DEATH(img.activate(), "activated");
}

TEST_F(ImageTest, CheckpointPteMissesOutsideLeaves)
{
    CheckpointImage img(*world.machine, "t");
    img.addLeaf(512 * 3, makeImageLeaf(2));
    img.activate();
    EXPECT_TRUE(img.checkpointPte(VirtAddr::fromPageNumber(512 * 3))
                    .present());
    EXPECT_FALSE(img.checkpointPte(VirtAddr::fromPageNumber(512 * 3 + 2))
                     .present());
    EXPECT_FALSE(img.checkpointPte(VirtAddr::fromPageNumber(77)).present());
}

TEST_F(ImageTest, ForEachDirtyVisitsExactlyDirtyPages)
{
    CheckpointImage img(*world.machine, "t");
    img.addLeaf(0, makeImageLeaf(8, /*dirtyOdd=*/true));
    img.activate();
    img.sealIntegrity(); // the set is built at seal
    std::vector<uint64_t> vpns;
    img.forEachDirty([&](VirtAddr va, const Pte &p) {
        EXPECT_TRUE(p.dirty());
        vpns.push_back(va.pageNumber());
    });
    EXPECT_EQ(vpns, (std::vector<uint64_t>{1, 3, 5, 7}));
}

TEST_F(ImageTest, DuplicateLeafIsABug)
{
    CheckpointImage img(*world.machine, "t");
    img.addLeaf(0, makeImageLeaf(1));
    EXPECT_DEATH(img.addLeaf(0, makeImageLeaf(1)), "duplicate leaf");
}

TEST_F(ImageTest, CaptureGlobalStateRoundTripsThroughRedo)
{
    os::NodeOs &node0 = world.node(0);
    world.vfs->create("/cfg/a.json", kPageSize);
    auto parent = node0.createTask("p");
    os::File f;
    f.inode = world.vfs->lookup("/cfg/a.json");
    f.flags = os::kFileRead;
    f.offset = 128;
    parent->fds().installFile(f);
    parent->fds().installSocket(os::Socket{"db:5432"});
    parent->namespaces().mount->mounts = {"/", "/tmp"};

    const proto::GlobalStateMsg msg = captureGlobalState(*parent);
    EXPECT_EQ(msg.taskName, "p");
    ASSERT_EQ(msg.files.size(), 1u);
    EXPECT_EQ(msg.files[0].path, "/cfg/a.json");
    EXPECT_EQ(msg.files[0].offset, 128u);
    EXPECT_EQ(msg.mounts.size(), 2u);

    auto clone = world.node(1).createTask("c");
    redoGlobalState(world.node(1), *clone, msg);
    EXPECT_EQ(clone->fds().fileCount(), 1u);
    EXPECT_EQ(clone->fds().socketCount(), 1u);
    EXPECT_EQ(clone->fds().files().begin()->second.offset, 128u);
    EXPECT_EQ(clone->namespaces().mount->mounts, msg.mounts);
}

TEST_F(ImageTest, VmaMsgConversionRoundTrips)
{
    os::Vma v;
    v.start = VirtAddr{0x1000};
    v.end = VirtAddr{0x9000};
    v.perms = os::kVmaRead | os::kVmaExec;
    v.kind = os::VmaKind::FilePrivate;
    v.filePath = "/lib/z.so";
    v.fileOffset = 4096;
    v.name = "z.so";
    v.segClass = os::SegClass::Init;
    const os::Vma back = fromMsg(toMsg(v));
    EXPECT_EQ(back.start, v.start);
    EXPECT_EQ(back.end, v.end);
    EXPECT_EQ(back.perms, v.perms);
    EXPECT_EQ(back.kind, v.kind);
    EXPECT_EQ(back.filePath, v.filePath);
    EXPECT_EQ(back.fileOffset, v.fileOffset);
    EXPECT_EQ(back.segClass, v.segClass);
}

TEST_F(ImageTest, ChurnLeavesNoFrameBehind)
{
    os::NodeOs &node0 = world.node(0);
    os::NodeOs &node1 = world.node(1);
    CxlFork fork(*world.fabric);

    const uint64_t dram0 = node0.localDram().usedFrames();
    const uint64_t dram1 = node1.localDram().usedFrames();
    const uint64_t cxl0 = world.machine->cxl().usedFrames();

    for (int round = 0; round < 5; ++round) {
        auto parent = node0.createTask("p");
        os::Vma &heap = node0.mapAnon(*parent, 24 * kPageSize,
                                      os::kVmaRead | os::kVmaWrite, "h");
        node0.touchRange(*parent, heap.start, heap.end, true);
        auto handle = fork.checkpoint(node0, *parent);
        auto child = fork.restore(handle, node1);
        // Exercise CoW + plain reads.
        node1.touchRange(*child, heap.start, heap.end, false);
        for (uint64_t i = 0; i < 24; i += 3)
            node1.write(*child, heap.start.plus(i * kPageSize), i);
        node1.exitTask(child);
        node0.exitTask(parent);
        // handle drops at scope end -> image frames released
    }
    EXPECT_EQ(node0.localDram().usedFrames(), dram0);
    EXPECT_EQ(node1.localDram().usedFrames(), dram1);
    EXPECT_EQ(world.machine->cxl().usedFrames(), cxl0);
}

TEST_F(ImageTest, ForkChurnWithCowLeavesNoFrameBehind)
{
    os::NodeOs &node = world.node(0);
    const uint64_t before = node.localDram().usedFrames();
    for (int round = 0; round < 5; ++round) {
        auto parent = node.createTask("p");
        os::Vma &heap = node.mapAnon(*parent, 16 * kPageSize,
                                     os::kVmaRead | os::kVmaWrite, "h");
        node.touchRange(*parent, heap.start, heap.end, true);
        auto c1 = node.localFork(*parent, "c1");
        auto c2 = node.localFork(*c1, "c2");
        for (uint64_t i = 0; i < 16; ++i) {
            node.write(*c1, heap.start.plus(i * kPageSize), i);
            node.write(*parent, heap.start.plus(i * kPageSize), i + 1);
        }
        node.exitTask(c2);
        node.exitTask(c1);
        node.exitTask(parent);
    }
    EXPECT_EQ(node.localDram().usedFrames(), before);
}

/**
 * The four sealed CRCs of a Json checkpoint, recorded before the CRC
 * kernels and the computeCrcs block gathering changed: any change to
 * the byte stream an image seals (or to a kernel's result) moves them.
 */
TEST(ImageCrc, FingerprintPinned)
{
    porter::ClusterConfig cfg;
    cfg.machine.numNodes = 2;
    cfg.machine.dramPerNodeBytes = mem::gib(1);
    cfg.machine.cxlCapacityBytes = mem::gib(1);
    porter::Cluster cluster(cfg);
    auto parent = faas::FunctionInstance::deployCold(
        cluster.node(0), *faas::findWorkload("Json"));
    for (int i = 0; i < 3; ++i)
        parent->invoke();
    CxlFork fork(cluster.fabric());
    auto image = CxlFork::image(fork.checkpoint(cluster.node(0),
                                                parent->task()));
    const ImageCrcs &crcs = image->crcs();
    ASSERT_TRUE(crcs.sealed);
    EXPECT_EQ(crcs.pages, 0xdbdc7852u);
    EXPECT_EQ(crcs.leaves, 0xfd9ec5e6u);
    EXPECT_EQ(crcs.vmas, 0x628815e2u);
    EXPECT_EQ(crcs.global, 0xbbcc3921u);
    EXPECT_EQ(image->verifyIntegrity(), std::nullopt);
}

/**
 * The prefetch set sealIntegrity() collects, against the scan it
 * replaced: every slot of every leaf. On each Table-1 function's
 * CXLfork image, after three warm invocations, as the benches take it.
 */
class DirtySetOracle : public ::testing::TestWithParam<faas::WorkloadEntry>
{
  protected:
    DirtySetOracle()
    {
        porter::ClusterConfig cfg;
        cfg.machine.numNodes = 2;
        cfg.machine.dramPerNodeBytes = mem::gib(2);
        cfg.machine.cxlCapacityBytes = mem::gib(2);
        cluster = std::make_unique<porter::Cluster>(cfg);
        parent = faas::FunctionInstance::deployCold(cluster->node(0),
                                                    GetParam().spec);
        for (int i = 0; i < 3; ++i)
            parent->invoke();
        fork = std::make_unique<CxlFork>(cluster->fabric());
        handle = fork->checkpoint(cluster->node(0), parent->task());
        image = CxlFork::image(handle);
    }

    std::unique_ptr<porter::Cluster> cluster;
    std::unique_ptr<faas::FunctionInstance> parent;
    std::unique_ptr<CxlFork> fork;
    std::shared_ptr<CheckpointHandle> handle;
    std::shared_ptr<CheckpointImage> image;
};

TEST_P(DirtySetOracle, SealTimeSetIsTheLeafScan)
{
    std::vector<std::pair<uint64_t, uint64_t>> scan;
    for (const auto &[base, leaf] : image->leaves()) {
        for (uint32_t i = 0; i < TablePage::kEntries; ++i) {
            const Pte &p = leaf->pte(i);
            if (p.present() && p.dirty())
                scan.emplace_back(base + i, p.raw());
        }
    }
    std::vector<std::pair<uint64_t, uint64_t>> set;
    image->forEachDirty([&](VirtAddr va, const Pte &p) {
        set.emplace_back(va.pageNumber(), p.raw());
    });
    EXPECT_FALSE(scan.empty());
    EXPECT_EQ(set, scan);
}

TEST_P(DirtySetOracle, FlippedDirtyBitFailsTheRestoreFirst)
{
    // Flip Dirty on the first present PTE of the last leaf: set on a
    // clean page, cleared on a dirty one. The seal-time set no longer
    // matches the leaves, and the leaf CRC covers Dirty, so the
    // restore must reject the image before it allocates anything.
    const auto &[base, leaf] = *image->leaves().rbegin();
    Pte *victim = nullptr;
    for (uint32_t i = 0; i < TablePage::kEntries && !victim; ++i) {
        if (leaf->pte(i).present())
            victim = &leaf->pte(i);
    }
    ASSERT_NE(victim, nullptr);
    const Pte sealed = *victim;
    *victim = Pte(sealed.raw() ^ Pte::kDirty);

    os::NodeOs &target = cluster->node(1);
    const uint64_t allocsBefore = target.localDram().allocCount();
    const uint64_t cxlAllocsBefore = cluster->machine().cxl().allocCount();
    try {
        fork->restore(handle, target);
        ADD_FAILURE() << "restore accepted a flipped Dirty bit";
    } catch (const sim::CorruptImageError &e) {
        EXPECT_NE(std::string(e.what()).find("leaves segment"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_EQ(target.taskCount(), 0u);
    EXPECT_EQ(target.localDram().allocCount(), allocsBefore);
    EXPECT_EQ(cluster->machine().cxl().allocCount(), cxlAllocsBefore);

    // Put back, the image restores again.
    *victim = sealed;
    EXPECT_NE(fork->restore(handle, target), nullptr);
}

INSTANTIATE_TEST_SUITE_P(
    Table1, DirtySetOracle, ::testing::ValuesIn(faas::table1Workloads()),
    [](const ::testing::TestParamInfo<faas::WorkloadEntry> &info) {
        return info.param.spec.name;
    });

} // namespace
} // namespace cxlfork::rfork
