#include <gtest/gtest.h>

#include <map>
#include <random>

#include "rfork/criu.hh"
#include "rfork/cxlfork.hh"
#include "rfork/localfork.hh"
#include "rfork/mitosis.hh"
#include "test_util.hh"

namespace cxlfork::rfork {
namespace {

using mem::kPageSize;
using mem::VirtAddr;
using os::kVmaRead;
using os::kVmaWrite;
using test::World;

class BaselineTest : public ::testing::Test
{
  protected:
    static constexpr uint64_t kPages = 128;

    BaselineTest()
        : world(test::smallConfig()), node0(world.node(0)),
          node1(world.node(1))
    {
        parent = node0.createTask("fn");
        os::Vma &heap = node0.mapAnon(*parent, kPages * kPageSize,
                                      kVmaRead | kVmaWrite, "[heap]");
        heapStart = heap.start;
        for (uint64_t i = 0; i < kPages; ++i)
            node0.write(*parent, heapStart.plus(i * kPageSize), 7000 + i);
        parent->fds().installSocket(os::Socket{"gw:80"});
        parent->cpu().rip = 0xabc;
    }

    void
    expectChildCorrect(os::NodeOs &node, os::Task &child)
    {
        for (uint64_t i = 0; i < kPages; ++i) {
            ASSERT_EQ(node.read(child, heapStart.plus(i * kPageSize)),
                      7000 + i)
                << "page " << i;
        }
        EXPECT_EQ(child.cpu().rip, 0xabcu);
        EXPECT_EQ(child.fds().socketCount(), 1u);
    }

    World world;
    os::NodeOs &node0;
    os::NodeOs &node1;
    std::shared_ptr<os::Task> parent;
    VirtAddr heapStart;
};

// --- CRIU-CXL.

TEST_F(BaselineTest, CriuRoundTripIsCorrect)
{
    CriuCxl criu(*world.fabric);
    auto handle = criu.checkpoint(node0, *parent);
    auto child = criu.restore(handle, node1);
    expectChildCorrect(node1, *child);
}

TEST_F(BaselineTest, CriuCopiesEverythingLocal)
{
    CriuCxl criu(*world.fabric);
    auto handle = criu.checkpoint(node0, *parent);
    RestoreStats rs;
    auto child = criu.restore(handle, node1, {}, &rs);
    EXPECT_EQ(rs.pagesCopied, kPages);
    EXPECT_GE(child->mm().localFootprintBytes(), kPages * kPageSize);
    EXPECT_EQ(child->mm().cxlMappedBytes(), 0u);
}

TEST_F(BaselineTest, CriuImageLivesOnSharedFs)
{
    CriuCxl criu(*world.fabric);
    auto handle = criu.checkpoint(node0, *parent);
    auto h = std::dynamic_pointer_cast<CriuHandle>(handle);
    ASSERT_NE(h, nullptr);
    EXPECT_NE(world.fabric->sharedFs().open(h->fileName()), nullptr);
    EXPECT_GT(h->simulatedBytes(), kPages * kPageSize);
}

TEST_F(BaselineTest, CriuSerializationDominatesCheckpointCost)
{
    CriuCxl criu(*world.fabric);
    CxlFork cxlf(*world.fabric);
    CheckpointStats criuStats, cxlfStats;
    criu.checkpoint(node0, *parent, &criuStats);
    cxlf.checkpoint(node0, *parent, &cxlfStats);
    // Paper Sec. 7.1: CXLfork checkpoints ~an order of magnitude
    // faster than CRIU.
    EXPECT_GT(criuStats.latency / cxlfStats.latency, 4.0);
}

// --- Mitosis-CXL.

TEST_F(BaselineTest, MitosisRoundTripIsCorrect)
{
    MitosisCxl mitosis(*world.fabric);
    auto handle = mitosis.checkpoint(node0, *parent);
    auto child = mitosis.restore(handle, node1);
    expectChildCorrect(node1, *child);
}

TEST_F(BaselineTest, MitosisShadowPinsParentNodeMemory)
{
    MitosisCxl mitosis(*world.fabric);
    CheckpointStats cs;
    auto handle = mitosis.checkpoint(node0, *parent, &cs);
    EXPECT_EQ(cs.pages, kPages);
    EXPECT_EQ(cs.bytesLocal, kPages * kPageSize);
    EXPECT_EQ(handle->localBytes(), kPages * kPageSize);
    EXPECT_EQ(handle->cxlBytes(), 0u);
}

TEST_F(BaselineTest, MitosisFaultsCopyPagesLocally)
{
    MitosisCxl mitosis(*world.fabric);
    auto handle = mitosis.checkpoint(node0, *parent);
    RestoreStats rs;
    auto child = mitosis.restore(handle, node1, {}, &rs);
    // Restore itself copies no data pages...
    EXPECT_EQ(rs.pagesCopied, 0u);
    const sim::MetricsRegistry &m = world.machine->metrics();
    const uint64_t migrBefore = m.counterValue("os.fault.cxl_migrate");
    node1.read(*child, heapStart);
    // ...every first touch migrates the page to local memory.
    EXPECT_EQ(m.counterValue("os.fault.cxl_migrate"), migrBefore + 1);
    EXPECT_GT(child->mm().localFootprintBytes(), 0u);
    EXPECT_EQ(child->mm().cxlMappedBytes(), 0u);
}

TEST_F(BaselineTest, MitosisRemoteFaultCostsTwoFabricCrossings)
{
    MitosisHandle h(*world.machine, 0, "x");
    const auto &c = world.machine->costs();
    const auto cost = h.migrateCost(c);
    EXPECT_GT(cost, c.cxlAccessFault())
        << "store-to-CXL + fetch-from-CXL must exceed one crossing";
}

TEST_F(BaselineTest, MitosisCheckpointStaysCoupledToParentNode)
{
    MitosisCxl mitosis(*world.fabric);
    const uint64_t framesBefore = node0.localDram().usedFrames();
    {
        auto handle = mitosis.checkpoint(node0, *parent);
        EXPECT_GT(node0.localDram().usedFrames(), framesBefore + kPages - 1);
    }
    // Dropping the handle releases the shadow copy.
    EXPECT_EQ(node0.localDram().usedFrames(), framesBefore);
}

TEST_F(BaselineTest, MitosisChildWritesAreIndependent)
{
    MitosisCxl mitosis(*world.fabric);
    auto handle = mitosis.checkpoint(node0, *parent);
    auto c1 = mitosis.restore(handle, node1);
    node1.write(*c1, heapStart, 0x1111);
    auto c2 = mitosis.restore(handle, node1);
    EXPECT_EQ(node1.read(*c2, heapStart), 7000u);
    EXPECT_EQ(node1.read(*c1, heapStart), 0x1111u);
}

// --- LocalFork.

TEST_F(BaselineTest, LocalForkRoundTrip)
{
    LocalFork lf;
    auto handle = lf.checkpoint(node0, *parent);
    auto child = lf.restore(handle, node0);
    expectChildCorrect(node0, *child);
}

TEST_F(BaselineTest, LocalForkRefusesCrossNode)
{
    LocalFork lf;
    auto handle = lf.checkpoint(node0, *parent);
    EXPECT_THROW(lf.restore(handle, node1), sim::FatalError);
}

TEST_F(BaselineTest, LocalForkCheckpointIsFree)
{
    LocalFork lf;
    CheckpointStats cs;
    const auto before = node0.clock().now();
    lf.checkpoint(node0, *parent, &cs);
    EXPECT_EQ(node0.clock().now(), before);
    EXPECT_TRUE(cs.latency.isZero());
}

// --- Cross-mechanism ordering (the paper's headline relations).

TEST_F(BaselineTest, RestoreLatencyOrdering)
{
    CriuCxl criu(*world.fabric);
    MitosisCxl mitosis(*world.fabric);
    CxlFork cxlf(*world.fabric);

    // Judicious checkpointing (the CXLporter discipline): A/D bits are
    // cleared after warm-up so only genuinely written pages are dirty.
    parent->mm().pageTable().clearAccessedBits(/*alsoDirty=*/true);
    for (uint64_t i = 0; i < 8; ++i)
        node0.write(*parent, heapStart.plus(i * kPageSize), 9000 + i);

    RestoreStats criuRs, mitoRs, cxlfRs;
    criu.restore(criu.checkpoint(node0, *parent), node1, {}, &criuRs);
    mitosis.restore(mitosis.checkpoint(node0, *parent), node1, {}, &mitoRs);
    cxlf.restore(cxlf.checkpoint(node0, *parent), node1, {}, &cxlfRs);

    EXPECT_GT(criuRs.latency, mitoRs.latency);
    EXPECT_GT(mitoRs.latency, cxlfRs.latency);
}

TEST_F(BaselineTest, LocalMemoryOrderingAfterFullRead)
{
    CriuCxl criu(*world.fabric);
    MitosisCxl mitosis(*world.fabric);
    CxlFork cxlf(*world.fabric);
    RestoreOptions noPrefetch;
    noPrefetch.prefetchDirty = false;

    auto criuChild = criu.restore(criu.checkpoint(node0, *parent), node1);
    auto mitoChild =
        mitosis.restore(mitosis.checkpoint(node0, *parent), node1);
    auto cxlfChild = cxlf.restore(cxlf.checkpoint(node0, *parent), node1,
                                  noPrefetch);

    // Children read half their pages.
    for (uint64_t i = 0; i < kPages / 2; ++i) {
        const VirtAddr va = heapStart.plus(i * kPageSize);
        node1.read(*mitoChild, va);
        node1.read(*cxlfChild, va);
    }
    EXPECT_GT(criuChild->mm().localFootprintBytes(),
              mitoChild->mm().localFootprintBytes());
    EXPECT_GT(mitoChild->mm().localFootprintBytes(),
              cxlfChild->mm().localFootprintBytes());
}

/**
 * checkpointPte caches the last leaf it resolved. A seeded stream of
 * lookups that jumps between leaves, lands in holes and misses whole
 * leaves, with leaves added midway, must answer exactly like a plain
 * map lookup over the same leaves.
 */
TEST(MitosisPteCursor, MatchesPlainLeafLookup)
{
    World world(test::smallConfig());
    MitosisHandle handle(*world.machine, 0, "cursor");
    std::map<uint64_t, std::shared_ptr<os::TablePage>> ref;
    std::mt19937_64 rng(0x3170515);
    constexpr uint64_t kSlots = 64; // candidate leaf bases; half get leaves
    const auto addLeaf = [&](uint64_t slot) {
        const uint64_t base = slot * os::TablePage::kEntries;
        if (ref.count(base))
            return;
        auto leaf = std::make_shared<os::TablePage>(
            0, world.machine->nodeDram(0).alloc(mem::FrameUse::PageTable),
            false);
        for (uint32_t i = 0; i < os::TablePage::kEntries; ++i) {
            if (rng() % 4 != 0) // one PTE in four is a hole
                leaf->pte(i) = os::Pte::make(
                    mem::PhysAddr{(rng() % 4096 + 1) * kPageSize}, i % 2);
        }
        ref.emplace(base, leaf);
        handle.addLeaf(base, leaf);
    };
    for (uint64_t slot = 0; slot < kSlots; slot += 2)
        addLeaf(slot);

    uint64_t vpn = 0, hits = 0, holes = 0, missingLeaves = 0;
    for (int i = 0; i < 10000; ++i) {
        if (i == 5000) {
            for (uint64_t slot = 1; slot < kSlots; slot += 4)
                addLeaf(slot);
        }
        // Mostly walk forward inside a leaf; sometimes jump anywhere.
        vpn = rng() % 4 == 0 ? rng() % (kSlots * os::TablePage::kEntries)
                             : (vpn + 1 + rng() % 3) %
                                   (kSlots * os::TablePage::kEntries);
        const uint64_t base = vpn & ~uint64_t(os::TablePage::kEntries - 1);
        os::Pte want; // zero: not mapped
        auto it = ref.find(base);
        if (it == ref.end()) {
            ++missingLeaves;
        } else {
            const os::Pte &p = it->second->pte(uint32_t(vpn - base));
            if (p.present()) {
                want = p;
                ++hits;
            } else {
                ++holes;
            }
        }
        const os::Pte got =
            handle.checkpointPte(VirtAddr::fromPageNumber(vpn));
        ASSERT_EQ(got.raw(), want.raw()) << "lookup " << i;
    }
    EXPECT_GT(hits, 1000u);
    EXPECT_GT(holes, 1000u);
    EXPECT_GT(missingLeaves, 1000u);
}

} // namespace
} // namespace cxlfork::rfork
