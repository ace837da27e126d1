/**
 * @file
 * Differential restore oracle for the content-addressed page store.
 *
 * The store must be invisible to restored children: for seeded-random
 * parent address spaces, every mechanism restores a byte-identical
 * image whether dedup is on or off, and post-restore writes CoW-break
 * the sharing privately — no bleed-through between sibling children of
 * one image, between distinct images that share device frames, or back
 * into the no-dedup baseline world.
 */

#include <gtest/gtest.h>

#include "cxl/page_store.hh"
#include "rfork/cxlfork.hh"
#include "rfork/mechanism.hh"
#include "sim/log.hh"
#include "sim/rng.hh"
#include "test_util.hh"

namespace cxlfork::rfork {
namespace {

using mem::kPageSize;
using mem::VirtAddr;
using test::World;

/** One populated page: address, expected bytes, VMA writability. */
struct PageRec
{
    VirtAddr va;
    uint64_t content;
    bool writable;
};

/** A randomly-shaped process and its expected page contents. */
struct RandomProcess
{
    std::shared_ptr<os::Task> task;
    std::vector<PageRec> pages;
};

/**
 * Deterministic given (world freshness, seed): two worlds built from
 * the same seed produce byte-identical parents at identical addresses,
 * which is what makes the dedup-on/off comparison differential. Repeated
 * content tokens (i % 7) force intra-image dedup hits as well.
 */
RandomProcess
makeRandomProcess(World &world, sim::Rng &rng)
{
    os::NodeOs &node = world.node(0);
    RandomProcess proc;
    proc.task = node.createTask("oracle");

    const uint32_t nVmas = 2 + uint32_t(rng.index(5));
    for (uint32_t v = 0; v < nVmas; ++v) {
        const uint64_t pages = 4 + rng.index(64);
        const bool fileBacked = rng.chance(0.25);
        if (fileBacked) {
            const std::string path =
                sim::format("/oracle/lib%llu_%llu.so",
                            (unsigned long long)(rng.raw() % 1000),
                            (unsigned long long)v);
            world.vfs->create(path, pages * kPageSize, rng.raw());
            os::Vma &vma = node.mapFilePrivate(
                *proc.task, path, os::kVmaRead | os::kVmaExec);
            auto inode = world.vfs->lookup(path);
            for (uint64_t i = 0; i < pages; ++i) {
                if (!rng.chance(0.7))
                    continue;
                const VirtAddr va = vma.start.plus(i * kPageSize);
                node.access(*proc.task, va, false);
                proc.pages.push_back({va, inode->pageContent(i), false});
            }
        } else {
            os::Vma &vma =
                node.mapAnon(*proc.task, pages * kPageSize,
                             os::kVmaRead | os::kVmaWrite, "oracle-anon");
            // A few distinct values, heavily repeated: identical pages
            // inside one image exercise the content index even before a
            // second tenant shows up.
            const uint64_t palette = rng.raw() | 1;
            for (uint64_t i = 0; i < pages; ++i) {
                if (!rng.chance(0.85))
                    continue;
                const VirtAddr va = vma.start.plus(i * kPageSize);
                const uint64_t content = palette + (i % 7);
                node.write(*proc.task, va, content);
                proc.pages.push_back({va, content, true});
            }
        }
    }
    for (auto &r : proc.task->cpu().gpr)
        r = rng.raw();
    proc.task->cpu().rip = rng.raw();
    return proc;
}

struct Combo
{
    const char *mech;
    uint64_t seed;
};

class RestoreOracle : public ::testing::TestWithParam<Combo>
{
};

/**
 * Twin worlds, one per dedup setting, built from one seed. The
 * restored child in the dedup world must read byte-for-byte what the
 * baseline (dedup-off) child reads, before and after writes that break
 * the content sharing.
 */
TEST_P(RestoreOracle, DedupChildByteIdenticalToBaseline)
{
    const Combo combo = GetParam();
    cxl::PageStoreConfig dedupCfg;
    dedupCfg.dedup = true;

    World base(test::smallConfig());
    World dedup(test::smallConfig(), dedupCfg);

    sim::Rng rngBase(combo.seed);
    sim::Rng rngDedup(combo.seed);
    RandomProcess pBase = makeRandomProcess(base, rngBase);
    RandomProcess pDedup = makeRandomProcess(dedup, rngDedup);
    ASSERT_EQ(pBase.pages.size(), pDedup.pages.size());

    const MechanismKind kind = *parseMechanism(combo.mech);
    auto mBase = makeMechanism(kind, *base.fabric);
    auto mDedup = makeMechanism(kind, *dedup.fabric);
    auto hBase = mBase->checkpoint(base.node(0), *pBase.task);
    auto hDedup = mDedup->checkpoint(dedup.node(0), *pDedup.task);

    auto childBase = mBase->restore(hBase, base.node(1));
    // Two siblings of the same image: under dedup they attach the same
    // device frames.
    auto childA = mDedup->restore(hDedup, dedup.node(1));
    auto childB = mDedup->restore(hDedup, dedup.node(1));

    for (size_t i = 0; i < pBase.pages.size(); ++i) {
        const PageRec &pb = pBase.pages[i];
        const PageRec &pd = pDedup.pages[i];
        ASSERT_EQ(pb.va.raw, pd.va.raw) << "worlds diverged";
        ASSERT_EQ(pb.content, pd.content);
        const uint64_t expect = base.node(1).read(*childBase, pb.va);
        ASSERT_EQ(expect, pb.content);
        ASSERT_EQ(dedup.node(1).read(*childA, pd.va), expect)
            << combo.mech << " va=" << std::hex << pd.va.raw;
        ASSERT_EQ(dedup.node(1).read(*childB, pd.va), expect);
    }

    // Post-restore writes: child A rewrites a subset of its writable
    // pages. The CoW break must be private — sibling B, the parent,
    // and a fresh restore all still see the checkpointed bytes.
    std::vector<std::pair<VirtAddr, uint64_t>> written;
    size_t writableSeen = 0;
    for (const PageRec &p : pDedup.pages) {
        if (!p.writable)
            continue;
        if (writableSeen++ % 2 != 0)
            continue; // leave every other page shared
        const uint64_t fresh = p.content ^ 0x5a5a'5a5a'0000'0001ull;
        dedup.node(1).write(*childA, p.va, fresh);
        written.emplace_back(p.va, fresh);
    }
    ASSERT_GT(written.size(), 0u);

    for (const auto &[va, fresh] : written)
        ASSERT_EQ(dedup.node(1).read(*childA, va), fresh);
    auto childFresh = mDedup->restore(hDedup, dedup.node(0));
    for (const PageRec &p : pDedup.pages) {
        ASSERT_EQ(dedup.node(1).read(*childB, p.va), p.content)
            << "sibling saw a CoW write, va=" << std::hex << p.va.raw;
        ASSERT_EQ(dedup.node(0).read(*pDedup.task, p.va), p.content)
            << "parent saw a CoW write";
        ASSERT_EQ(dedup.node(0).read(*childFresh, p.va), p.content)
            << "fresh restore saw a CoW write";
    }
}

std::vector<Combo>
combos()
{
    std::vector<Combo> out;
    uint64_t seed = 77001;
    for (const char *mech : {"cxlfork", "criu", "mitosis"})
        for (int i = 0; i < 3; ++i)
            out.push_back({mech, seed++});
    return out;
}

INSTANTIATE_TEST_SUITE_P(Mechanisms, RestoreOracle,
                         ::testing::ValuesIn(combos()));

class CrossImageOracle : public ::testing::TestWithParam<uint64_t>
{
};

/**
 * Two distinct images sharing device frames through the content index:
 * a clone's re-checkpoint interns the same bytes as the original image,
 * so both images reference one physical copy. Writing through a child
 * of one image must never alter what the other image restores.
 */
TEST_P(CrossImageOracle, NoBleedThroughBetweenDedupedImages)
{
    cxl::PageStoreConfig dedupCfg;
    dedupCfg.dedup = true;
    World world(test::smallConfig(), dedupCfg);
    sim::Rng rng(GetParam());
    RandomProcess parent = makeRandomProcess(world, rng);
    CxlFork fork(*world.fabric);

    auto h1 = fork.checkpoint(world.node(0), *parent.task);
    auto child1 = fork.restore(h1, world.node(1));
    // Re-checkpoint the unmodified clone: every data page interns to a
    // content hit against image 1.
    auto h2 = fork.checkpoint(world.node(1), *child1);
    auto child2 = fork.restore(h2, world.node(0));

    // Writes through image 1's child (the CoW fault path breaks the
    // content sharing page by page)...
    uint64_t writes = 0;
    for (const PageRec &p : parent.pages) {
        ASSERT_EQ(world.node(1).read(*child1, p.va), p.content);
        if (!p.writable)
            continue;
        world.node(1).write(*child1, p.va,
                            p.content ^ 0xbeef'0000'0000'0001ull);
        ++writes;
    }
    // ...and through image 2's child, with a different pattern.
    for (const PageRec &p : parent.pages) {
        ASSERT_EQ(world.node(0).read(*child2, p.va), p.content);
        if (!p.writable)
            continue;
        world.node(0).write(*child2, p.va,
                            p.content ^ 0x00d0'0000'0000'0002ull);
    }
    EXPECT_GT(writes, 0u);

    // Both images still restore the original bytes.
    auto fresh1 = fork.restore(h1, world.node(0));
    auto fresh2 = fork.restore(h2, world.node(1));
    for (const PageRec &p : parent.pages) {
        ASSERT_EQ(world.node(0).read(*fresh1, p.va), p.content)
            << "image 1 corrupted, va=" << std::hex << p.va.raw;
        ASSERT_EQ(world.node(1).read(*fresh2, p.va), p.content)
            << "image 2 corrupted, va=" << std::hex << p.va.raw;
    }

    // Releasing image 1 entirely must leave image 2 intact even though
    // they shared frames (refcounts, not ownership, hold the pages).
    fresh1.reset();
    child1.reset();
    h1.reset();
    auto survivor = fork.restore(h2, world.node(0));
    for (const PageRec &p : parent.pages)
        ASSERT_EQ(world.node(0).read(*survivor, p.va), p.content);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrossImageOracle,
                         ::testing::Range<uint64_t>(88100, 88105));

} // namespace
} // namespace cxlfork::rfork
