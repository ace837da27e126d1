/**
 * @file
 * Property tests on the remote-fork invariant that matters most: for a
 * randomly-constructed process, under every mechanism and every tiering
 * policy, a restored clone observes *exactly* the parent's memory
 * image, and divergence after writes is strictly private.
 */

#include <gtest/gtest.h>

#include <set>

#include "rfork/cxlfork.hh"
#include "rfork/mechanism.hh"
#include "sim/error.hh"
#include "sim/fault_injector.hh"
#include "sim/rng.hh"
#include "sim/trace.hh"
#include "test_util.hh"

namespace cxlfork::rfork {
namespace {

using mem::kPageSize;
using mem::VirtAddr;
using test::PageRec;
using test::RandomProcess;
using test::World;

struct Combo
{
    const char *mech;
    os::TieringPolicy policy;
    bool prefetch;
    uint64_t seed;
};

class RforkFuzz : public ::testing::TestWithParam<Combo>
{
};

TEST_P(RforkFuzz, CloneObservesParentImageExactly)
{
    const Combo combo = GetParam();
    World world(test::smallConfig());
    sim::Rng rng(combo.seed);
    RandomProcess parent =
        test::makeRandomProcess(world.node(0), *world.vfs, rng);
    auto mech = makeMechanism(*parseMechanism(combo.mech), *world.fabric);

    auto handle = mech->checkpoint(world.node(0), *parent.task);
    RestoreOptions opts;
    opts.policy = combo.policy;
    opts.prefetchDirty = combo.prefetch;
    auto child = mech->restore(handle, world.node(1), opts);

    // The clone reads exactly the parent's image, in random order.
    auto shuffled = parent.pages;
    rng.shuffle(shuffled);
    for (const auto &[va, content, writable] : shuffled) {
        ASSERT_EQ(world.node(1).read(*child, va), content)
            << combo.mech << " va=" << std::hex << va.raw;
    }
    EXPECT_EQ(child->cpu().gpr, parent.task->cpu().gpr);
    EXPECT_EQ(child->fds().socketCount(), 1u);

    // Divergence is private in both directions.
    if (!parent.pages.empty()) {
        const auto &[va, content, writable] = parent.pages.front();
        if (writable) {
            world.node(1).write(*child, va, 0xd1d1);
            EXPECT_EQ(world.node(0).read(*parent.task, va), content);
            auto child2 = mech->restore(handle, world.node(0), opts);
            EXPECT_EQ(world.node(0).read(*child2, va), content);
        }
    }
}

std::vector<Combo>
combos()
{
    std::vector<Combo> out;
    uint64_t seed = 31337;
    for (const char *mech : {"cxlfork", "criu", "mitosis"}) {
        for (uint64_t i = 0; i < 4; ++i) {
            out.push_back({mech, os::TieringPolicy::MigrateOnWrite,
                           i % 2 == 0, seed++});
        }
    }
    // CXLfork additionally sweeps the tiering policies.
    for (os::TieringPolicy p : {os::TieringPolicy::MigrateOnAccess,
                                os::TieringPolicy::Hybrid}) {
        for (uint64_t i = 0; i < 3; ++i)
            out.push_back({"cxlfork", p, false, seed++});
    }
    return out;
}

INSTANTIATE_TEST_SUITE_P(AllMechanisms, RforkFuzz,
                         ::testing::ValuesIn(combos()));

/** Checkpoint chains: re-checkpoint a restored clone. */
class RechkptFuzz : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(RechkptFuzz, CheckpointOfRestoredCloneIsFaithful)
{
    World world(test::smallConfig());
    sim::Rng rng(GetParam());
    RandomProcess gen0 =
        test::makeRandomProcess(world.node(0), *world.vfs, rng);
    CxlFork fork(*world.fabric);

    auto h1 = fork.checkpoint(world.node(0), *gen0.task);
    auto gen1 = fork.restore(h1, world.node(1));
    // The clone mutates a few of its pages.
    std::vector<PageRec> expect = gen0.pages;
    for (auto &[va, content, writable] : expect) {
        const os::Vma *vma = gen1->mm().vmas().findLocal(va);
        if (!vma) {
            auto idx = gen1->mm().vmas().findShared(va);
            // Materialization happens on fault; force it via a read.
            world.node(1).read(*gen1, va);
            (void)idx;
            vma = gen1->mm().vmas().findLocal(va);
        }
        if (vma && vma->writable() && rng.chance(0.3)) {
            content = rng.raw();
            world.node(1).write(*gen1, va, content);
        }
    }

    // Second-generation checkpoint and restore back on node 0.
    auto h2 = fork.checkpoint(world.node(1), *gen1);
    auto gen2 = fork.restore(h2, world.node(0));
    for (const auto &[va, content, writable] : expect)
        ASSERT_EQ(world.node(0).read(*gen2, va), content);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RechkptFuzz,
                         ::testing::Range<uint64_t>(500, 508));

/**
 * Tracer-backed page accounting: for a random process restored with
 * CXLfork, every checkpointed page is either prefetch-copied to local
 * DRAM or still CXL-shared — copied + shared == resident — and the
 * prefetch page_copy instants agree exactly with RestoreStats.
 */
class TraceOracleFuzz : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(TraceOracleFuzz, CopiedPlusSharedEqualsResidentPages)
{
    World world(test::smallConfig());
    world.machine->tracer().setEnabled(true);
    sim::Rng rng(GetParam());
    RandomProcess parent =
        test::makeRandomProcess(world.node(0), *world.vfs, rng);
    CxlFork fork(*world.fabric);

    CheckpointStats cs;
    auto handle = fork.checkpoint(world.node(0), *parent.task, &cs);
    RestoreOptions opts;
    opts.prefetchDirty = true;
    RestoreStats rs;
    auto child = fork.restore(handle, world.node(1), opts, &rs);

    // Walk the child's page table over the recorded pages: a resident
    // page is either a fresh local copy or still the checkpoint's CXL
    // frame (the attached, rebased PTE).
    uint64_t copied = 0, shared = 0, resident = 0;
    for (const auto &[va, content, writable] : parent.pages) {
        const os::Pte p = child->mm().pageTable().lookup(va);
        if (!p.present())
            continue;
        ++resident;
        if (p.cxlCheckpoint())
            ++shared;
        else
            ++copied;
        (void)content;
    }
    EXPECT_EQ(copied + shared, resident);
    EXPECT_EQ(copied, rs.pagesCopied);
    EXPECT_EQ(resident, cs.pages);

    // The trace tells the same story: one prefetch instant per copied
    // page, each for a distinct vpn.
    const sim::Tracer &tracer = world.machine->tracer();
    std::set<uint64_t> prefetched;
    for (const sim::TraceInstant *i : tracer.instantsNamed("page_copy")) {
        if (i->track != 1)
            continue;
        ASSERT_TRUE(i->attr("reason"));
        EXPECT_EQ(i->attr("reason")->str, "prefetch");
        EXPECT_TRUE(prefetched.insert(i->attrU64("vpn")).second)
            << "vpn prefetched twice";
    }
    EXPECT_EQ(uint64_t(prefetched.size()), rs.pagesCopied);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TraceOracleFuzz,
                         ::testing::Range<uint64_t>(900, 906));

/**
 * Restore cost is monotone in the CXL round-trip latency: the same
 * process, checkpointed and restored under increasing cxlLatency,
 * never restores faster at a slower device.
 */
TEST(TraceOracleMonotone, RestoreTotalMonotoneInCxlLatency)
{
    auto restoreNs = [](double latNs) {
        mem::MachineConfig cfg = test::smallConfig();
        cfg.costs.cxlLatency = sim::SimTime::ns(latNs);
        World world(cfg);
        world.machine->tracer().setEnabled(true);
        sim::Rng rng(4242);
        RandomProcess parent =
            test::makeRandomProcess(world.node(0), *world.vfs, rng);
        CxlFork fork(*world.fabric);
        auto handle = fork.checkpoint(world.node(0), *parent.task);
        RestoreOptions opts;
        opts.prefetchDirty = true;
        RestoreStats rs;
        fork.restore(handle, world.node(1), opts, &rs);
        // The span agrees with the stats at every latency point.
        const sim::TraceSpan *span =
            world.machine->tracer().findLast("cxlfork.restore");
        EXPECT_TRUE(span && !span->open);
        if (span)
            EXPECT_EQ(span->duration().toNs(), rs.latency.toNs());
        return rs.latency.toNs();
    };
    double prev = -1.0;
    for (double lat : {100.0, 200.0, 400.0, 800.0}) {
        const double ns = restoreNs(lat);
        EXPECT_GE(ns, prev) << "restore got cheaper at " << lat << " ns";
        prev = ns;
    }
}

// --- Two-phase publication under transient faults.

namespace {

constexpr uint64_t kPubPages = 6;

std::pair<std::shared_ptr<os::Task>, VirtAddr>
makePublishParent(World &world)
{
    os::NodeOs &node = world.node(0);
    auto task = node.createTask("pub");
    os::Vma &heap = node.mapAnon(*task, kPubPages * kPageSize,
                                 os::kVmaRead | os::kVmaWrite, "heap");
    for (uint64_t i = 0; i < kPubPages; ++i)
        node.write(*task, heap.start.plus(i * kPageSize), 0xabc000 + i);
    return {task, heap.start};
}

} // namespace

/**
 * A transient fault that escalates exactly at the publish-step fabric
 * transaction must not double-publish, must not expose the image to
 * lookup(), and must leave a complete STAGED orphan that one recovery
 * pass (and only one) turns into a restorable published checkpoint.
 * An armed-but-silent injector must not change the simulated cost of
 * publication at all.
 */
TEST(PublishFaultProperty, TransientAtPublishStepIsCrashConsistent)
{
    // Baseline: faults off. Count the fabric transactions one
    // published checkpoint issues — the last one is the publish
    // journal write — and its exact simulated cost.
    uint64_t txns = 0;
    double baselineCostNs = 0.0;
    {
        World world(test::smallConfig());
        auto [task, heap] = makePublishParent(world);
        CxlFork mech(*world.fabric);
        CheckpointStore store;
        sim::Counter &txnCounter =
            world.machine->metrics().counter("mem.cxl.transactions");
        const uint64_t before = txnCounter.value();
        const sim::SimTime t0 = world.node(0).clock().now();
        const PublishedCheckpoint pub = mech.checkpointPublished(
            store, {"u", "f"}, world.node(0), *task);
        txns = txnCounter.value() - before;
        baselineCostNs = (world.node(0).clock().now() - t0).toNs();
        EXPECT_EQ(store.latestCount(), 1u);
        EXPECT_EQ(store.lookup("u", "f"), pub.cid);
        // Retried publishes are idempotent: no double publication.
        store.publish(pub.cid);
        EXPECT_EQ(store.latestCount(), 1u);
        EXPECT_EQ(store.publishedCount(), 1u);
    }
    ASSERT_GE(txns, 3u);

    sim::FaultConfig fc;
    fc.cxlTransientRate = 0.04;
    fc.maxRetries = 0; // first injected transient escalates

    // With maxRetries == 0 each transaction consumes exactly one draw
    // from the transient stream, so the standalone injector predicts
    // which transaction a seed escalates at. Find one seed that fires
    // exactly on the publish write and one that spares the whole call.
    auto firstTrueDraw = [&fc](uint64_t seed, uint64_t limit) {
        sim::FaultInjector inj;
        sim::FaultConfig c = fc;
        c.seed = seed;
        inj.setConfig(c);
        for (uint64_t i = 0; i < limit; ++i) {
            if (inj.drawTransient())
                return i;
        }
        return limit;
    };
    uint64_t seedAtPublish = 0;
    uint64_t seedClean = 0;
    for (uint64_t s = 1; s < 200000 && (!seedAtPublish || !seedClean);
         ++s) {
        const uint64_t first = firstTrueDraw(s, txns + 1);
        if (!seedAtPublish && first == txns - 1)
            seedAtPublish = s;
        else if (!seedClean && first >= txns)
            seedClean = s;
    }
    ASSERT_NE(seedAtPublish, 0u);
    ASSERT_NE(seedClean, 0u);

    // Armed but silent: identical cost, single publication.
    {
        World world(test::smallConfig());
        auto [task, heap] = makePublishParent(world);
        CxlFork mech(*world.fabric);
        CheckpointStore store;
        sim::FaultConfig c = fc;
        c.seed = seedClean;
        world.machine->setFaultConfig(c);
        const sim::SimTime t0 = world.node(0).clock().now();
        mech.checkpointPublished(store, {"u", "f"}, world.node(0), *task);
        EXPECT_EQ((world.node(0).clock().now() - t0).toNs(),
                  baselineCostNs);
        EXPECT_EQ(store.latestCount(), 1u);
        EXPECT_EQ(store.publishedCount(), 1u);
    }

    // Escalation at the publish step.
    World world(test::smallConfig());
    auto [task, heap] = makePublishParent(world);
    CxlFork mech(*world.fabric);
    CheckpointStore store;
    sim::FaultConfig c = fc;
    c.seed = seedAtPublish;
    world.machine->setFaultConfig(c);
    EXPECT_THROW(mech.checkpointPublished(store, {"u", "f"},
                                          world.node(0), *task),
                 sim::TransientFaultError);

    // Not published, not visible, not double-charged — but the fully
    // built image survived as a STAGED orphan.
    EXPECT_EQ(store.latestCount(), 0u);
    EXPECT_FALSE(store.lookup("u", "f").has_value());
    ASSERT_EQ(store.stagedCount(), 1u);
    EXPECT_EQ(store.publishedCount(), 0u);

    // One recovery pass completes it; a second finds nothing.
    const cxl::RecoveryReport rep = store.recoverOrphans(
        world.node(0).id(), [](const std::shared_ptr<CheckpointHandle> &h) {
            return h->complete() && h->localBytes() == 0;
        });
    EXPECT_EQ(rep.scanned, 1u);
    EXPECT_EQ(rep.completed, 1u);
    EXPECT_EQ(rep.reclaimed, 0u);
    const cxl::RecoveryReport again = store.recoverOrphans(
        world.node(0).id(),
        [](const std::shared_ptr<CheckpointHandle> &) { return true; });
    EXPECT_EQ(again.scanned, 0u);

    // The recovered checkpoint restores and reproduces the image.
    auto cid = store.lookup("u", "f");
    ASSERT_TRUE(cid.has_value());
    world.machine->setFaultConfig(sim::FaultConfig{});
    auto child = mech.restore(store.get(*cid), world.node(1));
    for (uint64_t i = 0; i < kPubPages; ++i) {
        EXPECT_EQ(world.node(1).read(*child, heap.plus(i * kPageSize)),
                  0xabc000 + i);
    }
}

} // namespace
} // namespace cxlfork::rfork
