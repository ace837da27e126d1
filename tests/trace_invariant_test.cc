/**
 * @file
 * Trace-driven invariant tests: run real checkpoint/restore flows with
 * the tracer armed and use the recorded spans and instants as an
 * oracle over the mechanisms themselves — nesting is well-formed,
 * restore phases account for the whole restore, CXLfork never copies
 * the same page twice, and Mitosis pays for pages strictly lazily.
 */

#include <gtest/gtest.h>

#include "rfork/cxlfork.hh"
#include "rfork/mechanism.hh"
#include "rfork/mitosis.hh"
#include "sim/trace.hh"
#include "test_util.hh"

namespace cxlfork::rfork {
namespace {

using mem::kPageSize;
using mem::VirtAddr;
using sim::TraceSpan;
using test::World;

/**
 * A deterministic parent on node 0: one RW anon VMA, the first
 * `dirtyPages` written (dirty at checkpoint, so prefetch targets) and
 * the next `cleanPages` only read (resident, clean, CXL-shareable).
 */
struct Parent
{
    std::shared_ptr<os::Task> task;
    const os::Vma *vma = nullptr;
    uint64_t dirtyPages = 0;
    uint64_t cleanPages = 0;

    uint64_t totalPages() const { return dirtyPages + cleanPages; }

    VirtAddr
    page(uint64_t i) const
    {
        return vma->start.plus(i * kPageSize);
    }
};

Parent
makeParent(World &world, uint64_t dirtyPages, uint64_t cleanPages)
{
    os::NodeOs &node = world.node(0);
    Parent p;
    p.dirtyPages = dirtyPages;
    p.cleanPages = cleanPages;
    p.task = node.createTask("traced");
    p.vma = &node.mapAnon(*p.task, p.totalPages() * kPageSize,
                          os::kVmaRead | os::kVmaWrite, "heap");
    for (uint64_t i = 0; i < dirtyPages; ++i)
        node.write(*p.task, p.page(i), 0xbeef0000 + i);
    for (uint64_t i = dirtyPages; i < p.totalPages(); ++i)
        node.read(*p.task, p.page(i));
    return p;
}

World
tracedWorld()
{
    World world(test::smallConfig());
    world.machine->tracer().setEnabled(true);
    return world;
}

/** Every recorded span is closed and properly nested under its parent. */
void
expectWellFormed(const sim::Tracer &tracer)
{
    ASSERT_EQ(tracer.openSpanCount(), 0u);
    const auto &spans = tracer.spans();
    for (const TraceSpan &s : spans) {
        EXPECT_FALSE(s.open) << s.name;
        EXPECT_LE(s.begin, s.end) << s.name;
        if (s.parent == TraceSpan::kNoParent) {
            EXPECT_EQ(s.depth, 0u) << s.name;
            continue;
        }
        ASSERT_LT(s.parent, spans.size()) << s.name;
        const TraceSpan &up = spans[s.parent];
        EXPECT_EQ(s.track, up.track) << s.name;
        EXPECT_EQ(s.depth, up.depth + 1) << s.name;
        // A child lives entirely inside its parent's interval.
        EXPECT_GE(s.begin, up.begin) << s.name << " under " << up.name;
        EXPECT_LE(s.end, up.end) << s.name << " under " << up.name;
    }
}

TEST(TraceInvariant, SpansWellFormedAcrossCheckpointRestoreAndFaults)
{
    World world = tracedWorld();
    Parent parent = makeParent(world, 24, 8);
    CxlFork fork(*world.fabric);

    auto handle = fork.checkpoint(world.node(0), *parent.task);
    auto child = fork.restore(handle, world.node(1));
    // Drive post-restore faults so os.fault spans land in the trace.
    for (uint64_t i = 0; i < parent.totalPages(); ++i)
        world.node(1).write(*child, parent.page(i), 0xd00d + i);

    const sim::Tracer &tracer = world.machine->tracer();
    expectWellFormed(tracer);
    EXPECT_TRUE(tracer.findLast("cxlfork.checkpoint"));
    EXPECT_TRUE(tracer.findLast("cxlfork.restore"));
    EXPECT_FALSE(tracer.byCategory("os.fault").empty());
    // Checkpoint ran on node 0's track, restore on node 1's.
    EXPECT_EQ(tracer.findLast("cxlfork.checkpoint")->track, 0u);
    EXPECT_EQ(tracer.findLast("cxlfork.restore")->track, 1u);
}

/**
 * The tentpole acceptance invariant: the restore phase children sum to
 * the restore span's total within 0.1% — every nanosecond the restore
 * charges is attributed to exactly one phase.
 */
TEST(TraceInvariant, RestorePhasesSumToTotalForEveryMechanism)
{
    struct Mech
    {
        const char *name;
        const char *spanName;
    };
    const std::vector<Mech> mechs{{"cxlfork", "cxlfork.restore"},
                                  {"criu", "criu.restore"},
                                  {"mitosis", "mitosis.restore"},
                                  {"localfork", "localfork.restore"}};
    for (const Mech &m : mechs) {
        World world = tracedWorld();
        Parent parent = makeParent(world, 24, 8);

        std::unique_ptr<RemoteForkMechanism> mech =
            makeMechanism(*parseMechanism(m.name), *world.fabric);

        os::NodeOs &target =
            std::string(m.name) == "localfork" ? world.node(0)
                                               : world.node(1);
        auto handle = mech->checkpoint(world.node(0), *parent.task);
        RestoreStats rs;
        auto child = mech->restore(handle, target, {}, &rs);
        ASSERT_TRUE(child);

        const sim::Tracer &tracer = world.machine->tracer();
        const TraceSpan *restore = tracer.findLast(m.spanName);
        ASSERT_TRUE(restore) << m.spanName;
        EXPECT_FALSE(restore->open);
        EXPECT_EQ(restore->duration().toNs(), rs.latency.toNs()) << m.name;

        const auto phases = tracer.childrenOf(*restore);
        ASSERT_FALSE(phases.empty()) << m.name;
        double sumNs = 0.0;
        for (const TraceSpan *phase : phases) {
            EXPECT_EQ(phase->category, "rfork.phase") << phase->name;
            sumNs += phase->duration().toNs();
        }
        const double totalNs = restore->duration().toNs();
        ASSERT_GT(totalNs, 0.0) << m.name;
        EXPECT_NEAR(sumNs, totalNs, totalNs * 0.001)
            << m.name << ": phases must cover the restore total";
    }
}

/**
 * No page is ever copied twice on the restore node: prefetched pages
 * never CoW-fault again, CoW-faulted pages never migrate again. The
 * page_copy instants (prefetch + cow_cxl + migrate) are the oracle.
 */
TEST(TraceInvariant, NoPageCopiedTwiceOnTheRestoreNode)
{
    World world = tracedWorld();
    Parent parent = makeParent(world, 24, 16);
    CxlFork fork(*world.fabric);

    auto handle = fork.checkpoint(world.node(0), *parent.task);
    RestoreOptions opts;
    opts.prefetchDirty = true;
    RestoreStats rs;
    auto child = fork.restore(handle, world.node(1), opts, &rs);
    EXPECT_EQ(rs.pagesCopied, parent.dirtyPages);

    // Two full write passes: the first forces every remaining CXL page
    // to migrate, the second must find everything already local.
    for (int pass = 0; pass < 2; ++pass) {
        for (uint64_t i = 0; i < parent.totalPages(); ++i)
            world.node(1).write(*child, parent.page(i), 0x5a5a + i);
    }

    const sim::Tracer &tracer = world.machine->tracer();
    std::map<uint64_t, int> copiesPerVpn;
    std::map<std::string, int> copiesPerReason;
    for (const sim::TraceInstant *i : tracer.instantsNamed("page_copy")) {
        if (i->track != 1)
            continue; // parent-side copies are a different process
        ++copiesPerVpn[i->attrU64("vpn")];
        ASSERT_TRUE(i->attr("reason"));
        ++copiesPerReason[i->attr("reason")->str];
    }
    for (const auto &[vpn, copies] : copiesPerVpn) {
        EXPECT_EQ(copies, 1) << "page " << std::hex << vpn
                             << " copied more than once";
    }
    // Exactly the dirty pages prefetched, exactly the clean remainder
    // CoW-copied on first write.
    EXPECT_EQ(copiesPerReason["prefetch"], int(parent.dirtyPages));
    EXPECT_EQ(copiesPerReason["cow_cxl"], int(parent.cleanPages));
    EXPECT_EQ(uint64_t(copiesPerVpn.size()), parent.totalPages());
}

/**
 * Mitosis is lazy by construction: restore moves metadata only, and
 * every page copy / fault span on the child node begins strictly after
 * the restore span returned.
 */
TEST(TraceInvariant, MitosisFaultsOnlyAfterRestoreReturns)
{
    World world = tracedWorld();
    Parent parent = makeParent(world, 24, 8);
    MitosisCxl mito(*world.fabric);

    auto handle = mito.checkpoint(world.node(0), *parent.task);
    auto child = mito.restore(handle, world.node(1));

    const sim::Tracer &tracer = world.machine->tracer();
    const TraceSpan *restore = tracer.findLast("mitosis.restore");
    ASSERT_TRUE(restore);
    const sim::SimTime restoreEnd = restore->end;

    // No faults and no page copies on the child node during restore.
    auto childFaultsBefore = [&] {
        size_t n = 0;
        for (const TraceSpan *f : tracer.byCategory("os.fault")) {
            if (f->track == 1 && f->begin < restoreEnd)
                ++n;
        }
        return n;
    };
    EXPECT_EQ(childFaultsBefore(), 0u);

    // Reads pull every page lazily — all strictly after restore.
    for (uint64_t i = 0; i < parent.totalPages(); ++i) {
        EXPECT_EQ(world.node(1).read(*child, parent.page(i)),
                  world.node(0).read(*parent.task, parent.page(i)));
    }
    size_t lazyFaults = 0;
    for (const TraceSpan *f : tracer.byCategory("os.fault")) {
        if (f->track != 1)
            continue;
        EXPECT_GE(f->begin, restoreEnd) << "fault during Mitosis restore";
        ++lazyFaults;
    }
    EXPECT_GE(lazyFaults, parent.totalPages());
    expectWellFormed(tracer);
}

/** Checkpoint span attributes agree with the CheckpointStats returned. */
TEST(TraceInvariant, CheckpointSpanAttrsMatchStats)
{
    World world = tracedWorld();
    Parent parent = makeParent(world, 16, 16);
    CxlFork fork(*world.fabric);

    CheckpointStats cs;
    auto handle = fork.checkpoint(world.node(0), *parent.task, &cs);
    (void)handle;
    EXPECT_EQ(cs.pages, parent.totalPages());

    const TraceSpan *ckpt =
        world.machine->tracer().findLast("cxlfork.checkpoint");
    ASSERT_TRUE(ckpt);
    EXPECT_EQ(ckpt->category, "rfork.checkpoint");
    EXPECT_EQ(ckpt->attrU64("pages"), cs.pages);
    EXPECT_EQ(ckpt->attrU64("leaves"), cs.leaves);
    EXPECT_EQ(ckpt->attrU64("bytes_to_cxl"), cs.bytesToCxl);
    EXPECT_EQ(ckpt->duration().toNs(), cs.latency.toNs());
}

/**
 * The disabled tracer really is pure observation: the same flow with
 * tracing on and off produces identical simulated latencies.
 */
TEST(TraceInvariant, TracingDoesNotPerturbSimulatedTime)
{
    auto run = [](bool traced) {
        World world(test::smallConfig());
        world.machine->tracer().setEnabled(traced);
        Parent parent = makeParent(world, 24, 8);
        CxlFork fork(*world.fabric);
        CheckpointStats cs;
        auto handle = fork.checkpoint(world.node(0), *parent.task, &cs);
        RestoreStats rs;
        auto child = fork.restore(handle, world.node(1), {}, &rs);
        for (uint64_t i = 0; i < parent.totalPages(); ++i)
            world.node(1).write(*child, parent.page(i), i);
        return std::make_pair(cs.latency.toNs(),
                              rs.latency.toNs() +
                                  world.node(1).clock().now().toNs());
    };
    EXPECT_EQ(run(false), run(true));
}

} // namespace
} // namespace cxlfork::rfork
