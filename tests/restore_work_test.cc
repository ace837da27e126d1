/**
 * @file
 * The restore path's deterministic work counts, pinned.
 *
 * One fixed Table-1 function is checkpointed on node 0, then restored,
 * invoked once and destroyed on a target node under each mechanism.
 * The host work each phase does (page-table walks from the root and
 * from the walk cache, VMA map descents and cursor hits, CRIU page
 * records decoded, frames allocated and freed per tier) is pinned
 * exactly. The counts depend only on the code, never on the host, so
 * an algorithmic regression on the per-page path (a second walk on a
 * translation hit, a VMA lookup the cursor should serve) fails here on
 * any machine. The counts touch no clock, RNG stream, metric or span.
 *
 * Also here: each fault kind's page-table walks, pinned per fault; a
 * forged or truncated CRIU page section, with a CRC that matches it,
 * must fail before the restore creates a task; a CRIU image rewritten
 * or corrupted after a restore is decoded (or rejected) anew; and the
 * CRIU image scan, skipped when no layer is armed, still catches a
 * poisoned image frame.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <utility>

#include "faas/function.hh"
#include "faas/workloads.hh"
#include "proto/messages.hh"
#include "rfork/criu.hh"
#include "rfork/cxlfork.hh"
#include "rfork/mechanism.hh"
#include "sim/error.hh"
#include "test_util.hh"

namespace cxlfork::os {

NodeWorkCounts
operator-(const NodeWorkCounts &a, const NodeWorkCounts &b)
{
    NodeWorkCounts d;
    d.os.ptWalksRoot = a.os.ptWalksRoot - b.os.ptWalksRoot;
    d.os.ptWalksCached = a.os.ptWalksCached - b.os.ptWalksCached;
    d.os.vmaDescents = a.os.vmaDescents - b.os.vmaDescents;
    d.os.vmaCursorHits = a.os.vmaCursorHits - b.os.vmaCursorHits;
    d.os.criuPagesDecoded = a.os.criuPagesDecoded - b.os.criuPagesDecoded;
    for (size_t t = 0; t < d.framesAllocated.size(); ++t) {
        d.framesAllocated[t] = a.framesAllocated[t] - b.framesAllocated[t];
        d.framesFreed[t] = a.framesFreed[t] - b.framesFreed[t];
    }
    return d;
}

/** One phase's counts in the pins' brace-list form. */
void
PrintTo(const NodeWorkCounts &c, std::ostream *os)
{
    *os << "{{" << c.os.ptWalksRoot << ", " << c.os.ptWalksCached << ", "
        << c.os.vmaDescents << ", " << c.os.vmaCursorHits << ", "
        << c.os.criuPagesDecoded << "}, {" << c.framesAllocated[0] << ", "
        << c.framesAllocated[1] << "}, {" << c.framesFreed[0] << ", "
        << c.framesFreed[1] << "}}";
}

} // namespace cxlfork::os

namespace cxlfork::rfork {
namespace {

using os::NodeWorkCounts;

/** Counts of the three phases on the target node. */
struct PhaseCounts
{
    NodeWorkCounts restore;
    NodeWorkCounts invoke;
    NodeWorkCounts destroy;
};

struct Case
{
    const char *label;
    MechanismKind kind;
    os::TieringPolicy policy;
    PhaseCounts want;
};

void
PrintTo(const Case &c, std::ostream *os)
{
    *os << c.label;
}

/**
 * Deploy Float on node 0 (cold start plus one warm invocation), take
 * the mechanism's checkpoint, then restore, invoke and destroy on the
 * target: node 1, or node 0 for LocalFork, whose "restore" is a fork
 * of the live parent.
 */
PhaseCounts
runPhases(MechanismKind kind, os::TieringPolicy policy)
{
    test::World world(test::smallConfig());
    const faas::FunctionSpec spec = faas::findWorkload("Float").value();
    os::NodeOs &home = world.node(0);
    auto parent = faas::FunctionInstance::deployCold(home, spec);
    parent->invoke();

    auto mech = makeMechanism(kind, *world.fabric);
    auto handle = mech->checkpoint(home, parent->task());
    os::NodeOs &target =
        kind == MechanismKind::LocalFork ? home : world.node(1);

    PhaseCounts out;
    RestoreOptions opts;
    opts.policy = policy;
    NodeWorkCounts before = target.workCounts();
    auto task = mech->restore(handle, target, opts);
    out.restore = target.workCounts() - before;

    auto child = faas::FunctionInstance::adoptRestored(target, spec, task);
    task.reset();
    before = target.workCounts();
    child->invoke();
    out.invoke = target.workCounts() - before;

    before = target.workCounts();
    child->destroy();
    out.destroy = target.workCounts() - before;
    return out;
}

class RestoreWork : public ::testing::TestWithParam<Case>
{
};

TEST_P(RestoreWork, CountsPinned)
{
    const Case &c = GetParam();
    const PhaseCounts got = runPhases(c.kind, c.policy);
    EXPECT_EQ(got.restore, c.want.restore) << c.label << " restore";
    EXPECT_EQ(got.invoke, c.want.invoke) << c.label << " invoke";
    EXPECT_EQ(got.destroy, c.want.destroy) << c.label << " destroy";
}

using os::TieringPolicy;

// Each pin is {{root walks, cached walks, VMA descents, VMA cursor
// hits, CRIU pages decoded}, {frames allocated: DRAM, CXL}, {frames
// freed: DRAM, CXL}} for the target node.
INSTANTIATE_TEST_SUITE_P(
    Mechanisms, RestoreWork,
    ::testing::Values(
        Case{"CriuCxl", MechanismKind::CriuCxl, TieringPolicy::MigrateOnWrite,
             {{{132, 0, 120, 0, 6147}, {6282, 0}, {0, 0}},
              {{26, 966, 0, 0, 0}, {0, 0}, {0, 0}},
              {{0, 0, 0, 0, 0}, {0, 0}, {6282, 0}}}},
        Case{"MitosisCxl", MechanismKind::MitosisCxl,
             TieringPolicy::MigrateOnWrite,
             {{{0, 0, 0, 0, 0}, {1, 0}, {0, 0}},
              {{27, 1957, 25, 967, 0}, {1020, 0}, {0, 0}},
              {{0, 0, 0, 0, 0}, {0, 0}, {1021, 0}}}},
        Case{"CxlForkMoW", MechanismKind::CxlFork,
             TieringPolicy::MigrateOnWrite,
             {{{188, 3694, 0, 0, 0}, {3809, 0}, {0, 0}},
              {{26, 966, 0, 0, 0}, {0, 0}, {0, 0}},
              {{0, 0, 0, 0, 0}, {0, 0}, {3809, 0}}}},
        Case{"CxlForkHybrid", MechanismKind::CxlFork, TieringPolicy::Hybrid,
             {{{0, 0, 0, 0, 0}, {1, 0}, {0, 0}},
              {{27, 1957, 50, 942, 0}, {1020, 0}, {0, 0}},
              {{0, 0, 0, 0, 0}, {0, 0}, {1021, 0}}}},
        Case{"LocalFork", MechanismKind::LocalFork,
             TieringPolicy::MigrateOnWrite,
             {{{132, 6015, 0, 0, 0}, {135, 0}, {0, 0}},
              {{26, 1274, 6, 302, 0}, {308, 0}, {0, 0}},
              {{0, 0, 0, 0, 0}, {0, 0}, {443, 0}}}}),
    [](const ::testing::TestParamInfo<Case> &info) {
        return std::string(info.param.label);
    });

/** Page-table walks, from the root and from the walk cache. */
uint64_t
walks(const os::NodeOs &node)
{
    const os::WorkCounters &w = const_cast<os::NodeOs &>(node).work();
    return w.ptWalksRoot + w.ptWalksCached;
}

/**
 * A 64-page anonymous task on node 0, every page written, checkpointed
 * by CXLfork, with a restore of it on node 1 under `policy`.
 */
struct RestoredHeap
{
    static constexpr uint64_t kPages = 64;

    explicit RestoredHeap(os::TieringPolicy policy, bool resetAccessed)
        : world(test::smallConfig()), cxlf(*world.fabric)
    {
        os::NodeOs &home = world.node(0);
        parent = home.createTask("fn");
        heap = home.mapAnon(*parent, kPages * mem::kPageSize,
                            os::kVmaRead | os::kVmaWrite, "h")
                   .start;
        for (uint64_t i = 0; i < kPages; ++i)
            home.write(*parent, page(i), 100 + i);
        auto handle = cxlf.checkpoint(home, *parent);
        if (resetAccessed)
            CxlFork::image(handle)->resetAccessedBits();
        RestoreOptions opts;
        opts.policy = policy;
        child = cxlf.restore(handle, world.node(1), opts);
    }

    mem::VirtAddr page(uint64_t i) const
    {
        return heap.plus(i * mem::kPageSize);
    }

    test::World world;
    CxlFork cxlf;
    std::shared_ptr<os::Task> parent;
    mem::VirtAddr heap{0};
    std::shared_ptr<os::Task> child;
};

/**
 * Fault every page of [start, start + pages) once and check that each
 * fault was `kind`, took exactly two page-table walks (one to find the
 * translation on the access, one to store the new one) and left the
 * hardware A/D bits of the access in the PTE it installed.
 */
void
expectTwoWalksPerFault(os::NodeOs &node, os::Task &task, mem::VirtAddr start,
                       uint64_t pages, bool isWrite, os::FaultKind kind)
{
    for (uint64_t i = 0; i < pages; ++i) {
        const mem::VirtAddr va = start.plus(i * mem::kPageSize);
        const uint64_t before = walks(node);
        const os::AccessResult r = node.access(task, va, isWrite, 7);
        ASSERT_EQ(r.fault, kind) << "page " << i;
        EXPECT_EQ(walks(node) - before, 2u)
            << os::faultKindName(kind) << " page " << i;
        const os::Pte pte = task.mm().pageTable().lookup(va);
        EXPECT_TRUE(pte.accessed()) << "page " << i;
        EXPECT_EQ(pte.dirty(), isWrite) << "page " << i;
    }
}

TEST(FaultWalks, MinorFaultsWalkTwice)
{
    for (bool isWrite : {false, true}) {
        test::World world(test::smallConfig());
        os::NodeOs &node = world.node(0);
        auto task = node.createTask("t");
        const os::Vma &vma = node.mapAnon(*task, 1024 * mem::kPageSize,
                                          os::kVmaRead | os::kVmaWrite, "h");
        expectTwoWalksPerFault(node, *task, vma.start, 1024, isWrite,
                               os::FaultKind::Minor);
    }
}

TEST(FaultWalks, MajorFaultsWalkTwice)
{
    test::World world(test::smallConfig());
    world.vfs->create("/lib/x.so", 1024 * mem::kPageSize, 42);
    os::NodeOs &node = world.node(0);
    auto task = node.createTask("t");
    const os::Vma &vma =
        node.mapFilePrivate(*task, "/lib/x.so", os::kVmaRead | os::kVmaExec);
    expectTwoWalksPerFault(node, *task, vma.start, 1024, false,
                           os::FaultKind::Major);
}

TEST(FaultWalks, CheckpointMigrationsWalkTwice)
{
    for (bool isWrite : {false, true}) {
        RestoredHeap r(os::TieringPolicy::MigrateOnAccess, false);
        expectTwoWalksPerFault(r.world.node(1), *r.child, r.heap,
                               RestoredHeap::kPages, isWrite,
                               os::FaultKind::CxlMigrate);
    }
}

TEST(FaultWalks, MapThroughsWalkTwice)
{
    // Hybrid maps a page in place when its checkpoint A bit is clear.
    RestoredHeap r(os::TieringPolicy::Hybrid, true);
    expectTwoWalksPerFault(r.world.node(1), *r.child, r.heap,
                           RestoredHeap::kPages, false,
                           os::FaultKind::CxlMapThrough);
}

/** How the page section of a CRIU image is forged. */
enum class Forgery
{
    CountPlusOne,    ///< One more page than the records that follow.
    HugeCount,       ///< A count no buffer could hold.
    LastRecordCut,   ///< The final record's last byte is missing.
    PageOutsideVmas, ///< The final page moved past every VMA.
    PagesOutOfOrder, ///< The first two pages swapped.
};

/**
 * Decode an image, let `edit(pages, count, header)` change its page
 * records and the page count written before them, and encode it again
 * with the same header.
 */
template <typename Edit>
std::vector<uint8_t>
reencodePages(const std::vector<uint8_t> &data, Edit &&edit)
{
    proto::Decoder d(data);
    const proto::CriuImageMsg img = proto::CriuImageMsg::decodeHeader(d);
    std::vector<proto::PageMsg> pages(proto::decodePageCount(d));
    for (proto::PageMsg &p : pages)
        p = proto::PageMsg::decode(d);
    uint64_t count = pages.size();
    edit(pages, count, img);
    proto::Encoder e;
    img.global.encode(e);
    img.cpu.encode(e);
    e.putU64(img.vmas.size());
    for (const proto::VmaMsg &v : img.vmas)
        v.encode(e);
    e.putU64(count);
    for (const proto::PageMsg &p : pages)
        p.encode(e);
    return e.take();
}

/**
 * Re-encode an image with the page section forged as asked. The caller
 * rewrites the image file with it, so its sealed CRC matches and only
 * the decoder can reject it.
 */
std::vector<uint8_t>
forgePages(const std::vector<uint8_t> &data, Forgery how)
{
    std::vector<uint8_t> out = reencodePages(
        data, [how](std::vector<proto::PageMsg> &pages, uint64_t &count,
                    const proto::CriuImageMsg &img) {
            switch (how) {
              case Forgery::CountPlusOne:
                count += 1;
                break;
              case Forgery::HugeCount:
                count = 1ull << 62;
                break;
              case Forgery::LastRecordCut:
                break;
              case Forgery::PageOutsideVmas: {
                uint64_t end = 0;
                for (const proto::VmaMsg &v : img.vmas)
                    end = std::max(end, v.end);
                pages.back().vpn = end / mem::kPageSize + 16;
                break;
              }
              case Forgery::PagesOutOfOrder:
                std::swap(pages[0], pages[1]);
                break;
            }
        });
    if (how == Forgery::LastRecordCut)
        out.pop_back();
    return out;
}

class CriuPageSection : public ::testing::TestWithParam<Forgery>
{
};

/**
 * A 64-page task on node 0 of a two-node world, page i holding token
 * 100 + i, CRIU-checkpointed.
 */
struct CriuImage
{
    CriuImage() : world(test::smallConfig()), criu(*world.fabric)
    {
        os::NodeOs &home = world.node(0);
        auto parent = home.createTask("fn");
        heap = home.mapAnon(*parent, 64 * mem::kPageSize,
                            os::kVmaRead | os::kVmaWrite, "h")
                   .start;
        for (uint64_t i = 0; i < 64; ++i)
            home.write(*parent, heap.plus(i * mem::kPageSize), 100 + i);
        handle = criu.checkpoint(home, *parent);
        h = std::dynamic_pointer_cast<CriuHandle>(handle);
    }

    /** Replace the image file's bytes, as a new write of it would. */
    void
    rewrite(std::vector<uint8_t> bytes)
    {
        cxl::SharedFs &fs = world.fabric->sharedFs();
        const uint64_t simBytes = fs.open(h->fileName())->simulatedBytes;
        os::NodeOs &home = world.node(0);
        fs.write(h->fileName(), std::move(bytes), simBytes, home.clock(),
                 home.id());
        ASSERT_TRUE(fs.verify(h->fileName()));
    }

    const std::vector<uint8_t> &
    bytes()
    {
        return world.fabric->sharedFs().open(h->fileName())->data;
    }

    /** Restore onto node 1 and tear the child down again. */
    void
    restoreAndDrop()
    {
        os::NodeOs &target = world.node(1);
        target.exitTask(criu.restore(handle, target));
    }

    test::World world;
    CriuCxl criu;
    mem::VirtAddr heap{0};
    std::shared_ptr<CheckpointHandle> handle;
    std::shared_ptr<CriuHandle> h;
};

/**
 * The restore must throw `Error` before it creates a task: no task was
 * made (or left behind), so the failure counter, which counts tasks
 * torn down, and the target's clock did not move either.
 */
template <typename Error>
void
expectFailsBeforeTheTask(CriuImage &img)
{
    os::NodeOs &target = img.world.node(1);
    const sim::Counter &failed =
        img.world.machine->metrics().counter("rfork.criu.restore_failed");
    const uint64_t failedBefore = failed.value();
    const size_t tasksBefore = target.taskCount();
    const sim::SimTime clockBefore = target.clock().now();
    EXPECT_THROW(img.criu.restore(img.handle, target), Error);
    EXPECT_EQ(target.taskCount(), tasksBefore);
    EXPECT_EQ(failed.value(), failedBefore);
    EXPECT_EQ(target.clock().now(), clockBefore);
}

TEST_P(CriuPageSection, ForgedSectionFailsBeforeTheTask)
{
    CriuImage img;
    ASSERT_NE(img.h, nullptr);
    img.rewrite(forgePages(img.bytes(), GetParam()));
    expectFailsBeforeTheTask<sim::FatalError>(img);
}

INSTANTIATE_TEST_SUITE_P(Forgeries, CriuPageSection,
                         ::testing::Values(Forgery::CountPlusOne,
                                           Forgery::HugeCount,
                                           Forgery::LastRecordCut,
                                           Forgery::PageOutsideVmas,
                                           Forgery::PagesOutOfOrder));

// The handle keeps its decoded image across restores, keyed to the
// file's generation: each case restores once, so the handle holds the
// decoded image, then changes the file's bytes.

TEST(CriuDecodeCache, AForgedRewriteFailsBeforeTheTask)
{
    CriuImage img;
    img.restoreAndDrop();
    img.rewrite(forgePages(img.bytes(), Forgery::CountPlusOne));
    expectFailsBeforeTheTask<sim::FatalError>(img);
}

TEST(CriuDecodeCache, AFlippedBitFailsTheCrc)
{
    CriuImage img;
    img.restoreAndDrop();
    img.world.fabric->sharedFs().corruptBit(img.h->fileName(), 77);
    expectFailsBeforeTheTask<sim::CorruptImageError>(img);
}

TEST(CriuDecodeCache, AValidRewriteRestoresItsTokens)
{
    CriuImage img;
    img.restoreAndDrop();
    img.rewrite(reencodePages(
        img.bytes(), [](std::vector<proto::PageMsg> &pages, uint64_t &,
                        const proto::CriuImageMsg &) {
            for (proto::PageMsg &p : pages)
                p.content += 1000;
        }));
    os::NodeOs &target = img.world.node(1);
    auto child = img.criu.restore(img.handle, target);
    for (uint64_t i = 0; i < 64; ++i) {
        EXPECT_EQ(target.read(*child, img.heap.plus(i * mem::kPageSize)),
                  1100 + i)
            << "page " << i;
    }
}

TEST(CriuImageScan, PoisonedImageFrameStillFailsTheRestore)
{
    // With every layer off the image scan is skipped, unless a device
    // frame is poisoned: then a poisoned image frame still fails the
    // restore with the typed error, before any task exists.
    CriuImage img;
    ASSERT_NE(img.h, nullptr);
    os::NodeOs &target = img.world.node(1);
    mem::FrameAllocator &cxl = img.world.machine->cxl();
    const cxl::CxlFsFile *file =
        img.world.fabric->sharedFs().open(img.h->fileName());
    ASSERT_NE(file, nullptr);
    cxl.poison(file->frames.back());
    EXPECT_THROW(img.criu.restore(img.handle, target),
                 sim::PoisonedFrameError);
    EXPECT_EQ(target.taskCount(), 0u);
    cxl.clearPoison(file->frames.back());
    EXPECT_NE(img.criu.restore(img.handle, target), nullptr);
}

TEST(CriuImageScan, AFreedDeviceFrameEndsTheLivenessProof)
{
    // The skipped scan's allocated-frame assertion stands on this: no
    // device frame freed since the image was written.
    CriuImage img;
    ASSERT_NE(img.h, nullptr);
    mem::FrameAllocator &cxl = img.world.machine->cxl();
    EXPECT_TRUE(img.h->framesSurelyLive(cxl));
    cxl.decRef(cxl.alloc(mem::FrameUse::Data));
    EXPECT_FALSE(img.h->framesSurelyLive(cxl));
    // The restore then scans, and its assertions hold.
    EXPECT_NE(img.criu.restore(img.handle, img.world.node(1)), nullptr);
}

} // namespace
} // namespace cxlfork::rfork
