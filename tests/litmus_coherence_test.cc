/**
 * @file
 * Litmus-test correctness suite for the fabric coherence directory.
 *
 * Classic shared-memory litmus shapes (message passing, store
 * buffering, load buffering, IRIW) plus the CXLfork-specific hazards
 * (CoW-after-attach, shootdown-before-reuse, cross-node checkpoint
 * publish/subscribe), each run against the MESI home-agent directory:
 *
 *  - Under HDM-H every test must pass: reads are never stale, and the
 *    directory's state walk + cost counters match the MESI protocol.
 *  - Under HDM-D the tests pass only when the required flush /
 *    invalidate pairs are issued, and the in-suite negative controls
 *    prove it: with the flush elided (CoherenceConfig::elideFlushes)
 *    or the free-time line reset skipped (elideResetOnFree), the same
 *    sequences *observably* return stale tokens. An oracle that cannot
 *    fail proves nothing.
 *
 * The unit tests drive a bare Machine + stack directory with per-node
 * clocks; the cluster tests run the real CXLfork checkpoint/restore
 * paths through porter::Cluster with the directory armed.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string_view>

#include "cxl/coherence.hh"
#include "cxl/fabric_queue.hh"
#include "mem/machine.hh"
#include "porter/cluster.hh"
#include "rfork/cxlfork.hh"
#include "sim/clock.hh"
#include "sim/log.hh"

namespace cxlfork::cxl {

struct CoherenceDirectoryTestAccess
{
    /** Empty an Exclusive line's sharer set: an audit violation. */
    static void
    dropAllSharers(CoherenceDirectory &dir, mem::PhysAddr a)
    {
        dir.lines_.at(dir.lineIndexOf(a)).sharers = 0;
    }

    /** Give node n an HDM-D cached token the line's mask lacks. */
    static void
    plantStrayToken(CoherenceDirectory &dir, mem::PhysAddr a, mem::NodeId n)
    {
        dir.tokens_[CoherenceDirectory::tokenKey(
            dir.lineIndexOf(a), n, CoherenceDirectory::TokenKind::Cached)] = 1;
    }

    /** Drop node n's pending token but keep its pendingMask bit. */
    static void
    dropPendingToken(CoherenceDirectory &dir, mem::PhysAddr a, mem::NodeId n)
    {
        dir.tokens_.erase(CoherenceDirectory::tokenKey(
            dir.lineIndexOf(a), n, CoherenceDirectory::TokenKind::Pending));
    }
};

namespace {

using mem::kPageSize;
using mem::NodeId;
using mem::PhysAddr;

constexpr uint64_t kOld = 0x0ddba11;
constexpr uint64_t kNew = 0xdecafbad;

/** A bare machine with a stack directory and one clock per node. */
struct LitmusWorld
{
    explicit LitmusWorld(CoherenceConfig cfg, uint32_t nodes = 4)
        : machine(machineConfig(nodes)), dir(machine, cfg), clocks(nodes)
    {}

    static mem::MachineConfig
    machineConfig(uint32_t nodes)
    {
        mem::MachineConfig mc;
        mc.numNodes = nodes;
        mc.dramPerNodeBytes = mem::mib(64);
        mc.cxlCapacityBytes = mem::mib(64);
        mc.llcBytes = mem::mib(1);
        return mc;
    }

    /** Allocate one device line holding `content`. */
    PhysAddr
    line(uint64_t content)
    {
        return machine.cxl().alloc(mem::FrameUse::Data, content);
    }

    uint64_t
    ld(PhysAddr a, NodeId n)
    {
        return machine.readFrame(a, n, clocks.at(n), "litmus");
    }

    void
    st(PhysAddr a, NodeId n, uint64_t v)
    {
        machine.writeFrame(a, n, v, clocks.at(n));
    }

    void flush(PhysAddr a, NodeId n) { machine.flushFrame(a, n, clocks.at(n)); }
    void inval(PhysAddr a, NodeId n)
    {
        machine.invalidateFrame(a, n, clocks.at(n));
    }
    void evict(PhysAddr a, NodeId n) { machine.evictFrame(a, n, clocks.at(n)); }

    uint64_t
    ctr(const char *name) const
    {
        return machine.metrics().counterValue(name);
    }

    void
    expectClean() const
    {
        auto bad = dir.auditInvariants();
        EXPECT_FALSE(bad.has_value()) << *bad;
    }

    mem::Machine machine;
    CoherenceDirectory dir;
    std::vector<sim::SimClock> clocks;
};

CoherenceConfig
cfgOf(CoherenceMode m, bool elideFlushes = false, bool elideReset = false)
{
    CoherenceConfig c;
    c.mode = m;
    c.elideFlushes = elideFlushes;
    c.elideResetOnFree = elideReset;
    return c;
}

// ---------------------------------------------------------------------
// HDM-H: hardware coherence. Reads are never stale; the interesting
// assertions are the MESI state walk and the charged protocol traffic.
// ---------------------------------------------------------------------

TEST(LitmusHdmH, MessagePassing)
{
    LitmusWorld w(cfgOf(CoherenceMode::HdmH));
    const PhysAddr data = w.line(0), flag = w.line(0);
    w.st(data, 0, kNew);
    w.st(flag, 0, 1);
    ASSERT_EQ(w.ld(flag, 1), 1u);
    EXPECT_EQ(w.ld(data, 1), kNew);
    EXPECT_EQ(w.ctr("cxl.coherence.stale_reads"), 0u);
    w.expectClean();
}

TEST(LitmusHdmH, StoreBuffering)
{
    // SB: both nodes store their own line then load the other's. Under
    // hardware coherence the forbidden r0 == r1 == 0 outcome is
    // impossible in any serialization the simulator can express.
    LitmusWorld w(cfgOf(CoherenceMode::HdmH));
    const PhysAddr x = w.line(0), y = w.line(0);
    w.st(x, 0, 1);
    w.st(y, 1, 1);
    EXPECT_EQ(w.ld(y, 0), 1u);
    EXPECT_EQ(w.ld(x, 1), 1u);
    w.expectClean();
}

TEST(LitmusHdmH, LoadBuffering)
{
    // LB: each node loads the other's line then stores its own. The
    // loads precede the stores in program order, so both must return
    // the initial token — a "load from the future" cannot happen.
    LitmusWorld w(cfgOf(CoherenceMode::HdmH));
    const PhysAddr x = w.line(kOld), y = w.line(kOld);
    EXPECT_EQ(w.ld(x, 0), kOld);
    EXPECT_EQ(w.ld(y, 1), kOld);
    w.st(y, 0, kNew);
    w.st(x, 1, kNew);
    EXPECT_EQ(w.ld(x, 2), kNew);
    EXPECT_EQ(w.ld(y, 2), kNew);
    w.expectClean();
}

TEST(LitmusHdmH, Iriw)
{
    // IRIW: writers on nodes 0/1, readers on nodes 2/3. Both readers
    // observe the same global order because every read resolves at the
    // home agent.
    LitmusWorld w(cfgOf(CoherenceMode::HdmH));
    const PhysAddr x = w.line(0), y = w.line(0);
    w.st(x, 0, 1);
    const uint64_t r2x = w.ld(x, 2), r2y = w.ld(y, 2);
    w.st(y, 1, 1);
    const uint64_t r3y = w.ld(y, 3), r3x = w.ld(x, 3);
    EXPECT_EQ(r2x, 1u);
    EXPECT_EQ(r2y, 0u);
    EXPECT_EQ(r3y, 1u);
    EXPECT_EQ(r3x, 1u); // reader 3 runs last: must see both stores
    w.expectClean();
}

TEST(LitmusHdmH, StateLifecycle)
{
    LitmusWorld w(cfgOf(CoherenceMode::HdmH));
    const PhysAddr a = w.line(kOld);
    EXPECT_EQ(w.dir.lineInfo(a).state, MesiState::Invalid);

    w.ld(a, 0); // first reader: I -> E
    LineInfo i = w.dir.lineInfo(a);
    EXPECT_EQ(i.state, MesiState::Exclusive);
    EXPECT_EQ(i.owner, 0);

    w.ld(a, 1); // second reader: E -> S
    i = w.dir.lineInfo(a);
    EXPECT_EQ(i.state, MesiState::Shared);
    EXPECT_EQ(i.sharerCount(), 2u);

    w.st(a, 0, kNew); // writer: S -> M, sole sharer
    i = w.dir.lineInfo(a);
    EXPECT_EQ(i.state, MesiState::Modified);
    EXPECT_EQ(i.owner, 0);
    EXPECT_EQ(i.sharerCount(), 1u);
    w.expectClean();
}

TEST(LitmusHdmH, RemoteReadOfModifiedWritesBack)
{
    LitmusWorld w(cfgOf(CoherenceMode::HdmH));
    const PhysAddr a = w.line(kOld);
    w.st(a, 0, kNew);
    ASSERT_EQ(w.ctr("cxl.coherence.writebacks"), 0u);
    EXPECT_EQ(w.ld(a, 1), kNew);
    EXPECT_EQ(w.ctr("cxl.coherence.writebacks"), 1u);
    const LineInfo i = w.dir.lineInfo(a);
    EXPECT_EQ(i.state, MesiState::Shared);
    EXPECT_TRUE(i.hasSharer(0));
    EXPECT_TRUE(i.hasSharer(1));
    w.expectClean();
}

TEST(LitmusHdmH, WriteBackInvalidatesEverySharer)
{
    LitmusWorld w(cfgOf(CoherenceMode::HdmH));
    const PhysAddr a = w.line(kOld);
    w.ld(a, 0);
    w.ld(a, 1);
    w.ld(a, 2);
    ASSERT_EQ(w.dir.lineInfo(a).sharerCount(), 3u);
    const sim::SimTime before = w.clocks[3].now();
    w.st(a, 3, kNew);
    EXPECT_EQ(w.ctr("cxl.coherence.invalidations"), 3u);
    EXPECT_GT((w.clocks[3].now() - before).toNs(),
              w.machine.costs().cohBackInvalidate.toNs() * 2.0)
        << "three back-invalidations must be charged to the writer";
    const LineInfo i = w.dir.lineInfo(a);
    EXPECT_EQ(i.state, MesiState::Modified);
    EXPECT_EQ(i.owner, 3);
    EXPECT_EQ(i.sharerCount(), 1u);
    w.expectClean();
}

TEST(LitmusHdmH, OwnWriteUpgradeChargesNoInvalidation)
{
    LitmusWorld w(cfgOf(CoherenceMode::HdmH));
    const PhysAddr a = w.line(kOld);
    w.st(a, 0, kNew);
    w.st(a, 0, kNew + 1); // M -> M in place: nobody else to invalidate
    EXPECT_EQ(w.ctr("cxl.coherence.invalidations"), 0u);
    EXPECT_EQ(w.ld(a, 0), kNew + 1);
    w.expectClean();
}

TEST(LitmusHdmH, EvictDirtyLineWritesBack)
{
    LitmusWorld w(cfgOf(CoherenceMode::HdmH));
    const PhysAddr a = w.line(kOld);
    w.st(a, 0, kNew);
    w.evict(a, 0);
    EXPECT_EQ(w.ctr("cxl.coherence.writebacks"), 1u);
    EXPECT_EQ(w.dir.lineInfo(a).state, MesiState::Invalid);
    EXPECT_EQ(w.ld(a, 1), kNew); // the data survived the eviction
    w.expectClean();
}

TEST(LitmusHdmH, EvictOneSharerLeavesTheOtherExclusive)
{
    LitmusWorld w(cfgOf(CoherenceMode::HdmH));
    const PhysAddr a = w.line(kOld);
    w.ld(a, 0);
    w.ld(a, 1);
    w.evict(a, 0);
    const LineInfo i = w.dir.lineInfo(a);
    EXPECT_EQ(i.state, MesiState::Exclusive);
    EXPECT_EQ(i.owner, 1);
    w.expectClean();
}

TEST(LitmusHdmH, FlushLeavesLineExclusiveClean)
{
    LitmusWorld w(cfgOf(CoherenceMode::HdmH));
    const PhysAddr a = w.line(kOld);
    w.st(a, 0, kNew);
    w.flush(a, 0);
    EXPECT_EQ(w.ctr("cxl.coherence.writebacks"), 1u);
    const LineInfo i = w.dir.lineInfo(a);
    EXPECT_EQ(i.state, MesiState::Exclusive);
    EXPECT_EQ(i.owner, 0);
    // A later remote read of the clean line needs no second writeback.
    EXPECT_EQ(w.ld(a, 1), kNew);
    EXPECT_EQ(w.ctr("cxl.coherence.writebacks"), 1u);
    w.expectClean();
}

TEST(LitmusHdmH, ShootdownBeforeReuse)
{
    // Free a line two nodes were sharing, then reallocate it for a new
    // tenant: the directory line must have been reset, so the new
    // tenant starts from Invalid and old sharers are gone.
    LitmusWorld w(cfgOf(CoherenceMode::HdmH));
    const PhysAddr a = w.line(kOld);
    w.ld(a, 0);
    w.ld(a, 1);
    w.machine.putFrame(a); // refcount 1 -> 0: freed, line reset
    EXPECT_EQ(w.ctr("cxl.coherence.line_resets"), 1u);

    const PhysAddr b = w.line(kNew);
    ASSERT_EQ(b.raw, a.raw) << "free list must reuse the freed frame";
    EXPECT_EQ(w.dir.lineInfo(b).state, MesiState::Invalid);
    EXPECT_EQ(w.ld(b, 2), kNew);
    EXPECT_EQ(w.dir.lineInfo(b).state, MesiState::Exclusive);
    EXPECT_EQ(w.ctr("cxl.coherence.stale_reads"), 0u);
    w.expectClean();
}

TEST(LitmusHdmH, NeverStaleUnderMixedTraffic)
{
    // A deterministic storm over 4 lines x 4 nodes: under hardware
    // coherence every read must return the device token, every step.
    LitmusWorld w(cfgOf(CoherenceMode::HdmH));
    std::array<PhysAddr, 4> lines = {w.line(0), w.line(0), w.line(0),
                                     w.line(0)};
    std::array<uint64_t, 4> truth = {0, 0, 0, 0};
    for (uint32_t step = 0; step < 200; ++step) {
        const uint32_t l = step % 4;
        const NodeId n = NodeId((step * 7) % 4);
        switch (step % 5) {
          case 0:
          case 1:
            truth[l] = 0x1000 + step;
            w.st(lines[l], n, truth[l]);
            break;
          case 2:
            w.flush(lines[l], n);
            break;
          case 3:
            w.evict(lines[l], n);
            break;
          default:
            break;
        }
        ASSERT_EQ(w.ld(lines[l], NodeId((n + 1) % 4)), truth[l])
            << "step " << step;
        auto bad = w.dir.auditInvariants();
        ASSERT_FALSE(bad.has_value()) << "step " << step << ": " << *bad;
    }
    EXPECT_EQ(w.ctr("cxl.coherence.stale_reads"), 0u);
}

TEST(LitmusHdmH, CoherenceTaxIsCharged)
{
    LitmusWorld w(cfgOf(CoherenceMode::HdmH));
    const PhysAddr a = w.line(kOld);
    w.ld(a, 0);
    w.st(a, 1, kNew);
    EXPECT_GT(w.ctr("cxl.coherence.lookups"), 0u);
    EXPECT_GT(w.ctr("cxl.coherence.tax_ns"), 0u);
    EXPECT_GT(w.clocks[1].now().toNs(), 0.0);
}

// ---------------------------------------------------------------------
// HDM-D: software coherence. The same shapes now *require* the
// flush/invalidate protocol — and the negative controls prove the
// suite can see the bug when the protocol is skipped.
// ---------------------------------------------------------------------

TEST(LitmusHdmD, MessagePassingWithFlushAndInvalidate)
{
    LitmusWorld w(cfgOf(CoherenceMode::HdmD));
    const PhysAddr data = w.line(0), flag = w.line(0);
    // Writer: store both, then flush both (data before flag, as a real
    // publication protocol would).
    w.st(data, 0, kNew);
    w.st(flag, 0, 1);
    w.flush(data, 0);
    w.flush(flag, 0);
    // Reader: invalidate before reading — the full protocol.
    w.inval(flag, 1);
    ASSERT_EQ(w.ld(flag, 1), 1u);
    w.inval(data, 1);
    EXPECT_EQ(w.ld(data, 1), kNew);
    EXPECT_EQ(w.ctr("cxl.coherence.stale_reads"), 0u);
    w.expectClean();
}

TEST(LitmusHdmD, NegativeControl_ElidedFlushReadsStale)
{
    // Same MP sequence, flushes elided: the reader must observably see
    // the stale initial tokens. If this test ever starts seeing kNew,
    // the oracle has lost its teeth.
    LitmusWorld w(cfgOf(CoherenceMode::HdmD, /*elideFlushes=*/true));
    const PhysAddr data = w.line(0), flag = w.line(0);
    w.st(data, 0, kNew);
    w.st(flag, 0, 1);
    w.flush(data, 0); // no-ops under the control knob
    w.flush(flag, 0);
    w.inval(flag, 1);
    w.inval(data, 1);
    EXPECT_EQ(w.ld(flag, 1), 0u) << "elided flush must leave flag stale";
    EXPECT_EQ(w.ld(data, 1), 0u) << "elided flush must leave data stale";
    EXPECT_GE(w.ctr("cxl.coherence.stale_reads"), 2u);
    EXPECT_EQ(w.ctr("cxl.coherence.flushes"), 0u);
}

TEST(LitmusHdmD, NegativeControl_MissingInvalidateReadsStale)
{
    // The writer does everything right; the reader skips its
    // invalidate and keeps serving the token it cached earlier.
    LitmusWorld w(cfgOf(CoherenceMode::HdmD));
    const PhysAddr data = w.line(kOld);
    ASSERT_EQ(w.ld(data, 1), kOld); // reader caches the old token
    w.st(data, 0, kNew);
    w.flush(data, 0);
    EXPECT_EQ(w.ld(data, 1), kOld)
        << "without an invalidate the reader must keep its stale copy";
    EXPECT_GE(w.ctr("cxl.coherence.stale_reads"), 1u);
    // The fix: invalidate, then the next read refetches.
    w.inval(data, 1);
    EXPECT_EQ(w.ld(data, 1), kNew);
    w.expectClean();
}

TEST(LitmusHdmD, StoreForwardingToOwnPendingStore)
{
    LitmusWorld w(cfgOf(CoherenceMode::HdmD));
    const PhysAddr a = w.line(kOld);
    w.st(a, 0, kNew);
    EXPECT_EQ(w.ld(a, 0), kNew)
        << "a writer observes its own unflushed store";
    EXPECT_EQ(w.ld(a, 1), kOld)
        << "a remote reader does not, until the flush";
    EXPECT_TRUE(w.dir.lineInfo(a).pendingStore);
    w.expectClean();
}

TEST(LitmusHdmD, StoreBufferingOutcomeIsObservable)
{
    // SB with no flushes: both nodes read their own store but the
    // other's old value — the weak r0 == r1 == old outcome that
    // hardware coherence forbids is exactly what unflushed device
    // memory exhibits.
    LitmusWorld w(cfgOf(CoherenceMode::HdmD));
    const PhysAddr x = w.line(0), y = w.line(0);
    w.st(x, 0, 1);
    w.st(y, 1, 1);
    EXPECT_EQ(w.ld(y, 0), 0u);
    EXPECT_EQ(w.ld(x, 1), 0u);
    EXPECT_EQ(w.ld(x, 0), 1u); // own-store forwarding on both sides
    EXPECT_EQ(w.ld(y, 1), 1u);
    w.expectClean();
}

TEST(LitmusHdmD, IriwReadersDisagreeWithoutInvalidates)
{
    // IRIW: reader 2 caches x early; after both writers publish,
    // reader 3 (fresh) sees both stores while reader 2 still serves
    // its stale x — the readers disagree on the store order, which is
    // precisely the hazard software coherency permits.
    LitmusWorld w(cfgOf(CoherenceMode::HdmD));
    const PhysAddr x = w.line(0), y = w.line(0);
    ASSERT_EQ(w.ld(x, 2), 0u); // reader 2 pins stale x
    w.st(x, 0, 1);
    w.flush(x, 0);
    w.st(y, 1, 1);
    w.flush(y, 1);
    EXPECT_EQ(w.ld(x, 3), 1u);
    EXPECT_EQ(w.ld(y, 3), 1u);
    EXPECT_EQ(w.ld(y, 2), 1u); // fresh line: reader 2 sees the store
    EXPECT_EQ(w.ld(x, 2), 0u) << "but still serves its stale x copy";
    w.expectClean();
}

TEST(LitmusHdmD, FlushPublishesToFreshReaders)
{
    LitmusWorld w(cfgOf(CoherenceMode::HdmD));
    const PhysAddr a = w.line(kOld);
    w.st(a, 0, kNew);
    w.flush(a, 0);
    EXPECT_EQ(w.ld(a, 1), kNew)
        << "a reader with no prior cached copy sees the flushed store";
    EXPECT_EQ(w.ctr("cxl.coherence.stale_reads"), 0u);
    const LineInfo i = w.dir.lineInfo(a);
    EXPECT_FALSE(i.pendingStore);
    w.expectClean();
}

TEST(LitmusHdmD, FlushSurrendersDirtyOwnership)
{
    LitmusWorld w(cfgOf(CoherenceMode::HdmD));
    const PhysAddr a = w.line(kOld);
    w.st(a, 0, kNew);
    ASSERT_EQ(w.dir.lineInfo(a).state, MesiState::Modified);
    w.flush(a, 0);
    const LineInfo i = w.dir.lineInfo(a);
    EXPECT_NE(i.state, MesiState::Modified);
    EXPECT_FALSE(i.pendingStore);
    w.expectClean();
}

TEST(LitmusHdmD, StaleReadsAreCounted)
{
    LitmusWorld w(cfgOf(CoherenceMode::HdmD));
    const PhysAddr a = w.line(kOld);
    ASSERT_EQ(w.ld(a, 1), kOld);
    w.st(a, 0, kNew);
    w.flush(a, 0);
    const uint64_t before = w.ctr("cxl.coherence.stale_reads");
    w.ld(a, 1); // stale (cached copy, no invalidate)
    w.ld(a, 1); // still stale, counted again
    EXPECT_EQ(w.ctr("cxl.coherence.stale_reads"), before + 2);
}

TEST(LitmusHdmD, ReuseAfterFreeIsClean)
{
    LitmusWorld w(cfgOf(CoherenceMode::HdmD));
    const PhysAddr a = w.line(kOld);
    ASSERT_EQ(w.ld(a, 1), kOld); // node 1 caches the first tenant
    w.machine.putFrame(a);
    const PhysAddr b = w.line(kNew);
    ASSERT_EQ(b.raw, a.raw);
    EXPECT_EQ(w.ld(b, 1), kNew)
        << "the free-time line reset dropped the first tenant's cache";
    EXPECT_EQ(w.ctr("cxl.coherence.stale_reads"), 0u);
    w.expectClean();
}

TEST(LitmusHdmD, NegativeControl_ElidedResetServesPreviousTenant)
{
    // Shootdown-before-reuse, broken on purpose: with the free-time
    // line reset elided, a reused frame serves the previous tenant's
    // cached token to a reader who never invalidated.
    LitmusWorld w(cfgOf(CoherenceMode::HdmD), /*nodes=*/4);
    LitmusWorld broken(
        cfgOf(CoherenceMode::HdmD, false, /*elideReset=*/true));
    const PhysAddr a = broken.line(kOld);
    ASSERT_EQ(broken.ld(a, 1), kOld);
    broken.machine.putFrame(a);
    const PhysAddr b = broken.line(kNew);
    ASSERT_EQ(b.raw, a.raw);
    EXPECT_EQ(broken.ld(b, 1), kOld)
        << "elided reset must leak the previous tenant's token";
    EXPECT_GE(broken.ctr("cxl.coherence.stale_reads"), 1u);
    EXPECT_EQ(broken.ctr("cxl.coherence.line_resets"), 0u);
}

TEST(LitmusHdmD, CrashDiscardsUnflushedStores)
{
    // Node 0 stores but crashes before its flush: survivors must keep
    // observing the last published token, never the torn one.
    LitmusWorld w(cfgOf(CoherenceMode::HdmD));
    const PhysAddr a = w.line(kOld);
    w.st(a, 0, kNew); // pending, never flushed
    w.dir.onNodeCrash(0, w.clocks[1]);
    EXPECT_EQ(w.ld(a, 1), kOld)
        << "the crashed node's unflushed store must be discarded";
    EXPECT_FALSE(w.dir.lineInfo(a).pendingStore);
    EXPECT_GE(w.ctr("cxl.coherence.crash_cleanups"), 1u);
    w.expectClean();
}

TEST(LitmusHdmD, CrashClearsOwnershipAndSharers)
{
    LitmusWorld w(cfgOf(CoherenceMode::HdmD));
    const PhysAddr a = w.line(kOld);
    w.st(a, 0, kNew);
    w.ld(a, 1);
    ASSERT_EQ(w.dir.lineInfo(a).owner, 0);
    w.dir.onNodeCrash(0, w.clocks[1]);
    const LineInfo i = w.dir.lineInfo(a);
    EXPECT_NE(i.owner, 0);
    EXPECT_FALSE(i.hasSharer(0));
    w.expectClean();
}

TEST(LitmusContention, BackInvalidationsQueueBehindDataTraffic)
{
    // Directory control traffic is fabric traffic: with the queue model
    // armed, the back-invalidations a write storms at its sharers must
    // wait out data transactions already occupying the write lane —
    // the writer's clock observably stretches versus a queue-off twin,
    // while the protocol outcome stays bit-identical.
    struct Outcome
    {
        double writerElapsedNs;
        uint64_t queued;
        uint64_t token;
    };
    auto run = [](bool armed) {
        LitmusWorld w(cfgOf(CoherenceMode::HdmH));
        FabricQueueConfig qc;
        qc.enabled = armed;
        // One domain, one lane: the flood and the binvs collide.
        const FabricTopology oneDomain(w.machine);
        FabricQueueModel q(w.machine, oneDomain, qc);

        const PhysAddr a = w.line(kOld);
        w.ld(a, 0);
        w.ld(a, 1); // two sharers to invalidate
        // Node 2 floods the write lane with bulk data transactions —
        // the same calls the checkpoint copy paths issue.
        for (int i = 0; i < 6; ++i)
            w.machine.cxlTransaction(w.clocks[2], "litmus flood", 2,
                                     w.line(0), /*isRead=*/false);

        const sim::SimTime before = w.clocks[3].now();
        const uint64_t queuedBefore = w.ctr("cxl.contention.queued");
        w.st(a, 3, kNew); // storms 2 back-invalidations at the sharers
        w.expectClean();
        return Outcome{(w.clocks[3].now() - before).toNs(),
                       w.ctr("cxl.contention.queued") - queuedBefore,
                       w.ld(a, 2)};
    };

    const Outcome off = run(false);
    const Outcome armed = run(true);
    EXPECT_EQ(off.token, kNew);
    EXPECT_EQ(armed.token, kNew)
        << "queueing may delay the protocol, never change it";
    EXPECT_EQ(off.queued, 0u);
    // The write itself enqueues no data transaction (writeFrame is a
    // directory-only path), so any queued charge here belongs to an
    // invalidation message waiting out the foreign flood.
    EXPECT_GE(armed.queued, 1u)
        << "back-invalidations bypassed the fabric queue";
    EXPECT_GT(armed.writerElapsedNs, off.writerElapsedNs)
        << "queued control traffic must stretch the writer's clock";
}

/** Records the line address of every crash-cleanup message. */
struct CrashCleanupRecorder final : mem::FabricStage
{
    void
    onTxn(mem::Txn &t) override
    {
        if (std::string_view(t.site) == "coherence.crash.binv")
            addrs.push_back(t.target);
    }

    std::vector<PhysAddr> addrs;
};

TEST(LitmusWalkOrder, WalksRunInAscendingAddressOrder)
{
    // Touch lines highest address first from several nodes, so
    // insertion order is the reverse of address order. Every walk
    // whose order is observable must still come out in ascending
    // address order, whatever container holds the lines.
    LitmusWorld w(cfgOf(CoherenceMode::HdmD));
    CrashCleanupRecorder rec;
    w.machine.installStage(mem::StageKind::Queue, &rec);
    std::vector<PhysAddr> lines;
    for (int i = 0; i < 32; ++i)
        lines.push_back(w.line(kOld + i));
    std::sort(lines.begin(), lines.end());
    for (size_t i = lines.size(); i-- > 0;) {
        w.ld(lines[i], NodeId(1 + i % 3));
        w.st(lines[i], 0, kNew + i); // node 0 leaves every store unflushed
    }

    EXPECT_EQ(w.dir.pendingLines(0), lines);
    w.dir.onNodeCrash(0, w.clocks[1]);
    EXPECT_EQ(rec.addrs, lines)
        << "crash cleanup must charge and queue lines in address order";
    EXPECT_EQ(w.ctr("cxl.coherence.crash_cleanups"), lines.size());
    w.machine.installStage(mem::StageKind::Queue, nullptr);
    w.expectClean();
}

TEST(LitmusWalkOrder, AuditReportsTheLowestBadLine)
{
    LitmusWorld w(cfgOf(CoherenceMode::HdmH));
    std::vector<PhysAddr> lines;
    for (int i = 0; i < 32; ++i)
        lines.push_back(w.line(kOld + i));
    std::sort(lines.begin(), lines.end());
    for (size_t i = lines.size(); i-- > 0;)
        w.ld(lines[i], NodeId(i % 4)); // each line Exclusive at one node
    w.expectClean();

    for (size_t bad : {size_t(29), size_t(7), size_t(18)})
        CoherenceDirectoryTestAccess::dropAllSharers(w.dir, lines[bad]);
    const auto report = w.dir.auditInvariants();
    ASSERT_TRUE(report.has_value());
    const uint64_t lowest =
        (lines[7].raw - mem::Machine::kCxlBase) / kPageSize;
    EXPECT_TRUE(report->starts_with(
        sim::format("coherence line %llu ", (unsigned long long)lowest)))
        << *report;
}

TEST(LitmusAudit, TokensMatchTheMasksExactly)
{
    // Under HDM-D every pending/cached node holds exactly one token in
    // the side map. The audit must catch a mask bit without its token
    // and a token without its mask bit.
    {
        LitmusWorld w(cfgOf(CoherenceMode::HdmD));
        const PhysAddr a = w.line(kOld);
        w.st(a, 0, kNew);
        w.expectClean();
        CoherenceDirectoryTestAccess::dropPendingToken(w.dir, a, 0);
        const auto report = w.dir.auditInvariants();
        ASSERT_TRUE(report.has_value());
        EXPECT_NE(report->find("pending node has no token"),
                  std::string::npos)
            << *report;
    }
    {
        LitmusWorld w(cfgOf(CoherenceMode::HdmD));
        const PhysAddr a = w.line(kOld);
        const PhysAddr b = w.line(kOld + 1);
        w.ld(a, 1);
        w.ld(b, 1);
        w.expectClean();
        CoherenceDirectoryTestAccess::plantStrayToken(w.dir, b, 2);
        const auto report = w.dir.auditInvariants();
        ASSERT_TRUE(report.has_value());
        const uint64_t line = (b.raw - mem::Machine::kCxlBase) / kPageSize;
        EXPECT_EQ(*report,
                  sim::format("coherence line %llu: stray cached token for "
                              "node 2",
                              (unsigned long long)line));
    }
}

TEST(LitmusAudit, FreedLinesLeaveNoTokens)
{
    // Forgetting a line (free or droppable evict) must drop its tokens
    // with it, or they would resurface on the frame's next tenant.
    LitmusWorld w(cfgOf(CoherenceMode::HdmD));
    const PhysAddr a = w.line(kOld);
    w.ld(a, 1);
    w.st(a, 0, kNew);
    w.ld(a, 2);
    EXPECT_EQ(w.dir.trackedLines(), 1u);
    w.machine.cxl().decRef(a);
    EXPECT_EQ(w.dir.trackedLines(), 0u);
    w.expectClean();
}

TEST(LitmusAuditDeathTest, AddressesOutsideTheDevicePanic)
{
    LitmusWorld w(cfgOf(CoherenceMode::HdmH));
    const PhysAddr dram = w.machine.nodeDram(1).base();
    const PhysAddr past{w.machine.cxl().base().raw +
                        w.machine.cxl().capacityBytes()};
    EXPECT_DEATH(w.dir.lineInfo(dram),
                 "address 0x[0-9a-f]+ outside tier cxl-device");
    EXPECT_DEATH(w.dir.evict(past, 0, w.clocks[0]),
                 "outside tier cxl-device");
}

TEST(LitmusModes, NamesRoundTrip)
{
    EXPECT_STREQ(coherenceModeName(CoherenceMode::Off), "off");
    EXPECT_STREQ(coherenceModeName(CoherenceMode::HdmH), "hdm-h");
    EXPECT_STREQ(coherenceModeName(CoherenceMode::HdmD), "hdm-d");
}

// ---------------------------------------------------------------------
// Cluster litmus: the real CXLfork checkpoint/restore paths with the
// directory armed — cross-node publish/subscribe and CoW-after-attach.
// ---------------------------------------------------------------------

constexpr const char *kUser = "tenant0";
constexpr const char *kFn = "litmusfn";
constexpr uint64_t kHeapPages = 12;

uint64_t
tokenFor(uint64_t i)
{
    return 0x9e3779b97f4a7c15ull * (i + 1) ^ 0x5eed;
}

porter::ClusterConfig
clusterConfig(CoherenceMode m, bool elideFlushes = false)
{
    porter::ClusterConfig cc;
    cc.machine.numNodes = 2;
    cc.machine.dramPerNodeBytes = mem::mib(128);
    cc.machine.cxlCapacityBytes = mem::mib(256);
    cc.machine.llcBytes = mem::mib(8);
    cc.coherence.mode = m;
    cc.coherence.elideFlushes = elideFlushes;
    return cc;
}

struct Published
{
    std::shared_ptr<os::Task> parent;
    std::shared_ptr<rfork::CheckpointHandle> handle;
    mem::VirtAddr heapStart;
};

Published
publishParent(porter::Cluster &cluster, rfork::CxlFork &mech)
{
    os::NodeOs &node0 = cluster.node(0);
    Published p;
    p.parent = node0.createTask(kFn);
    os::Vma &heap =
        node0.mapAnon(*p.parent, kHeapPages * kPageSize,
                      os::kVmaRead | os::kVmaWrite, "heap");
    p.heapStart = heap.start;
    for (uint64_t i = 0; i < kHeapPages; ++i)
        node0.write(*p.parent, p.heapStart.plus(i * kPageSize),
                    tokenFor(i));
    mech.checkpointPublished(cluster.checkpoints(), {kUser, kFn}, node0,
                             *p.parent, nullptr,
                             rfork::PublishPolicy::TwoPhase);
    auto cid = cluster.checkpoints().lookup(kUser, kFn);
    EXPECT_TRUE(cid.has_value());
    p.handle = cluster.checkpoints().get(*cid);
    EXPECT_NE(p.handle, nullptr);
    return p;
}

class ClusterLitmus : public ::testing::TestWithParam<CoherenceMode>
{
};

TEST_P(ClusterLitmus, PublishSubscribeIsByteIdentical)
{
    // Cross-node publish/subscribe: checkpoint on node 0, restore on
    // node 1. With the publication protocol intact (NT-store stream +
    // fence, modeled by publishFrame) every page must arrive
    // byte-identical in both fidelity modes.
    porter::Cluster cluster(clusterConfig(GetParam()));
    rfork::CxlFork mech(cluster.fabric());
    Published p = publishParent(cluster, mech);
    auto child = mech.restore(p.handle, cluster.node(1));
    for (uint64_t i = 0; i < kHeapPages; ++i) {
        EXPECT_EQ(cluster.node(1).read(*child,
                                       p.heapStart.plus(i * kPageSize)),
                  tokenFor(i))
            << "page " << i << " under "
            << coherenceModeName(GetParam());
    }
    EXPECT_GT(cluster.machine().metrics().counterValue(
                  "cxl.coherence.lookups"),
              0u);
    auto bad = cluster.fabric().coherence()->auditInvariants();
    EXPECT_FALSE(bad.has_value()) << *bad;
}

TEST_P(ClusterLitmus, CowAfterAttachIsPrivate)
{
    // CoW-after-attach: the restored child writes a page; the break
    // must copy the *current* published token, give the child a
    // private copy, and leave the checkpoint (and a sibling restored
    // later) untouched.
    porter::Cluster cluster(clusterConfig(GetParam()));
    rfork::CxlFork mech(cluster.fabric());
    Published p = publishParent(cluster, mech);
    auto child = mech.restore(p.handle, cluster.node(1));

    const mem::VirtAddr va = p.heapStart;
    ASSERT_EQ(cluster.node(1).read(*child, va), tokenFor(0));
    cluster.node(1).write(*child, va, kNew); // CoW break off the device
    EXPECT_EQ(cluster.node(1).read(*child, va), kNew);
    EXPECT_EQ(cluster.node(1).read(*child, va.plus(kPageSize)),
              tokenFor(1));

    auto sibling = mech.restore(p.handle, cluster.node(1));
    EXPECT_EQ(cluster.node(1).read(*sibling, va), tokenFor(0))
        << "the sibling must not observe the first child's private write";
    auto bad = cluster.fabric().coherence()->auditInvariants();
    EXPECT_FALSE(bad.has_value()) << *bad;
}

INSTANTIATE_TEST_SUITE_P(Modes, ClusterLitmus,
                         ::testing::Values(CoherenceMode::HdmH,
                                           CoherenceMode::HdmD),
                         [](const auto &info) {
                             return info.param == CoherenceMode::HdmH
                                        ? "HdmH"
                                        : "HdmD";
                         });

TEST(ClusterLitmusNegative, HdmD_ElidedPublishRestoresStaleZeros)
{
    // The cluster-level negative control: under HDM-D with the
    // publication flushes elided, the checkpoint's NT-store stream
    // never becomes visible, so the restored child on the other node
    // observably reads the stale zero token — the exact failure mode
    // the paper's fence placement exists to prevent.
    porter::Cluster cluster(
        clusterConfig(CoherenceMode::HdmD, /*elideFlushes=*/true));
    rfork::CxlFork mech(cluster.fabric());
    Published p = publishParent(cluster, mech);
    auto child = mech.restore(p.handle, cluster.node(1));
    uint64_t staleObserved = 0;
    for (uint64_t i = 0; i < kHeapPages; ++i) {
        const uint64_t got =
            cluster.node(1).read(*child, p.heapStart.plus(i * kPageSize));
        if (got != tokenFor(i)) {
            ++staleObserved;
            EXPECT_EQ(got, 0u)
                << "an unpublished fresh frame reads as the zero token";
        }
    }
    EXPECT_EQ(staleObserved, kHeapPages)
        << "every page must be observably stale when publication is "
           "elided — otherwise the oracle has no teeth";
    EXPECT_GE(cluster.machine().metrics().counterValue(
                  "cxl.coherence.stale_reads"),
              kHeapPages);
}

} // namespace
} // namespace cxlfork::cxl
