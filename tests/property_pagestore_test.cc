/**
 * @file
 * Property/fuzz tests for the content-addressed page store.
 *
 * Random interleavings of intern / ref / release are replayed against a
 * shadow model that tracks every outstanding reference by hand. After
 * every step (and at the end) the invariants must hold:
 *  - each frame's allocator refcount equals the live references the
 *    shadow model holds on it (no frame freed while referenced, none
 *    leaked after its last release);
 *  - the store's census (uniquePages) equals the number of distinct
 *    live contents, and audit() stays consistent;
 *  - the allocator's global census (auditLive / totalRefs) agrees.
 *
 * hashBits is narrowed to force hash collisions, so the byte-compare
 * confirmation path runs constantly: two different contents that hash
 * to one bucket must never alias.
 */

#include <gtest/gtest.h>

#include <map>
#include <string_view>
#include <vector>

#include "cxl/page_store.hh"
#include "mem/machine.hh"
#include "sim/rng.hh"
#include "test_util.hh"

namespace cxlfork::cxl {
namespace {

/** One outstanding reference the model took and must return. */
struct Ref
{
    mem::PhysAddr addr{0};
    uint64_t content = 0;
};

struct Shadow
{
    /** frame -> references we hold on it. */
    std::map<uint64_t, uint64_t> refs;
    std::vector<Ref> live;

    void take(mem::PhysAddr addr, uint64_t content)
    {
        ++refs[addr.raw];
        live.push_back({addr, content});
    }

    /** Drop the i-th live reference; true if we expect the frame freed. */
    bool drop(size_t i, mem::PhysAddr *addr)
    {
        *addr = live[i].addr;
        live.erase(live.begin() + ptrdiff_t(i));
        auto it = refs.find(addr->raw);
        if (--it->second == 0) {
            refs.erase(it);
            return true;
        }
        return false;
    }

    uint64_t distinctLiveContents() const
    {
        std::map<uint64_t, uint64_t> byContent;
        for (const Ref &r : live)
            byContent[r.content] = r.addr.raw;
        return byContent.size();
    }
};

void
checkInvariants(mem::Machine &machine, const PageStore &store,
                const Shadow &shadow)
{
    // Per-frame: allocator refcount == shadow references.
    for (const auto &[raw, expect] : shadow.refs) {
        const mem::Frame &f = machine.frame(mem::PhysAddr{raw});
        ASSERT_EQ(f.refcount, expect)
            << "frame " << std::hex << raw << " refcount drifted";
    }
    // Census: with dedup on, live indexed pages == distinct contents.
    if (store.dedupEnabled()) {
        ASSERT_EQ(store.uniquePages(), shadow.distinctLiveContents());
        // Each distinct live content maps to exactly one frame.
        std::map<uint64_t, uint64_t> contentToFrame;
        for (const Ref &r : shadow.live) {
            auto [it, fresh] =
                contentToFrame.emplace(r.content, r.addr.raw);
            ASSERT_EQ(it->second, r.addr.raw)
                << "content " << std::hex << r.content
                << " aliased to two frames";
        }
    }
    const PageStoreAudit a = store.audit();
    ASSERT_TRUE(a.consistent) << a.detail;
    const mem::FrameAudit fa = machine.cxl().auditLive();
    ASSERT_TRUE(fa.consistent) << fa.detail;
}

struct FuzzParam
{
    uint64_t seed;
    uint32_t hashBits; ///< Narrow to force collisions.
    bool dedup;
};

class PageStoreFuzz : public ::testing::TestWithParam<FuzzParam>
{
};

TEST_P(PageStoreFuzz, RandomInterleavingPreservesInvariants)
{
    const FuzzParam param = GetParam();
    mem::MachineConfig cfg = test::smallConfig();
    mem::Machine machine(cfg);
    PageStoreConfig psCfg;
    psCfg.dedup = param.dedup;
    psCfg.hashBits = param.hashBits;
    PageStore store(machine, psCfg);
    sim::SimClock clock;
    sim::Rng rng(param.seed);
    Shadow shadow;

    // A narrow palette maximizes both genuine hits (same content) and,
    // under 2-4 hash bits, bucket collisions between different contents.
    const uint64_t paletteBase = rng.raw() | 1;
    const uint32_t paletteSize = 1 + uint32_t(rng.index(24));

    const uint64_t baseUsed = machine.cxl().usedFrames();
    for (uint32_t step = 0; step < 600; ++step) {
        const double roll = rng.uniform();
        if (roll < 0.45 || shadow.live.empty()) {
            // intern a palette page (often a duplicate).
            const uint64_t content =
                paletteBase + rng.index(paletteSize);
            const InternResult r =
                store.intern(content, mem::FrameUse::Data, clock);
            ASSERT_NE(r.addr.raw, 0u);
            if (r.shared) {
                // A shared hit must hand back a frame already holding
                // exactly these bytes.
                ASSERT_TRUE(param.dedup);
                ASSERT_EQ(machine.frame(r.addr).content, content);
            }
            ASSERT_EQ(machine.frame(r.addr).content, content);
            shadow.take(r.addr, content);
        } else if (roll < 0.60) {
            // Extra reference on a random live frame.
            const size_t i = rng.index(shadow.live.size());
            const Ref &r = shadow.live[i];
            store.ref(r.addr);
            shadow.take(r.addr, r.content);
        } else {
            // Release a random outstanding reference.
            const size_t i = rng.index(shadow.live.size());
            mem::PhysAddr addr;
            const bool expectFreed = shadow.drop(i, &addr);
            const bool freed = store.release(addr);
            ASSERT_EQ(freed, expectFreed)
                << "frame " << std::hex << addr.raw
                << (expectFreed ? " freed late" : " freed early");
        }
        if (step % 16 == 0)
            checkInvariants(machine, store, shadow);
    }
    checkInvariants(machine, store, shadow);

    // Drain: returning every outstanding reference frees every frame.
    while (!shadow.live.empty()) {
        mem::PhysAddr addr;
        const bool expectFreed =
            shadow.drop(shadow.live.size() - 1, &addr);
        ASSERT_EQ(store.release(addr), expectFreed);
    }
    ASSERT_EQ(store.uniquePages(), 0u);
    ASSERT_EQ(machine.cxl().usedFrames(), baseUsed);
    const PageStoreAudit a = store.audit();
    ASSERT_TRUE(a.consistent) << a.detail;
}

std::vector<FuzzParam>
params()
{
    std::vector<FuzzParam> out;
    uint64_t seed = 0xfeed'0001;
    // Dedup on, across hash widths: 2-4 bits force constant bucket
    // collisions; 64 bits is the production shape.
    for (uint32_t bits : {2u, 3u, 4u, 16u, 64u})
        for (int i = 0; i < 3; ++i)
            out.push_back({seed++, bits, true});
    // Dedup off: pure pass-through, still refcount-clean.
    for (int i = 0; i < 3; ++i)
        out.push_back({seed++, 64u, false});
    return out;
}

INSTANTIATE_TEST_SUITE_P(Interleavings, PageStoreFuzz,
                         ::testing::ValuesIn(params()));

/** Distinct contents forced into one bucket must never alias. */
TEST(PageStoreCollision, ByteCompareRejectsHashAliases)
{
    mem::Machine machine(test::smallConfig());
    PageStoreConfig cfg;
    cfg.dedup = true;
    cfg.hashBits = 1; // two buckets: collisions guaranteed
    PageStore store(machine, cfg);
    sim::SimClock clock;

    std::vector<InternResult> results;
    std::vector<uint64_t> contents;
    for (uint64_t c = 1; c <= 64; ++c) {
        contents.push_back(0xc0de'0000 + c);
        results.push_back(
            store.intern(contents.back(), mem::FrameUse::Data, clock));
    }
    // All 64 contents are distinct: none may share, all must coexist.
    for (size_t i = 0; i < results.size(); ++i) {
        EXPECT_FALSE(results[i].shared);
        EXPECT_EQ(machine.frame(results[i].addr).content, contents[i]);
    }
    EXPECT_EQ(store.uniquePages(), contents.size());

    // Interning each content again shares despite the bucket pileup.
    for (size_t i = 0; i < contents.size(); ++i) {
        const InternResult again =
            store.intern(contents[i], mem::FrameUse::Data, clock);
        EXPECT_TRUE(again.shared);
        EXPECT_EQ(again.addr.raw, results[i].addr.raw);
        store.release(again.addr);
    }
    for (const InternResult &r : results)
        store.release(r.addr);
    EXPECT_EQ(store.uniquePages(), 0u);
}

/** Records the target of every page-store collision-check read. */
struct CollisionCheckRecorder final : mem::FabricStage
{
    void
    onTxn(mem::Txn &t) override
    {
        if (std::string_view(t.site) == "pagestore collision check")
            targets.push_back(t.target);
    }

    std::vector<mem::PhysAddr> targets;
};

/**
 * Hash chains: candidates compare oldest first, the collision check
 * reads the oldest frame, and unlinking the head, a middle frame or
 * the tail keeps the index consistent until the bucket empties.
 */
TEST(PageStoreChain, OldestFirstAndUnlinkAnywhere)
{
    mem::Machine machine(test::smallConfig());
    CollisionCheckRecorder rec;
    machine.installStage(mem::StageKind::Queue, &rec);
    PageStoreConfig cfg;
    cfg.dedup = true;
    cfg.hashBits = 4; // 16 buckets
    PageStore store(machine, cfg);
    sim::SimClock clock;
    auto intern = [&](uint64_t content) {
        return store.intern(content, mem::FrameUse::Data, clock);
    };
    auto expectClean = [&] {
        const PageStoreAudit a = store.audit();
        EXPECT_TRUE(a.consistent) << a.detail;
    };

    // Sort 64 distinct contents into buckets by the frame each intern's
    // collision check reads. An intern into an existing bucket must
    // read that bucket's oldest frame, which keys `chains` here.
    std::map<uint64_t, std::vector<mem::PhysAddr>> chains;
    std::map<uint64_t, uint64_t> contentOf;
    for (uint64_t c = 1; c <= 64; ++c) {
        const size_t checks = rec.targets.size();
        const InternResult r = intern(0xc4a1'0000 + c);
        ASSERT_FALSE(r.shared);
        contentOf[r.addr.raw] = 0xc4a1'0000 + c;
        if (rec.targets.size() == checks) {
            chains[r.addr.raw] = {r.addr};
            continue;
        }
        ASSERT_EQ(rec.targets.size(), checks + 1);
        auto it = chains.find(rec.targets.back().raw);
        ASSERT_NE(it, chains.end())
            << "the collision check must read the bucket's oldest frame";
        it->second.push_back(r.addr);
    }
    EXPECT_LE(chains.size(), 16u);
    std::vector<mem::PhysAddr> chain;
    for (const auto &[head, frames] : chains) {
        if (frames.size() > chain.size())
            chain = frames;
    }
    ASSERT_GE(chain.size(), 4u);
    expectClean();
    const uint64_t unique = store.uniquePages();

    // Oldest first: give chain[2] chain[3]'s bytes; the older of the
    // two identical frames must win.
    const uint64_t c2 = contentOf[chain[2].raw];
    const uint64_t c3 = contentOf[chain[3].raw];
    machine.cxl().frame(chain[2]).content = c3;
    InternResult hit = intern(c3);
    EXPECT_TRUE(hit.shared);
    EXPECT_EQ(hit.addr, chain[2]);
    EXPECT_EQ(rec.targets.back(), chain[0]);
    store.release(hit.addr);
    machine.cxl().frame(chain[2]).content = c2;
    expectClean();

    // Unlink a middle frame: later frames stay reachable.
    EXPECT_TRUE(store.release(chain[1]));
    expectClean();
    hit = intern(c3);
    EXPECT_TRUE(hit.shared);
    EXPECT_EQ(hit.addr, chain[3]);
    store.release(hit.addr);

    // Unlink the head: the next-oldest frame becomes the check target.
    EXPECT_TRUE(store.release(chain[0]));
    expectClean();
    hit = intern(c3);
    EXPECT_TRUE(hit.shared);
    EXPECT_EQ(rec.targets.back(), chain[2]);
    store.release(hit.addr);

    // Unlink the tail, then re-intern its bytes: a miss that appends.
    const mem::PhysAddr tail = chain.back();
    const uint64_t tailContent = contentOf[tail.raw];
    EXPECT_TRUE(store.release(tail));
    expectClean();
    const InternResult again = intern(tailContent);
    EXPECT_FALSE(again.shared);
    EXPECT_EQ(rec.targets.back(), chain[2]);
    expectClean();
    EXPECT_EQ(store.uniquePages(), unique - 2);

    // Free the rest of the chain: the bucket disappears with its last
    // frame, so the next intern hashing there checks nothing.
    for (size_t i = 2; i + 1 < chain.size(); ++i)
        EXPECT_TRUE(store.release(chain[i]));
    EXPECT_TRUE(store.release(again.addr));
    expectClean();
    const size_t checks = rec.targets.size();
    const InternResult fresh = intern(c3);
    EXPECT_FALSE(fresh.shared);
    EXPECT_EQ(rec.targets.size(), checks);
    store.release(fresh.addr);
    machine.installStage(mem::StageKind::Queue, nullptr);
}

TEST(PageStoreSlotsDeathTest, AddressesOutsideTheDevicePanic)
{
    mem::Machine machine(test::smallConfig());
    PageStoreConfig cfg;
    cfg.dedup = true;
    PageStore store(machine, cfg);
    const mem::PhysAddr dram = machine.nodeDram(0).base();
    const mem::PhysAddr past{machine.cxl().base().raw +
                             machine.cxl().capacityBytes()};
    EXPECT_DEATH(store.owns(dram), "address 0x[0-9a-f]+ outside tier "
                                   "cxl-device");
    EXPECT_DEATH(store.codecClassOf(past), "outside tier cxl-device");
}

} // namespace
} // namespace cxlfork::cxl
