/**
 * @file
 * A property fuzz of the codec bookkeeping: random intern/release
 * interleavings with the pipeline armed keep the store audit
 * consistent, never store more than a raw page, elide zero pages
 * entirely, charge the one-time decompress exactly once, and drain the
 * codec census to zero with the refcounts (delta parents included).
 * (That prefetch and the codec never change restored bytes, for every
 * mechanism, is the layer matrix's, layer_matrix_test.cc.)
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "cxl/page_store.hh"
#include "sim/rng.hh"
#include "test_util.hh"

namespace cxlfork {
namespace {

using mem::kPageSize;

class CodecFuzz : public ::testing::TestWithParam<uint64_t>
{
};

/**
 * Random intern/release interleavings with the codec armed: bounded
 * stored sizes, zero elision, dedup hits storing nothing new, a
 * consistent audit after every step, and a census that drains to zero
 * — delta parent references included — when the last ref goes.
 */
TEST_P(CodecFuzz, RandomInterleavingKeepsCodecConsistent)
{
    test::World world(test::smallConfig(), [] {
        cxl::PageStoreConfig cfg;
        cfg.dedup = true;
        cfg.compress = true;
        return cfg;
    }());
    cxl::PageStore &store = world.fabric->pageStore();
    sim::SimClock clock;
    sim::Rng rng(GetParam());

    std::vector<std::pair<mem::PhysAddr, uint64_t>> live;
    for (int step = 0; step < 400; ++step) {
        if (live.empty() || rng.chance(0.6)) {
            // Zero pages, a small repeated palette (dedup hits), and
            // fresh uniques all mix.
            uint64_t content;
            if (rng.chance(0.15))
                content = 0;
            else if (rng.chance(0.5))
                content = 0xabc000 + rng.index(6);
            else
                content = rng.raw() | 1;
            const cxl::InternResult r =
                store.intern(content, mem::FrameUse::Data, clock);
            EXPECT_LE(r.storedBytes, kPageSize);
            if (r.shared) {
                EXPECT_EQ(r.storedBytes, 0u)
                    << "a dedup hit re-stored bytes";
            } else if (content == 0) {
                EXPECT_EQ(r.storedBytes, 0u) << "zero page not elided";
                EXPECT_EQ(store.codecClassOf(r.addr),
                          cxl::CodecClass::Zero);
            }
            // A frame we still hold references to must never be handed
            // out again for different content. (An index keyed on ever-
            // seen frames would be wrong: releasing a delta page can
            // free its parent anchor as a side effect, legitimately
            // recycling that frame.)
            for (const auto &[addr, c] : live) {
                if (addr == r.addr) {
                    EXPECT_EQ(c, content)
                        << "live frame re-issued for different content";
                }
            }
            live.emplace_back(r.addr, content);
        } else {
            const size_t i = rng.index(live.size());
            const mem::PhysAddr addr = live[i].first;
            live.erase(live.begin() + ptrdiff_t(i));
            const bool lastRef =
                std::none_of(live.begin(), live.end(),
                             [&](const auto &p) { return p.first == addr; });
            const bool freed = store.release(addr);
            if (freed) {
                EXPECT_TRUE(lastRef) << "freed while still referenced";
            }
        }
        const cxl::PageStoreAudit audit = store.audit();
        ASSERT_TRUE(audit.consistent) << audit.detail;
    }

    // Drain: the codec census dies with the refcounts, even though
    // delta-coded pages pinned their parents along the way.
    while (!live.empty()) {
        store.release(live.back().first);
        live.pop_back();
    }
    EXPECT_EQ(store.uniquePages(), 0u);
    EXPECT_EQ(store.codecPages(), 0u);
    const cxl::PageStoreAudit audit = store.audit();
    EXPECT_TRUE(audit.consistent) << audit.detail;
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecFuzz,
                         ::testing::Range<uint64_t>(99100, 99106));

/** The one-time decompress: charged on first checked read, never again. */
TEST(CodecDecompress, ChargedExactlyOncePerPage)
{
    test::World world(test::smallConfig(), [] {
        cxl::PageStoreConfig cfg;
        cfg.compress = true;
        return cfg;
    }());
    cxl::PageStore &store = world.fabric->pageStore();
    mem::Machine &machine = *world.machine;
    sim::SimClock clock;

    const cxl::InternResult r =
        store.intern(0x1234'5678'9abc'def0ull, mem::FrameUse::Data, clock);
    ASSERT_FALSE(r.shared);
    const uint64_t before =
        machine.metrics().counterValue("cxl.compress.decompressions");

    machine.readFrameChecked(r.addr, clock, "test read");
    const uint64_t afterFirst =
        machine.metrics().counterValue("cxl.compress.decompressions");
    machine.readFrameChecked(r.addr, clock, "test read");
    const uint64_t afterSecond =
        machine.metrics().counterValue("cxl.compress.decompressions");

    // Raw-classified pages carry no pending decompress; every other
    // class charges exactly once. Either way the second read is free.
    const bool compressedClass =
        store.codecClassOf(r.addr) != cxl::CodecClass::Raw;
    EXPECT_EQ(afterFirst - before, compressedClass ? 1u : 0u);
    EXPECT_EQ(afterSecond, afterFirst);
    store.release(r.addr);
}

} // namespace
} // namespace cxlfork
