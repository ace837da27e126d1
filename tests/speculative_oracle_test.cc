/**
 * @file
 * Differential oracle for speculative restore: the trace-trained
 * prefetcher and the codec pipeline must both be invisible to restored
 * children. For Table-1 workloads under all four mechanisms, the clone
 * restored with {prefetch, compress, both} reads byte-for-byte what
 * the lazy, uncompressed clone reads — speculation and compression buy
 * or cost simulated time, never bytes.
 *
 * Plus a property fuzz of the codec bookkeeping itself: random
 * intern/release interleavings with the pipeline armed keep the store
 * audit consistent, never store more than a raw page, elide zero pages
 * entirely, charge the one-time decompress exactly once, and drain the
 * codec census to zero with the refcounts (delta parents included).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "cxl/page_store.hh"
#include "faas/workloads.hh"
#include "porter/cluster.hh"
#include "rfork/mechanism.hh"
#include "rfork/prefetch.hh"
#include "sim/rng.hh"
#include "test_util.hh"

namespace cxlfork {
namespace {

using mem::kPageSize;
using mem::VirtAddr;

porter::ClusterConfig
oracleConfig(bool compress)
{
    porter::ClusterConfig cfg;
    cfg.machine.numNodes = 2;
    cfg.machine.dramPerNodeBytes = mem::gib(1);
    cfg.machine.cxlCapacityBytes = mem::gib(1);
    if (compress) {
        cfg.pageStore.dedup = true;
        cfg.pageStore.compress = true;
    }
    return cfg;
}

mem::NodeId
targetFor(const std::string &mech)
{
    return mech == "localfork" ? 0 : 1;
}

/** Deploy + warm exactly like the benches (A/D cleared, one re-touch). */
std::unique_ptr<faas::FunctionInstance>
warmParent(porter::Cluster &cluster, const faas::FunctionSpec &spec)
{
    auto parent = faas::FunctionInstance::deployCold(cluster.node(0), spec);
    parent->invoke();
    parent->task().mm().pageTable().clearAccessedBits(/*alsoDirty=*/true);
    parent->invoke();
    return parent;
}

/** Every present page of the parent's address space, in VPN order. */
std::vector<uint64_t>
presentVpns(os::Task &task)
{
    std::vector<uint64_t> vpns;
    task.mm().pageTable().forEachLeaf(
        [&](uint64_t baseVpn, os::TablePage &leaf) {
            for (uint32_t i = 0; i < os::TablePage::kEntries; ++i) {
                if (leaf.pte(i).present())
                    vpns.push_back(baseVpn + i);
            }
        });
    return vpns;
}

/**
 * Train the way a deployed system would: sacrificial lazy restores
 * whose traced first invocations reveal the post-restore working set.
 */
rfork::PrefetchSchedule
trainOn(porter::Cluster &cluster, rfork::RemoteForkMechanism &mech,
        const std::shared_ptr<rfork::CheckpointHandle> &handle,
        const faas::FunctionSpec &spec, mem::NodeId tgt)
{
    rfork::WorkingSetPredictor predictor;
    rfork::FaultTraceRecorder recorder;
    // Fully lazy training restores: the opportunistic dirty-page copy
    // would pre-fault exactly the working set we want to observe.
    rfork::RestoreOptions lazyOpts;
    lazyOpts.prefetchDirty = false;
    for (int i = 0; i < 2; ++i) {
        auto task = mech.restore(handle, cluster.node(tgt), lazyOpts);
        auto child = faas::FunctionInstance::adoptRestored(cluster.node(tgt),
                                                          spec, task);
        recorder.clear();
        child->invokeTraced(recorder);
        predictor.train(recorder.entries());
        child->destroy();
    }
    return predictor.schedule();
}

struct Combo
{
    const char *mech;
    const char *fn;
};

class SpeculativeOracle : public ::testing::TestWithParam<Combo>
{
};

/**
 * Four worlds from one spec — lazy/uncompressed (the oracle),
 * prefetch-only, compress-only, both — restore one clone each; every
 * present page must read identically in all four, before and after
 * the clone's own invocation dirties its private pages.
 */
TEST_P(SpeculativeOracle, RestoredBytesMatchLazyUncompressed)
{
    const Combo combo = GetParam();
    const faas::FunctionSpec spec = *faas::findWorkload(combo.fn);
    const mem::NodeId tgt = targetFor(combo.mech);

    struct VariantWorld
    {
        bool compress;
        bool prefetch;
        std::unique_ptr<porter::Cluster> cluster;
        std::unique_ptr<faas::FunctionInstance> parent;
        std::unique_ptr<rfork::RemoteForkMechanism> mech;
        std::shared_ptr<rfork::CheckpointHandle> handle;
        std::shared_ptr<os::Task> child;
    };
    std::vector<VariantWorld> worlds;
    worlds.push_back({false, false, nullptr, nullptr, nullptr, {}, {}});
    worlds.push_back({false, true, nullptr, nullptr, nullptr, {}, {}});
    worlds.push_back({true, false, nullptr, nullptr, nullptr, {}, {}});
    worlds.push_back({true, true, nullptr, nullptr, nullptr, {}, {}});

    for (VariantWorld &w : worlds) {
        w.cluster =
            std::make_unique<porter::Cluster>(oracleConfig(w.compress));
        w.parent = warmParent(*w.cluster, spec);
        w.mech = rfork::makeMechanism(*rfork::parseMechanism(combo.mech),
                                      w.cluster->fabric());
        w.handle = w.mech->checkpoint(w.cluster->node(0), w.parent->task());

        rfork::PrefetchSchedule sched;
        rfork::RestoreOptions opts;
        if (w.prefetch) {
            sched = trainOn(*w.cluster, *w.mech, w.handle, spec, tgt);
            // CRIU restores eagerly (full image copy), so its children
            // never demand-fault and there is nothing to learn — the
            // empty schedule IS the correct prediction. Every lazy
            // mechanism must train a non-empty working set.
            if (std::string(combo.mech) == "criu") {
                EXPECT_TRUE(sched.empty())
                    << "eager CRIU restore trained a schedule?";
            } else {
                EXPECT_FALSE(sched.empty())
                    << combo.mech << "/" << combo.fn
                    << ": training produced no schedule";
            }
            opts.prefetch = &sched;
        }
        rfork::RestoreStats rs;
        w.child = w.mech->restore(w.handle, w.cluster->node(tgt), opts, &rs);
        if (w.prefetch && !sched.empty()) {
            EXPECT_GT(rs.pagesPrefetched + rs.prefetchSkipped, 0u)
                << "schedule was ignored";
        }
    }

    // The lazy/uncompressed world defines truth; identical layouts mean
    // identical VPN sets everywhere.
    const std::vector<uint64_t> vpns =
        presentVpns(worlds[0].parent->task());
    ASSERT_GT(vpns.size(), 0u);

    for (uint64_t vpn : vpns) {
        const VirtAddr va = VirtAddr::fromPageNumber(vpn);
        const uint64_t expect =
            worlds[0].cluster->node(tgt).read(*worlds[0].child, va);
        for (size_t wi = 1; wi < worlds.size(); ++wi) {
            ASSERT_EQ(worlds[wi].cluster->node(tgt).read(*worlds[wi].child,
                                                         va),
                      expect)
                << combo.mech << "/" << combo.fn << " variant " << wi
                << " (compress=" << worlds[wi].compress
                << " prefetch=" << worlds[wi].prefetch << ") vpn=0x"
                << std::hex << vpn;
        }
    }

    // The clones then run one invocation each (dirtying their private
    // CoW copies identically) and must still agree page for page.
    for (VariantWorld &w : worlds) {
        auto inst = faas::FunctionInstance::adoptRestored(
            w.cluster->node(tgt), spec, w.child);
        inst->invoke();
    }
    for (uint64_t vpn : vpns) {
        const VirtAddr va = VirtAddr::fromPageNumber(vpn);
        const uint64_t expect =
            worlds[0].cluster->node(tgt).read(*worlds[0].child, va);
        for (size_t wi = 1; wi < worlds.size(); ++wi) {
            ASSERT_EQ(worlds[wi].cluster->node(tgt).read(*worlds[wi].child,
                                                         va),
                      expect)
                << "post-invocation divergence, variant " << wi
                << " vpn=0x" << std::hex << vpn;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Mechanisms, SpeculativeOracle,
    ::testing::Values(Combo{"localfork", "Float"}, Combo{"localfork", "Json"},
                      Combo{"criu", "Float"}, Combo{"criu", "Json"},
                      Combo{"mitosis", "Float"}, Combo{"mitosis", "Json"},
                      Combo{"cxlfork", "Float"}, Combo{"cxlfork", "Json"}),
    [](const ::testing::TestParamInfo<Combo> &info) {
        return std::string(info.param.mech) + "_" + info.param.fn;
    });

// --- Codec property fuzz.

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
