/**
 * @file
 * The layer matrix: one all-pairs restore oracle over every opt-in
 * fabric layer.
 *
 * The layers under a remote fork (dedup, codec, trained prefetch,
 * coherence, RAS replication, link health, port queue) may change what
 * a restore costs, never the bytes a clone reads. A cell is a
 * mechanism, a workload and a layer set. It runs one scenario and
 * compares what it observes with the all-off twin of the same
 * mechanism and workload, computed once per binary:
 *
 *  - the child's tokens right after the restore and after one
 *    invocation, and after its own CoW writes;
 *  - after those writes, the tokens a sibling, the parent and a fresh
 *    restore read, each equal to the restored image;
 *  - the harness's teardown audit (porter::harness::auditCluster:
 *    frame census, allocators, page store, RAS, directory, no STAGED
 *    record);
 *  - with only time-only layers armed (coherence, queue), every
 *    counter outside cxl.coherence.* and cxl.contention.*; with one
 *    issuing node, the node clock too;
 *  - with prefetch, a non-empty schedule the restore used (an eager
 *    CRIU restore leaves nothing to train on);
 *  - under CXLfork, device frame reads during the verify reads, so
 *    byte identity cannot pass on local copies alone.
 *
 * The layer sets are the rows of kPairs, a literal all-pairs table over
 * the seven factors, crossed with the four mechanisms and with Float,
 * Json and one seeded random process. Extra cells run every Table-1
 * workload under HDM-H and HDM-D on CXLfork, three random seeds under
 * dedup on the three fabric mechanisms, and one single-issuer queue
 * run. A negative control with HDM-D flushes elided must diverge.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "faas/workloads.hh"
#include "porter/harness_core.hh"
#include "rfork/mechanism.hh"
#include "rfork/prefetch.hh"
#include "test_util.hh"

namespace cxlfork {
namespace {

using cxl::CoherenceMode;
using rfork::MechanismKind;
using test::PageRec;

constexpr CoherenceMode kOff = CoherenceMode::Off;
constexpr CoherenceMode kH = CoherenceMode::HdmH;
constexpr CoherenceMode kD = CoherenceMode::HdmD;

/** One layer set. RAS K > 0 replicates every page (threshold 1). */
struct Layers
{
    bool dedup = false;
    bool codec = false;
    bool prefetch = false;
    CoherenceMode coherence = kOff;
    uint32_t rasK = 0;
    bool link = false;
    bool queue = false;

    /** Each factor's value, in table order. */
    std::array<int, 7>
    values() const
    {
        return {dedup, codec, prefetch, int(coherence), int(rasK), link,
                queue};
    }

    /** Nothing but layers that may cost time, never work, is armed. */
    bool
    timeOnly() const
    {
        return !dedup && !codec && !prefetch && rasK == 0 && !link;
    }
};

/** How many values each factor takes. */
constexpr std::array<int, 7> kFactorValues{2, 2, 2, 3, 3, 2, 2};

/**
 * Every pair of values of any two factors appears in some row. The
 * first two rows arm only time-only layers; the last arms every layer.
 */
const std::vector<Layers> kPairs = {
    // dedup codec  prefetch coherence RAS K link  queue
    {false, false, false, kH, 0, false, false},
    {false, false, false, kD, 0, false, true},
    {true, true, true, kOff, 0, true, false},
    {false, true, true, kOff, 1, false, true},
    {false, false, false, kOff, 2, true, true},
    {true, false, false, kH, 1, true, false},
    {true, true, true, kH, 2, false, true},
    {true, true, false, kD, 1, true, true},
    {false, false, true, kD, 2, true, false},
    {true, true, true, kD, 2, true, true},
};

constexpr uint64_t kRandomSeed = 77001;
constexpr uint64_t kPagesPerClass = 4096; ///< Sampled per segment class.
constexpr uint64_t kCowMask = 0x5a5a'5a5a'0000'0001ull;

struct Cell
{
    std::string name; ///< The gtest parameter name.
    MechanismKind mech;
    std::string function; ///< A Table-1 name; empty for a random process.
    uint64_t seed = 0;    ///< The random process's seed.
    Layers layers;
    bool singleIssuer = false; ///< Every step on node 0.
    bool elideFlushes = false; ///< The negative control's broken HDM-D.
};

/** A failing cell's repro: its name and layer set. */
void
PrintTo(const Cell &c, std::ostream *os)
{
    const Layers &l = c.layers;
    *os << c.name << " {dedup " << l.dedup << ", codec " << l.codec
        << ", prefetch " << l.prefetch << ", coherence "
        << int(l.coherence) << ", RAS K " << l.rasK << ", link " << l.link
        << ", queue " << l.queue << "}";
}

/** Everything one cell observes. */
struct Observation
{
    std::vector<uint64_t> child;   ///< The restored child, untouched.
    std::vector<uint64_t> invoked; ///< After one invocation.
    std::vector<uint64_t> written; ///< After the child's CoW writes.
    std::vector<uint64_t> sibling, parent, fresh; ///< After those writes.
    std::map<std::string, uint64_t> counters; ///< Sans the time-only layers'.
    double clockNs = 0.0;        ///< The restoring node's final clock.
    uint64_t verifyCxlReads = 0; ///< Device frame reads while verifying.
    size_t schedule = 0;         ///< Prefetch schedule entries.
    uint64_t prefetched = 0;     ///< Schedule entries the restore handled.
    std::string audit;           ///< The first audit violation, if any.
};

/** Up to about kPagesPerClass pages of each segment class, spread out. */
std::vector<PageRec>
samplePages(const faas::FunctionLayout &layout)
{
    std::vector<PageRec> out;
    for (os::SegClass seg : {os::SegClass::Init, os::SegClass::ReadOnly,
                             os::SegClass::ReadWrite}) {
        const uint64_t total = layout.pagesOf(seg);
        const uint64_t stride = std::max<uint64_t>(1, total / kPagesPerClass);
        layout.forEachPage(seg, total, [&](mem::VirtAddr va, uint64_t i) {
            if (i % stride == 0)
                out.push_back({va, 0, seg == os::SegClass::ReadWrite});
        });
    }
    return out;
}

porter::ClusterConfig
clusterFor(const Cell &c, uint64_t footprintBytes)
{
    porter::ClusterConfig cc;
    cc.machine.numNodes = 2;
    cc.machine.dramPerNodeBytes =
        footprintBytes > mem::mib(64) ? mem::gib(2) : mem::gib(1);
    cc.machine.cxlCapacityBytes = cc.machine.dramPerNodeBytes;
    cc.machine.llcBytes = mem::mib(64);
    const Layers &l = c.layers;
    cc.pageStore.dedup = l.dedup;
    cc.pageStore.compress = l.codec;
    cc.coherence.mode = l.coherence;
    cc.coherence.elideFlushes = c.elideFlushes;
    cc.ras.enabled = l.rasK > 0;
    cc.ras.replicas = l.rasK;
    cc.ras.replicaThreshold = 1;
    cc.link.enabled = l.link;
    cc.contention.enabled = l.queue;
    return cc;
}

Observation
observe(const Cell &c)
{
    const std::optional<faas::FunctionSpec> spec =
        c.function.empty() ? std::nullopt : faas::findWorkload(c.function);
    porter::Cluster cluster(clusterFor(c, spec ? spec->footprintBytes : 0));
    sim::MetricsRegistry &metrics = cluster.machine().metrics();
    auto mech = rfork::makeMechanism(c.mech, cluster.fabric());
    const uint64_t baseline = cluster.machine().usedFrames();
    os::NodeOs &home = cluster.node(0);
    os::NodeOs &at = cluster.node(
        c.mech == MechanismKind::LocalFork || c.singleIssuer ? 0 : 1);
    Observation obs;

    // The parent: a warmed function or a random process, and the pages
    // every reader reads.
    std::unique_ptr<faas::FunctionInstance> fn;
    test::RandomProcess proc;
    std::vector<PageRec> pages;
    if (spec) {
        fn = bench::deployWarmParent(cluster, *spec, 1);
        pages = samplePages(fn->layout());
    } else {
        sim::Rng rng(c.seed);
        proc = test::makeRandomProcess(home, cluster.vfs(), rng);
        pages = proc.pages;
    }
    os::Task &parent = fn ? fn->task() : *proc.task;
    rfork::PublishedCheckpoint ckpt = mech->checkpointPublished(
        cluster.checkpoints(),
        {porter::harness::kUser, spec ? spec->name : "random"}, home,
        parent);

    // A random process runs no function to train on: its schedule is
    // every page it recorded.
    rfork::PrefetchSchedule schedule;
    rfork::RestoreOptions opts;
    if (c.layers.prefetch) {
        if (spec) {
            schedule = bench::trainSchedule(cluster, *mech, ckpt.handle,
                                            *spec, at.id());
        } else {
            for (const PageRec &p : pages)
                schedule.pages.push_back({p.va.pageNumber(), p.writable});
        }
        opts.prefetch = &schedule;
    }
    rfork::RestoreStats rs;
    std::shared_ptr<os::Task> child =
        mech->restore(ckpt.handle, at, opts, &rs);
    obs.schedule = schedule.size();
    obs.prefetched = rs.pagesPrefetched + rs.prefetchSkipped;
    // The sibling restores fully lazily, so its reads reach the device.
    rfork::RestoreOptions lazy;
    lazy.prefetchDirty = false;
    std::shared_ptr<os::Task> sibling = mech->restore(ckpt.handle, at, lazy);

    auto readAll = [&](os::NodeOs &node, os::Task &task,
                       std::vector<uint64_t> &out) {
        const uint64_t before = metrics.counterValue("mem.cxl.frame_reads");
        for (const PageRec &p : pages)
            out.push_back(node.read(task, p.va));
        obs.verifyCxlReads +=
            metrics.counterValue("mem.cxl.frame_reads") - before;
    };
    readAll(at, *child, obs.child);
    std::unique_ptr<faas::FunctionInstance> inst;
    if (spec) {
        inst = faas::FunctionInstance::adoptRestored(at, *spec, child);
        inst->invoke();
        readAll(at, *child, obs.invoked);
    }
    // The child rewrites every other writable page; the CoW breaks must
    // stay private to it.
    size_t writable = 0;
    for (size_t i = 0; i < pages.size(); ++i) {
        if (pages[i].writable && writable++ % 2 == 0)
            at.write(*child, pages[i].va, obs.child[i] ^ kCowMask);
    }
    readAll(at, *child, obs.written);
    std::shared_ptr<os::Task> fresh = mech->restore(ckpt.handle, at);
    readAll(at, *sibling, obs.sibling);
    readAll(home, parent, obs.parent);
    readAll(at, *fresh, obs.fresh);

    // A task frees its memory when its last reference goes.
    inst.reset();
    for (std::shared_ptr<os::Task> *t : {&child, &sibling, &fresh}) {
        at.exitTask(*t);
        t->reset();
    }
    if (fn) {
        fn->destroy();
    } else {
        home.exitTask(proc.task);
        proc.task.reset();
    }
    cluster.checkpoints().reclaim(ckpt.cid);
    ckpt.handle.reset();
    porter::harness::Verdict verdict;
    porter::harness::auditCluster(cluster, baseline, verdict);
    obs.audit = verdict.detail;

    for (const auto &[name, ctr] : metrics.counters()) {
        if (name.rfind("cxl.coherence.", 0) != 0 &&
            name.rfind("cxl.contention.", 0) != 0)
            obs.counters.emplace(name, ctr.value());
    }
    obs.clockNs = at.clock().now().toNs();
    return obs;
}

/** The all-off twin of `c`'s mechanism, workload and placement. */
const Observation &
twinOf(const Cell &c)
{
    static std::map<std::string, Observation> twins;
    const std::string key = sim::format(
        "%s/%s/%llu/%d", rfork::mechanismKey(c.mech), c.function.c_str(),
        (unsigned long long)c.seed, int(c.singleIssuer));
    auto it = twins.find(key);
    if (it == twins.end()) {
        const Cell twin{key, c.mech, c.function, c.seed, {}, c.singleIssuer};
        it = twins.emplace(key, observe(twin)).first;
    }
    return it->second;
}

/** Equal token vectors, or how many pages diverged and the first. */
::testing::AssertionResult
sameTokens(const char *what, const std::vector<uint64_t> &got,
           const std::vector<uint64_t> &want)
{
    if (got.size() != want.size()) {
        return ::testing::AssertionFailure()
               << what << ": " << got.size() << " pages read, want "
               << want.size();
    }
    size_t diverged = 0, first = 0;
    for (size_t i = 0; i < got.size(); ++i) {
        if (got[i] != want[i] && diverged++ == 0)
            first = i;
    }
    if (diverged == 0)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << what << ": " << diverged << " of " << got.size()
           << " pages diverged; page " << first
           << sim::format(" read %#llx, want %#llx",
                          (unsigned long long)got[first],
                          (unsigned long long)want[first]);
}

/** What holds in every cell, the twins included. */
void
expectSound(const Observation &o)
{
    EXPECT_TRUE(sameTokens("child vs parent", o.child, o.parent));
    EXPECT_TRUE(sameTokens("sibling after CoW", o.sibling, o.parent));
    EXPECT_TRUE(sameTokens("fresh restore after CoW", o.fresh, o.parent));
    EXPECT_EQ(o.audit, "");
}

std::vector<Cell>
cells()
{
    std::vector<Cell> out;
    auto add = [&](const std::string &group, MechanismKind k,
                   const std::string &fn, uint64_t seed, Layers l,
                   bool singleIssuer = false) {
        const std::string what =
            fn.empty() ? sim::format("Random%llu", (unsigned long long)seed)
                       : fn;
        out.push_back({group + "_" + rfork::mechanismKey(k) + "_" + what, k,
                       fn, seed, l, singleIssuer});
    };
    for (size_t r = 0; r < kPairs.size(); ++r) {
        for (MechanismKind k : rfork::kAllMechanisms) {
            const std::string group = sim::format("Pairs%zu", r);
            add(group, k, "Float", 0, kPairs[r]);
            add(group, k, "Json", 0, kPairs[r]);
            add(group, k, "", kRandomSeed, kPairs[r]);
        }
    }
    for (const faas::WorkloadEntry &w : faas::table1Workloads()) {
        // Pairs0 is HDM-H alone, so it already runs Float and Json.
        if (w.spec.name != "Float" && w.spec.name != "Json") {
            add("HdmH", MechanismKind::CxlFork, w.spec.name, 0,
                {.coherence = kH});
        }
        add("HdmD", MechanismKind::CxlFork, w.spec.name, 0, {.coherence = kD});
    }
    for (uint64_t seed = kRandomSeed; seed < kRandomSeed + 3; ++seed) {
        for (MechanismKind k : {MechanismKind::CxlFork, MechanismKind::CriuCxl,
                                MechanismKind::MitosisCxl})
            add("Dedup", k, "", seed, {.dedup = true});
    }
    add("SingleIssuerQueue", MechanismKind::CxlFork, "Float", 0,
        {.queue = true}, true);
    return out;
}

class LayerMatrix : public ::testing::TestWithParam<Cell>
{
};

TEST_P(LayerMatrix, RestoresTheTwinsBytes)
{
    const Cell &c = GetParam();
    const Observation &twin = twinOf(c);
    {
        SCOPED_TRACE("all-off twin");
        expectSound(twin);
    }
    const Observation obs = observe(c);
    expectSound(obs);
    EXPECT_TRUE(sameTokens("restored child", obs.child, twin.child));
    EXPECT_TRUE(sameTokens("invoked child", obs.invoked, twin.invoked));
    EXPECT_TRUE(sameTokens("child after CoW", obs.written, twin.written));
    EXPECT_TRUE(sameTokens("parent", obs.parent, twin.parent));

    if (c.layers.timeOnly()) {
        EXPECT_EQ(obs.counters, twin.counters)
            << "a time-only layer changed what the restore did";
    }
    if (c.singleIssuer) {
        EXPECT_EQ(obs.clockNs, twin.clockNs) << "one issuer was charged";
    }
    if (c.layers.prefetch) {
        if (c.mech == MechanismKind::CriuCxl && !c.function.empty()) {
            EXPECT_EQ(obs.schedule, 0u) << "an eager restore trained";
        } else {
            EXPECT_GT(obs.schedule, 0u) << "training produced no schedule";
            EXPECT_GT(obs.prefetched, 0u) << "the restore ignored it";
        }
    }
    if (c.mech == MechanismKind::CxlFork) {
        EXPECT_GT(obs.verifyCxlReads, 0u) << "no verify read hit the device";
    }
}

INSTANTIATE_TEST_SUITE_P(
    Cells, LayerMatrix, ::testing::ValuesIn(cells()),
    [](const ::testing::TestParamInfo<Cell> &info) {
        return info.param.name;
    });

TEST(LayerMatrixTable, EveryPairOfValuesOnEveryMechanism)
{
    std::map<MechanismKind, std::set<std::array<int, 4>>> seen;
    for (const Cell &c : cells()) {
        if (c.name.rfind("Pairs", 0) != 0)
            continue; // the extra cells may not fill a gap in the table
        const std::array<int, 7> v = c.layers.values();
        for (int i = 0; i < 7; ++i) {
            for (int j = i + 1; j < 7; ++j)
                seen[c.mech].insert({i, j, v[i], v[j]});
        }
    }
    size_t pairs = 0;
    for (int i = 0; i < 7; ++i) {
        for (int j = i + 1; j < 7; ++j)
            pairs += size_t(kFactorValues[i] * kFactorValues[j]);
    }
    for (MechanismKind k : rfork::kAllMechanisms)
        EXPECT_EQ(seen[k].size(), pairs) << rfork::mechanismKey(k);
}

/**
 * The matrix can fail: an HDM-D directory whose flushes are elided
 * publishes nothing, and the child reads stale tokens.
 */
TEST(LayerMatrixControl, ElidedFlushesDiverge)
{
    Cell c{"ElidedFlushes", MechanismKind::CxlFork, "Float", 0,
           {.coherence = kD}};
    c.elideFlushes = true;
    EXPECT_FALSE(sameTokens("child", observe(c).child, twinOf(c).child));
}

} // namespace
} // namespace cxlfork
