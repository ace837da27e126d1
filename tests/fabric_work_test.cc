/**
 * @file
 * The armed fabric's deterministic work counts, pinned.
 *
 * Every opt-in layer is armed, as in perfbench's checkpoint_churn:
 * dedup plus codec, RAS with two replicas, HDM-H coherence, link
 * degradation and transients at a low rate, and the port queue. One
 * Float parent is checkpointed once under each of CRIU-CXL, CXLfork and
 * Mitosis-CXL; each checkpoint is restored, invoked once and destroyed
 * on nodes 1-3; then the three checkpoints are reclaimed.
 *
 * Per phase the test pins what the fabric did on the host: CXL
 * transactions, and how many of them the link stage, the port queue
 * and the transient ladder's draws saw; coherence directory messages;
 * content-index probes; bytes fed to CRC-32; and heap allocations,
 * counted by a replacement operator new in this binary only. The
 * counts depend on the code, never on the host, so a layer that
 * starts doing extra per-page work fails here on any machine.
 * Transaction, draw and CRC counts are the simulation's own work and
 * may not move in a host-only change; probe and allocation counts may
 * only fall.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <ostream>

#include "faas/function.hh"
#include "faas/workloads.hh"
#include "porter/cluster.hh"
#include "rfork/mechanism.hh"
#include "sim/crc32.hh"

namespace {

/** Heap allocations made while `gCounting` is set. */
uint64_t gAllocations = 0;
bool gCounting = false;

} // namespace

void *
operator new(std::size_t n)
{
    if (gCounting)
        ++gAllocations;
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    return operator new(n);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace cxlfork {
namespace {

/** One phase's host work, in the pins' brace-list order. */
struct WorkCounts
{
    uint64_t transactions = 0;
    uint64_t linkTxns = 0;
    uint64_t queueTxns = 0;
    uint64_t retryDraws = 0;
    uint64_t coherenceMsgs = 0;
    uint64_t indexProbes = 0;
    uint64_t crcBytes = 0;
    uint64_t allocations = 0;

    bool operator==(const WorkCounts &) const = default;
};

void
PrintTo(const WorkCounts &c, std::ostream *os)
{
    *os << "{" << c.transactions << ", " << c.linkTxns << ", "
        << c.queueTxns << ", " << c.retryDraws << ", " << c.coherenceMsgs
        << ", " << c.indexProbes << ", " << c.crcBytes << ", "
        << c.allocations << "}";
}

/** The checkpoint_churn layer set on a 4-node machine. */
porter::ClusterConfig
armedConfig()
{
    porter::ClusterConfig cc;
    cc.machine.numNodes = 4;
    cc.machine.dramPerNodeBytes = mem::mib(512);
    cc.machine.cxlCapacityBytes = mem::gib(1);
    cc.machine.llcBytes = mem::mib(8);
    cc.machine.faults.seed = 1;
    cc.machine.faults.cxlTransientRate = 1e-4;
    cc.machine.faults.linkDegradeRate = 1e-4;
    cc.pageStore.dedup = true;
    cc.pageStore.compress = true;
    cc.ras.enabled = true;
    cc.ras.replicas = 2;
    cc.coherence.mode = cxl::CoherenceMode::HdmH;
    cc.link.enabled = true;
    cc.contention.enabled = true;
    return cc;
}

/** Running totals, read at phase boundaries. */
class WorkMeter
{
  public:
    explicit WorkMeter(porter::Cluster &cluster) : cluster_(cluster)
    {
        last_ = now();
        gCounting = true;
    }

    ~WorkMeter() { gCounting = false; }

    /** The work done since the previous call (or construction). */
    WorkCounts
    lap()
    {
        gCounting = false;
        const WorkCounts cur = now();
        WorkCounts d;
        d.transactions = cur.transactions - last_.transactions;
        d.linkTxns = cur.linkTxns - last_.linkTxns;
        d.queueTxns = cur.queueTxns - last_.queueTxns;
        d.retryDraws = cur.retryDraws - last_.retryDraws;
        d.coherenceMsgs = cur.coherenceMsgs - last_.coherenceMsgs;
        d.indexProbes = cur.indexProbes - last_.indexProbes;
        d.crcBytes = cur.crcBytes - last_.crcBytes;
        d.allocations = cur.allocations - last_.allocations;
        last_ = cur;
        gCounting = true;
        return d;
    }

  private:
    WorkCounts
    now() const
    {
        mem::Machine &m = cluster_.machine();
        const sim::MetricsRegistry &r = m.metrics();
        const mem::FabricWork &w = m.fabricWork();
        WorkCounts c;
        c.transactions = r.counterValue("mem.cxl.transactions");
        c.linkTxns = w.linkTxns;
        c.queueTxns = cluster_.fabricQueue()->enqueued();
        c.retryDraws = w.retryDraws;
        for (const char *name :
             {"cxl.coherence.lookups", "cxl.coherence.evictions",
              "cxl.coherence.flushes", "cxl.coherence.sw_invalidates",
              "cxl.coherence.invalidations", "cxl.coherence.writebacks"})
            c.coherenceMsgs += r.counterValue(name);
        c.indexProbes = w.indexProbes;
        c.crcBytes = sim::crc32BytesThisThread;
        c.allocations = gAllocations;
        return c;
    }

    porter::Cluster &cluster_;
    WorkCounts last_;
};

const rfork::MechanismKind kKinds[] = {rfork::MechanismKind::CriuCxl,
                                       rfork::MechanismKind::CxlFork,
                                       rfork::MechanismKind::MitosisCxl};

TEST(FabricWork, ArmedCountsPinned)
{
    porter::Cluster cluster(armedConfig());
    const faas::FunctionSpec spec = faas::findWorkload("Float").value();
    os::NodeOs &home = cluster.node(0);
    auto parent = faas::FunctionInstance::deployCold(home, spec);
    parent->invoke();

    std::vector<std::unique_ptr<rfork::RemoteForkMechanism>> mechs;
    for (rfork::MechanismKind k : kKinds)
        mechs.push_back(rfork::makeMechanism(k, cluster.fabric()));
    rfork::CheckpointStore &store = cluster.checkpoints();
    std::vector<cxl::Cid> cids;

    WorkMeter meter(cluster);
    for (size_t i = 0; i < mechs.size(); ++i) {
        cids.push_back(mechs[i]
                           ->checkpointPublished(
                               store, {"user" + std::to_string(i), spec.name},
                               home, parent->task())
                           .cid);
    }
    const WorkCounts checkpoint = meter.lap();

    for (mem::NodeId n = 1; n < 4; ++n) {
        for (size_t i = 0; i < mechs.size(); ++i) {
            rfork::RestoreOutcome out =
                mechs[i]->tryRestore(store.get(cids[i]), cluster.node(n));
            ASSERT_TRUE(out) << "node " << n << " mechanism " << i;
            auto child = faas::FunctionInstance::adoptRestored(
                cluster.node(n), spec, out.task);
            out.task.reset();
            child->invoke();
            child->destroy();
        }
    }
    const WorkCounts restore = meter.lap();

    for (cxl::Cid cid : cids)
        store.reclaim(cid);
    const WorkCounts reclaim = meter.lap();

    // {transactions, link, queue, retry draws, coherence messages,
    //  index probes, CRC bytes, allocations}
    EXPECT_EQ(checkpoint, (WorkCounts{6468, 6154, 15664, 6468, 27588, 21381,
                                      791549, 2270}));
    EXPECT_EQ(restore, (WorkCounts{33066, 29784, 36042, 33070, 67137, 0,
                                   2084058, 5262}));
    EXPECT_EQ(reclaim, (WorkCounts{0, 0, 0, 0, 0, 9059, 0, 28}));
}

} // namespace
} // namespace cxlfork
