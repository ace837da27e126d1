#include "harness_core.hh"

#include "cxl/ras.hh"

namespace cxlfork::porter::harness {

ClusterConfig
smallCluster(uint32_t numNodes)
{
    ClusterConfig cc;
    cc.machine.numNodes = numNodes;
    cc.machine.dramPerNodeBytes = mem::mib(128);
    cc.machine.cxlCapacityBytes = mem::mib(256);
    cc.machine.llcBytes = mem::mib(8);
    return cc;
}

void
TokenHeap::fill(uint64_t gen)
{
    if (!task) {
        task = node.createTask(function);
        start = node.mapAnon(*task, pages * mem::kPageSize,
                             os::kVmaRead | os::kVmaWrite, "heap")
                    .start;
    }
    for (uint64_t i = 0; i < pages; ++i)
        node.write(*task, start.plus(i * mem::kPageSize), tokens(gen, i));
    generation = gen;
}

void
TokenHeap::exit()
{
    if (task) {
        node.exitTask(task);
        task.reset();
    }
}

std::optional<TokenMismatch>
TokenHeap::verify(os::NodeOs &at, os::Task &child, const HeapImage &img,
                  uint64_t *reached) const
{
    for (uint64_t i = 0; i < pages; ++i) {
        if (reached)
            *reached = i;
        const uint64_t want = tokens(img.generation, i);
        const uint64_t got =
            at.read(child, img.start.plus(i * mem::kPageSize));
        if (got != want)
            return TokenMismatch{i, got, want};
    }
    return std::nullopt;
}

uint64_t
auditCluster(Cluster &cluster, uint64_t baselineFrames, Verdict &v)
{
    mem::Machine &m = cluster.machine();
    const uint64_t usedNow = m.usedFrames();
    const uint64_t leaked = usedNow > baselineFrames ? usedNow - baselineFrames
                                                     : 0;
    if (leaked)
        v.fail(sim::format("%llu frames leaked", (unsigned long long)leaked));
    else if (usedNow < baselineFrames)
        v.fail("frame usage fell below baseline (double free)");

    const mem::FrameAudit cxlAudit = m.cxl().auditLive();
    if (!cxlAudit.consistent)
        v.fail("CXL allocator audit failed: " + cxlAudit.detail);
    for (uint32_t i = 0; i < m.numNodes(); ++i) {
        const mem::FrameAudit a = m.nodeDram(i).auditLive();
        if (!a.consistent)
            v.fail("DRAM allocator audit failed: " + a.detail);
    }
    // The content index is bookkeeping over the same frames: it must
    // never keep an entry for a freed frame or lose a live one.
    const cxl::PageStoreAudit ps = cluster.fabric().pageStore().audit();
    if (!ps.consistent)
        v.fail("page-store audit failed: " + ps.detail);

    cxl::RasManager &ras = cluster.fabric().ras();
    if (ras.enabled()) {
        const cxl::RasAudit ra = ras.audit();
        if (!ra.consistent)
            v.fail("RAS audit failed: " + ra.detail);
        if (ras.replicaFrames() != 0) {
            v.fail(sim::format("%llu replica frames survived teardown",
                               (unsigned long long)ras.replicaFrames()));
        }
    }
    // Directory state must not outlive freed frames, however many
    // crash/recover rounds ran.
    if (cxl::CoherenceDirectory *dir = cluster.fabric().coherence()) {
        if (auto bad = dir->auditInvariants())
            v.fail("coherence audit failed: " + *bad);
    }
    if (cluster.checkpoints().stagedCount() != 0)
        v.fail("STAGED journal record survived teardown");
    return leaked;
}

Rig::Rig(const ClusterConfig &cc, rfork::MechanismKind k,
         const char *function, uint64_t heapPages, PageTokens tokens)
    : cluster(cc), kind(k), mech(rfork::makeMechanism(k, cluster.fabric())),
      baselineFrames(cluster.machine().usedFrames()),
      parent(cluster.node(0), function, heapPages, tokens)
{
}

Soak::Soak(const ClusterConfig &cc, rfork::MechanismKind k,
           const char *function, uint64_t heapPages, PageTokens tokens,
           uint64_t seed)
    : Rig(cc, k, function, heapPages, tokens), rng(seed),
      verdict(std::string(rfork::mechanismName(k)) + ": ")
{
}

std::optional<Soak::Hit>
Soak::lookupPublished(uint64_t *coldStarts)
{
    rfork::CheckpointStore &store = cluster.checkpoints();
    const std::optional<cxl::Cid> cid = store.lookup(kUser, parent.function);
    if (!cid) {
        ++*coldStarts;
        return std::nullopt;
    }
    auto handle = store.get(*cid);
    if (!handle) {
        fail("lookup returned a CID with no stored object");
        return std::nullopt;
    }
    const auto it = published.find(*cid);
    if (it == published.end()) {
        fail(sim::format("lookup returned unrecorded cid=%llu",
                         (unsigned long long)*cid));
        return std::nullopt;
    }
    return Hit{*cid, std::move(handle), it->second};
}

void
Soak::supersede(cxl::Cid cid)
{
    rfork::CheckpointStore &store = cluster.checkpoints();
    published[cid] = parent.image();
    for (auto it = published.begin(); it != published.end();) {
        if (it->first != cid && store.get(it->first)) {
            store.reclaim(it->first);
            it = published.erase(it);
        } else {
            ++it;
        }
    }
    pruneReclaimed();
}

void
Soak::afterRecovery(uint64_t pendingGen)
{
    rfork::CheckpointStore &store = cluster.checkpoints();
    if (store.stagedCount() != 0)
        fail("STAGED journal record survived recovery");
    if (auto cid = store.lookup(kUser, parent.function)) {
        if (!published.count(*cid))
            published[*cid] = {pendingGen, parent.start};
    }
    pruneReclaimed();
}

void
Soak::pruneReclaimed()
{
    for (auto it = published.begin(); it != published.end();) {
        if (!cluster.checkpoints().get(it->first))
            it = published.erase(it);
        else
            ++it;
    }
}

uint64_t
Soak::teardown()
{
    rfork::CheckpointStore &store = cluster.checkpoints();
    for (const auto &[cid, img] : published) {
        if (store.get(cid))
            store.reclaim(cid);
    }
    published.clear();
    parent.exit();
    return audit(verdict);
}

} // namespace cxlfork::porter::harness
