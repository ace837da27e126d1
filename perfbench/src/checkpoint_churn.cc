/**
 * @file
 * checkpoint_churn: checkpoint writes beside restores, with every
 * opt-in layer armed (dedup + codec, RAS K=2, HDM-H coherence, link
 * degradation without severance plus a low transient rate, and the
 * fabric queue), 8 nodes.
 *
 * Two Json tenants share one runtime image, so dedup hits are real;
 * their heaps differ because each warms up a different number of times.
 * Each op is one round: the tenant's parent invokes (dirtying its
 * read-write pages), is re-published under a mechanism that rotates
 * round by round, its previous checkpoint is reclaimed, one RAS scrub
 * step runs, and every other node restores and invokes the new
 * checkpoint as one synchronized burst. The host hot spots of the
 * write path (CRC, content index, page release, codec metadata, the
 * queue) run here and not in restore_burst.
 */

#include "workloads.hh"

namespace perfbench {

namespace {

constexpr mem::NodeId kNodes = 8;
constexpr size_t kTenants = 2;

/** Rounds per host CPU second on the reference host. */
constexpr double kRoundsPerSecond = 32.0;

porter::ClusterConfig
clusterConfig(uint64_t seed)
{
    porter::ClusterConfig cc;
    cc.machine.numNodes = kNodes;
    cc.machine.dramPerNodeBytes = mem::gib(4);
    cc.machine.cxlCapacityBytes = mem::gib(4);
    cc.machine.llcBytes = mem::mib(64);
    cc.machine.costs = sim::CostParams{};
    cc.machine.faults = sim::FaultConfig{};
    cc.machine.faults.seed = seed;
    cc.machine.faults.cxlTransientRate = 1e-4;
    cc.machine.faults.linkDegradeRate = 1e-4;
    cc.coresPerNode = 8;
    cc.pageStore = cxl::PageStoreConfig{};
    cc.pageStore.dedup = true;
    cc.pageStore.compress = true;
    cc.ras = cxl::RasConfig{};
    cc.ras.enabled = true;
    cc.ras.replicas = 2;
    cc.coherence = cxl::CoherenceConfig{};
    cc.coherence.mode = cxl::CoherenceMode::HdmH;
    cc.link = cxl::LinkHealthConfig{};
    cc.link.enabled = true;
    cc.contention = cxl::FabricQueueConfig{};
    cc.contention.enabled = true;
    return cc;
}

struct Tenant
{
    faas::FunctionSpec spec;
    std::unique_ptr<faas::FunctionInstance> parent;
    cxl::Cid cid = 0; ///< The tenant's live checkpoint.
    Mechanism mech = Mechanism::CxlFork; ///< Who made it.
};

struct World
{
    explicit World(uint64_t seed) : cluster(clusterConfig(seed)) {}

    porter::Cluster cluster;
    std::vector<uint64_t> baseline = frameCensus(cluster.machine());
    Mechanisms mechs = makeMechanisms(cluster.fabric());
    std::vector<Tenant> tenants;
};

rfork::PublishIdentity
identity(const Tenant &t)
{
    return {t.spec.user, t.spec.name};
}

std::unique_ptr<World>
setUp(uint64_t seed, Ledger &setupLedger)
{
    auto w = std::make_unique<World>(seed);
    sim::Rng rng(seed);
    // One runtime image for every tenant: same function, same tokens.
    const faas::FunctionSpec shared = seededSpec("Json", rng);
    os::NodeOs &node0 = w->cluster.node(0);
    for (size_t i = 0; i < kTenants; ++i) {
        Tenant t;
        t.spec = shared;
        t.spec.user = "tenant" + std::to_string(i);
        t.parent = deployWarmParent(node0, t.spec, 2 + uint32_t(i),
                                    setupLedger);
        t.cid = w->mechs.at(t.mech)
                    ->checkpointPublished(w->cluster.checkpoints(),
                                          identity(t), node0,
                                          t.parent->task())
                    .cid;
        w->tenants.push_back(std::move(t));
    }
    return w;
}

} // namespace

Outcome
runCheckpointChurn(const RunOptions &opts, unsigned setupRepeats)
{
    Outcome out;
    Checks checks(out);
    Ledger setupLedger;
    std::unique_ptr<World> w =
        repeatSetUp(setupRepeats, out, setupLedger,
                    [&] { return setUp(opts.seed, setupLedger); });
    porter::Cluster &cluster = w->cluster;
    mem::Machine &machine = cluster.machine();
    rfork::CheckpointStore &store = cluster.checkpoints();
    os::NodeOs &node0 = cluster.node(0);
    machine.tracer().setEnabled(opts.traced);

    // The op order is fixed: tenants take turns and the mechanism
    // rotates each round. Which checkpoints are alive together sets
    // the device peak, so a seeded order would move sim_device_mb by
    // several percent from seed to seed; the seed reaches this
    // workload through tenant contents and the fault streams.
    const size_t block = kTenants * kMechs.size();
    const uint64_t rounds = opCount(opts.seconds, kRoundsPerSecond, 150,
                                    block);

    Ledger ledger;
    RestoreRecorder rec;
    SpanFolder folder;
    sim::Histogram checkpointNs;
    uint64_t failedRounds = 0;
    double pages = 0, leaves = 0, toCxl = 0, local = 0;
    const CounterSnapshot before(machine);
    ChunkTimer timer(out);
    for (uint64_t r = 0; r < rounds; ++r) {
        const Mechanism mech = kMechs[r % kMechs.size()];
        Tenant &t = w->tenants[r % kTenants];
        rfork::RemoteForkMechanism &rf = *w->mechs.at(mech);

        invokeOnce(ledger, *t.parent, rec);
        rfork::CheckpointStats cs;
        const sim::SimTime t0 = node0.clock().now();
        const cxl::Cid cid = ledger.call("rfork.checkpoint", node0, [&] {
            return rf.checkpointPublished(store, identity(t), node0,
                                          t.parent->task(), &cs)
                .cid;
        });
        checkpointNs.add(node0.clock().now() - t0);
        pages += double(cs.pages);
        leaves += double(cs.leaves);
        toCxl += double(cs.bytesToCxl);
        local += double(cs.bytesLocal);
        ledger.call("cxl.object_store.reclaim",
                    [&] { store.reclaim(t.cid); });
        t.cid = cid;
        t.mech = mech;
        ledger.call("cxl.ras.scrub", node0, [&] {
            cluster.fabric().ras().scrubStep(node0.clock());
        });

        // The synchronized burst: every restorer starts together,
        // no earlier than the publish.
        sim::SimTime start = node0.clock().now();
        for (mem::NodeId n = 1; n < kNodes; ++n)
            start = std::max(start, cluster.node(n).clock().now());
        for (mem::NodeId n = 1; n < kNodes; ++n)
            cluster.node(n).clock().advanceTo(start);
        bool ok = true;
        for (mem::NodeId n = 1; n < kNodes; ++n)
            ok &= restoreOp(cluster, ledger, rf, mech, identity(t),
                            t.spec, n, rec);
        failedRounds += !ok;
        if (opts.traced)
            folder.fold(machine.tracer(), opts.chromeTracePath);
        if ((r + 1) % block == 0)
            timer.lap(block);
    }
    timer.finish();
    out.attempted = rounds;
    out.failed = failedRounds;
    const double deviceMb = double(machine.cxl().peakUsedBytes()) /
                            double(1 << 20);
    before.exportDeltas(machine, out.layer);
    machine.tracer().setEnabled(false);

    // Verification: each tenant's live checkpoint, plus one fresh
    // checkpoint per other mechanism, restored and compared page by
    // page with the parent.
    for (Tenant &t : w->tenants) {
        for (Mechanism m : kMechs) {
            rfork::RemoteForkMechanism &rf = *w->mechs.at(m);
            std::shared_ptr<rfork::CheckpointHandle> handle;
            cxl::Cid fresh = 0;
            if (m == t.mech) {
                handle = store.get(t.cid);
            } else {
                const rfork::PublishedCheckpoint pub = rf.checkpointPublished(
                    store, {t.spec.user + "/verify", t.spec.name}, node0,
                    t.parent->task());
                fresh = pub.cid;
                handle = pub.handle;
            }
            checks.expect(bool(handle), "checkpoint_lookup", t.spec.user);
            if (handle) {
                verifyRestore(rf, handle, *t.parent, cluster.node(1),
                              opts.sabotage,
                              t.spec.user + "/" + mechKey(m), checks);
            }
            handle.reset();
            if (fresh)
                store.reclaim(fresh);
        }
    }
    checks.expect(rec.failed == 0 && failedRounds == 0, "restore_failures",
                  std::to_string(rec.failed) + " restores failed");

    for (cxl::Cid cid : store.cids())
        store.reclaim(cid);
    for (Tenant &t : w->tenants)
        t.parent->destroy();
    auditTeardown(cluster, w->baseline, opts.sabotage, checks);

    rec.exportTo(out);
    putPercentiles(out.e2e, "sim_checkpoint_ms", checkpointNs);
    out.e2e["sim_device_mb"] = deviceMb;
    out.layer["rfork.checkpoint.pages"] = pages;
    out.layer["rfork.checkpoint.leaves"] = leaves;
    out.layer["rfork.checkpoint.bytes_to_cxl_mb"] = toCxl / double(1 << 20);
    out.layer["rfork.checkpoint.bytes_local_mb"] = local / double(1 << 20);
    ledger.exportTo(out.layer);
    setupLedger.exportTo(out.layer);
    if (opts.traced) {
        folder.print("checkpoint_churn: per-layer self time");
        out.layer["sim.trace.spans"] = double(folder.spans());
    }
    return out;
}

} // namespace perfbench
