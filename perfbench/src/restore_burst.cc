/**
 * @file
 * restore_burst: the Fig. 7 path on the paper's fabric with every
 * opt-in cxl layer off (the goldens' configuration), 4 nodes.
 *
 * Setup: warm parents of Json and Float (both fit the 64 MB LLC) and
 * Rnn and BFS (both exceed it) on node 0, each checkpointed once by
 * CXLfork, Mitosis-CXL and CRIU-CXL. Timed phase, closed loop: every op
 * is lookup, restore, first invoke, destroy, round-robin over mechanism
 * x function x target node 1-3 in a seeded order within each round.
 * os faults, page tables and rfork restore do nearly all the work;
 * page_store, ras, coherence, the queue and porter do none.
 */

#include "workloads.hh"

namespace perfbench {

namespace {

constexpr mem::NodeId kNodes = 4;
const char *const kFunctions[] = {"Json", "Float", "Rnn", "BFS"};

/** Closed-loop ops per host CPU second on the reference host. */
constexpr double kOpsPerSecond = 320.0;

porter::ClusterConfig
clusterConfig()
{
    porter::ClusterConfig cc;
    cc.machine.numNodes = kNodes;
    cc.machine.dramPerNodeBytes = mem::gib(4);
    cc.machine.cxlCapacityBytes = mem::gib(4);
    cc.machine.llcBytes = mem::mib(64);
    cc.machine.costs = sim::CostParams{};
    cc.machine.faults = sim::FaultConfig{};
    cc.coresPerNode = 8;
    cc.pageStore = cxl::PageStoreConfig{};
    cc.ras = cxl::RasConfig{};
    cc.coherence = cxl::CoherenceConfig{};
    cc.link = cxl::LinkHealthConfig{};
    cc.contention = cxl::FabricQueueConfig{};
    return cc;
}

struct Tenant
{
    faas::FunctionSpec spec;
    std::unique_ptr<faas::FunctionInstance> parent;
};

struct World
{
    porter::Cluster cluster{clusterConfig()};
    std::vector<uint64_t> baseline = frameCensus(cluster.machine());
    Mechanisms mechs = makeMechanisms(cluster.fabric());
    std::vector<Tenant> tenants;
    sim::Histogram checkpointNs;
};

/** The identity a (tenant, mechanism) checkpoint is published under. */
rfork::PublishIdentity
identity(const Tenant &t, Mechanism m)
{
    return {t.spec.user + "/" + mechKey(m), t.spec.name};
}

std::unique_ptr<World>
setUp(uint64_t seed, Ledger &setupLedger)
{
    auto w = std::make_unique<World>();
    sim::Rng rng(seed);
    os::NodeOs &node0 = w->cluster.node(0);
    for (const char *fn : kFunctions) {
        Tenant t;
        t.spec = seededSpec(fn, rng);
        t.parent = deployWarmParent(node0, t.spec, 3, setupLedger);
        for (Mechanism m : kMechs) {
            const sim::SimTime t0 = node0.clock().now();
            w->mechs.at(m)->checkpointPublished(
                w->cluster.checkpoints(), identity(t, m), node0,
                t.parent->task());
            w->checkpointNs.add(node0.clock().now() - t0);
        }
        w->tenants.push_back(std::move(t));
    }
    return w;
}

} // namespace

Outcome
runRestoreBurst(const RunOptions &opts, unsigned setupRepeats)
{
    Outcome out;
    Checks checks(out);
    Ledger setupLedger;
    std::unique_ptr<World> w =
        repeatSetUp(setupRepeats, out, setupLedger,
                    [&] { return setUp(opts.seed, setupLedger); });
    porter::Cluster &cluster = w->cluster;
    mem::Machine &machine = cluster.machine();
    machine.tracer().setEnabled(opts.traced);

    // The op order: every (mechanism, function, target) once per round,
    // shuffled by the seed.
    struct Op
    {
        Mechanism mech;
        size_t tenant;
        mem::NodeId target;
    };
    std::vector<Op> round;
    for (Mechanism m : kMechs)
        for (size_t t = 0; t < w->tenants.size(); ++t)
            for (mem::NodeId n = 1; n < kNodes; ++n)
                round.push_back({m, t, n});
    const uint64_t ops =
        opCount(opts.seconds, kOpsPerSecond, 1080, round.size());
    sim::Rng orderRng(opts.seed ^ 0x0de7'0de7ULL);

    Ledger ledger;
    RestoreRecorder rec;
    SpanFolder folder;
    const CounterSnapshot before(machine);
    ChunkTimer timer(out);
    for (uint64_t i = 0; i < ops; ++i) {
        if (i % round.size() == 0)
            orderRng.shuffle(round);
        const Op &op = round[i % round.size()];
        const Tenant &t = w->tenants[op.tenant];
        restoreOp(cluster, ledger, *w->mechs.at(op.mech), op.mech,
                  identity(t, op.mech), t.spec, op.target, rec);
        if (opts.traced)
            folder.fold(machine.tracer(), opts.chromeTracePath);
        if ((i + 1) % round.size() == 0)
            timer.lap(round.size());
    }
    timer.finish();
    out.attempted = ops;
    out.failed = rec.failed;
    const double deviceMb = double(machine.cxl().peakUsedBytes()) /
                            double(1 << 20);
    before.exportDeltas(machine, out.layer);
    machine.tracer().setEnabled(false);

    // Verification: one restore per (mechanism, checkpoint), every page
    // compared with the parent's.
    for (const Tenant &t : w->tenants) {
        for (Mechanism m : kMechs) {
            const rfork::PublishIdentity id = identity(t, m);
            const auto cid = cluster.checkpoints().lookup(id.user,
                                                          id.function);
            checks.expect(bool(cid), "checkpoint_lookup", id.user);
            if (cid) {
                verifyRestore(*w->mechs.at(m),
                              cluster.checkpoints().get(*cid), *t.parent,
                              cluster.node(1), opts.sabotage,
                              id.user + "/" + id.function, checks);
            }
        }
    }
    checks.expect(rec.failed == 0, "restore_failures",
                  std::to_string(rec.failed) + " ops failed");

    // Teardown: drop every checkpoint and parent, then audit.
    for (cxl::Cid cid : cluster.checkpoints().cids())
        cluster.checkpoints().reclaim(cid);
    for (Tenant &t : w->tenants)
        t.parent->destroy();
    auditTeardown(cluster, w->baseline, opts.sabotage, checks);

    rec.exportTo(out);
    putPercentiles(out.e2e, "sim_checkpoint_ms", w->checkpointNs);
    out.e2e["sim_device_mb"] = deviceMb;
    ledger.exportTo(out.layer);
    setupLedger.exportTo(out.layer);
    if (opts.traced) {
        folder.print("restore_burst: per-layer self time");
        out.layer["sim.trace.spans"] = double(folder.spans());
    }
    return out;
}

} // namespace perfbench
