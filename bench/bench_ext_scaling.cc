/**
 * @file
 * Extension: scaling to many nodes (paper Sec. 8 discussion).
 *
 * One Bert checkpoint on the shared CXL device, one clone per node,
 * sweeping the cluster from 2 to 16 nodes:
 *  - cluster-wide local memory and CXL memory vs per-node replication
 *    (the CRIU world), i.e. rack-scale deduplication;
 *  - restore latency as nodes are added — CXLfork has no parent-node
 *    bottleneck, but the shared device contends (cxl::contendedCosts);
 *  - every clone re-checkpoints through the content-addressed page
 *    store (dedup on), so the dedup factor is *measured* from the
 *    machine's cxl.dedup.* counters — pages interned over pages
 *    physically stored — not derived from footprint arithmetic;
 *  - the same sweep for Mitosis, whose checkpoint stays pinned in the
 *    parent node and whose restores all copy out of it.
 *
 * Each node count is one runSweep() point (CXLFORK_JOBS host threads)
 * with its own cluster; the tables print from the collected rows.
 */

#include "bench_util.hh"
#include "cxl/fabric_queue.hh"

static int
benchMain()
{
    using namespace cxlfork;

    const faas::FunctionSpec fn = *faas::findWorkload("Rnn");

    sim::Table t("Scaling: one checkpoint, one clone per node, "
                 "re-checkpoint per clone (Rnn, 190 MB, dedup on)");
    t.setHeader({"Nodes", "CXLfork restore (ms)", "CXLfork local MB/node",
                 "CXLfork CXL (MB)", "CRIU-world local (MB total)",
                 "Dedup hits", "Unique pages", "Measured dedup"});

    struct CxlRow
    {
        double restoreMsAvg = 0;
        double localMbPerNode = 0;
        double cxlMb = 0;
        double criuWorldMb = 0;
        uint64_t dedupHits = 0;
        uint64_t dedupUnique = 0;
        double dedupSavedMb = 0;
        double dedupFactor = 0;
    };
    const std::vector<uint32_t> cxlNodeCounts{2u, 4u, 8u, 16u};
    std::vector<CxlRow> cxlRows(cxlNodeCounts.size());

    bench::runSweep(cxlNodeCounts, [&](uint32_t nodes, size_t i) {
        porter::ClusterConfig cfg = bench::benchClusterConfig(
            cxl::contendedCosts(sim::CostParams{}, nodes));
        cfg.machine.numNodes = nodes;
        cfg.machine.dramPerNodeBytes = mem::gib(1);
        cfg.machine.cxlCapacityBytes = mem::gib(2);
        cfg.pageStore.dedup = true;
        porter::Cluster cluster(cfg);

        auto parent = bench::deployWarmParent(cluster, fn, 1);
        rfork::CxlFork cxlf(cluster.fabric());
        auto handle = cxlf.checkpoint(cluster.node(0), parent->task());
        // Parent exits: the checkpoint is decoupled (Sec. 3.1).
        parent->destroy();

        double restoreMsSum = 0;
        uint64_t localPerNode = 0;
        std::vector<std::unique_ptr<faas::FunctionInstance>> clones;
        // Every clone's warm re-checkpoint (Sec. 4.3 continuous
        // update) is kept alive: with the content index on, each one
        // interns the same unmodified pages — and the same
        // once-rewritten pages as its sibling clones — so the device
        // holds one copy where the node count would suggest N.
        std::vector<std::shared_ptr<rfork::CheckpointHandle>> reckpts;
        for (uint32_t n = 0; n < nodes; ++n) {
            rfork::RestoreStats rs;
            auto task = cxlf.restore(handle, cluster.node(n), {}, &rs);
            restoreMsSum += rs.latency.toMs();
            auto inst = faas::FunctionInstance::adoptRestored(
                cluster.node(n), fn, task);
            inst->invoke();
            localPerNode = inst->localBytes();
            reckpts.push_back(
                cxlf.checkpoint(cluster.node(n), inst->task()));
            clones.push_back(std::move(inst));
        }

        sim::MetricsRegistry &mm = cluster.machine().metrics();
        CxlRow row;
        row.cxlMb = double(handle->cxlBytes()) / (1 << 20);
        row.localMbPerNode = double(localPerNode) / (1 << 20);
        row.criuWorldMb =
            double(nodes) * double(fn.footprintBytes) / (1 << 20);
        row.restoreMsAvg = restoreMsSum / nodes;
        row.dedupHits = mm.counter("cxl.dedup.hits").value();
        row.dedupUnique = mm.counter("cxl.dedup.unique").value();
        row.dedupSavedMb =
            double(mm.counter("cxl.dedup.bytes_saved").value()) / (1 << 20);
        row.dedupFactor =
            row.dedupUnique == 0
                ? 1.0
                : double(row.dedupHits + row.dedupUnique) /
                      double(row.dedupUnique);
        cxlRows[i] = row;

        bench::recordValue("ext.restore_ms", row.restoreMsAvg);
        bench::recordValue("ext.dedup_hits", double(row.dedupHits));
        bench::recordValue("ext.dedup_unique", double(row.dedupUnique));
        bench::recordValue("ext.dedup_saved_mb", row.dedupSavedMb);
        bench::recordValue("ext.dedup_factor", row.dedupFactor);
    });

    for (size_t i = 0; i < cxlNodeCounts.size(); ++i) {
        const CxlRow &row = cxlRows[i];
        t.addRow({std::to_string(cxlNodeCounts[i]),
                  sim::Table::num(row.restoreMsAvg, 2),
                  sim::Table::num(row.localMbPerNode, 1),
                  sim::Table::num(row.cxlMb, 0),
                  sim::Table::num(row.criuWorldMb, 0),
                  std::to_string(row.dedupHits),
                  std::to_string(row.dedupUnique),
                  sim::Table::num(row.dedupFactor, 1) + "x"});
    }
    t.addNote("Restore latency grows only with fabric contention (no "
              "parent-node bottleneck); measured dedup = pages interned "
              "/ unique pages stored, from cxl.dedup.* counters.");
    t.print();

    // Mitosis for contrast: every clone copies its pages out of the
    // parent node, whose memory stays pinned.
    sim::Table m("Scaling contrast: Mitosis-CXL from one parent "
                 "(Rnn, 190 MB)");
    m.setHeader({"Nodes", "First-invoke fault time (ms, avg)",
                 "Parent-pinned (MB)", "Cluster local (MB total)"});

    struct MitoRow
    {
        double faultMsAvg = 0;
        double parentMb = 0;
        double clusterMb = 0;
    };
    const std::vector<uint32_t> mitoNodeCounts{2u, 4u, 8u};
    std::vector<MitoRow> mitoRows(mitoNodeCounts.size());

    bench::runSweep(mitoNodeCounts, [&](uint32_t nodes, size_t i) {
        porter::ClusterConfig cfg = bench::benchClusterConfig(
            cxl::contendedCosts(sim::CostParams{}, nodes));
        cfg.machine.numNodes = nodes;
        cfg.machine.dramPerNodeBytes = mem::gib(1);
        porter::Cluster cluster(cfg);

        auto parent = bench::deployWarmParent(cluster, fn, 1);
        rfork::MitosisCxl mito(cluster.fabric());
        auto handle = mito.checkpoint(cluster.node(0), parent->task());

        double faultMsSum = 0;
        uint64_t clusterLocal = handle->localBytes();
        std::vector<std::unique_ptr<faas::FunctionInstance>> clones;
        for (uint32_t n = 1; n < nodes; ++n) {
            auto task = mito.restore(handle, cluster.node(n));
            auto inst = faas::FunctionInstance::adoptRestored(
                cluster.node(n), fn, task);
            const sim::SimTime before = cluster.node(n).faultTime();
            inst->invoke();
            faultMsSum += (cluster.node(n).faultTime() - before).toMs();
            clusterLocal += inst->localBytes();
            clones.push_back(std::move(inst));
        }
        mitoRows[i] =
            MitoRow{faultMsSum / double(nodes - 1),
                    double(handle->localBytes()) / (1 << 20),
                    double(clusterLocal) / (1 << 20)};
    });

    for (size_t i = 0; i < mitoNodeCounts.size(); ++i) {
        const MitoRow &row = mitoRows[i];
        m.addRow({std::to_string(mitoNodeCounts[i]),
                  sim::Table::num(row.faultMsAvg, 1),
                  sim::Table::num(row.parentMb, 0),
                  sim::Table::num(row.clusterMb, 0)});
    }
    m.addNote("The parent node pins the shadow copy and serves every "
              "clone's lazy copies; CXLfork has neither cost.");
    m.print();
    bench::finishBench("ext_scaling");
    return 0;
}

int
main()
{
    return cxlfork::bench::guardedMain("bench_ext_scaling", benchMain);
}
