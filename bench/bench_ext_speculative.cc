/**
 * @file
 * Extension: speculative restore — the trace-trained working-set
 * prefetcher and the compressed checkpoint tier (DESIGN.md
 * "Speculative restore").
 *
 * Two ablations over the representative Table-1 workloads:
 *
 *  1. Accuracy sweep, per mechanism: train a predictor on sacrificial
 *     lazy restores, then restore with the schedule deterministically
 *     degraded to 0/50/90/100% accuracy (mispredictions become cold
 *     decoys: wasted issue + fabric time, never a fault) and compare
 *     restore latency against the lazy baseline. The win must shrink
 *     honestly as accuracy drops — at 0% the restore pays the whole
 *     batch for nothing and can only lose.
 *
 *  2. Compression sweep, CXLfork and CRIU-CXL: checkpoint once with
 *     the dedup-only store and once with the codec pipeline stacked on
 *     it, reporting the stored-byte ratio and where the one-time
 *     decompress latency lands (CRIU pays it up front on the bulk
 *     image read; CXLfork pays it lazily as faults materialize pages),
 *     plus the combined prefetch@90% + compression run.
 *
 * Every simulated result is deterministic and independent of
 * CXLFORK_JOBS; the exported metrics are the golden surface.
 */

#include "rfork/mechanism.hh"

#include "bench_util.hh"

namespace {

using namespace cxlfork;

using rfork::MechanismKind;

/** LocalFork restores on the parent's node; the rest cross to node 1. */
mem::NodeId
targetNode(MechanismKind m)
{
    return m == MechanismKind::LocalFork ? 0 : 1;
}

/**
 * Cold decoy pages for degradeSchedule: addresses just past the hot
 * set, far enough that no invocation touches them. Unknown-to-the-VMA
 * decoys still cost their issue slot, which is the honest price of a
 * misprediction.
 */
std::vector<uint64_t>
decoysFor(const rfork::PrefetchSchedule &sched)
{
    uint64_t maxVpn = 0;
    for (const auto &e : sched.pages)
        maxVpn = std::max(maxVpn, e.vpn);
    std::vector<uint64_t> decoys;
    decoys.reserve(16);
    for (uint64_t i = 0; i < 16; ++i)
        decoys.push_back(maxVpn + 4096 + i);
    return decoys;
}

} // namespace

static int
benchMain()
{
    const std::vector<faas::FunctionSpec> workloads =
        faas::representativeWorkloads();
    const std::vector<MechanismKind> mechs = {
        MechanismKind::LocalFork, MechanismKind::CriuCxl,
        MechanismKind::MitosisCxl, MechanismKind::CxlFork};
    const std::vector<unsigned> accuracies = {0, 50, 90, 100};

    // --- Ablation 1: restore latency vs. predictor accuracy.
    struct AccPoint
    {
        faas::FunctionSpec spec;
        MechanismKind mech;
    };
    std::vector<AccPoint> accPoints;
    for (const auto &spec : workloads)
        for (MechanismKind m : mechs)
            accPoints.push_back({spec, m});

    struct AccRow
    {
        double lazyMs = 0;
        std::vector<double> accMs; ///< One per accuracies[] entry.
        std::vector<double> hitPct;
    };
    std::vector<AccRow> accRows(accPoints.size());

    bench::runSweep(accPoints, [&](const AccPoint &p, size_t i) {
        porter::Cluster cluster(bench::benchClusterConfig());
        auto parent = bench::deployWarmParent(cluster, p.spec);
        auto mech = rfork::makeMechanism(p.mech, cluster.fabric());
        auto handle =
            mech->checkpoint(cluster.node(0), parent->task());
        const mem::NodeId tgt = targetNode(p.mech);
        const std::string name = sim::format("spec.acc.%s.%s",
                                             rfork::mechanismKey(p.mech),
                                             p.spec.name.c_str());

        const rfork::PrefetchSchedule trained =
            bench::trainSchedule(cluster, *mech, handle, p.spec, tgt);
        const std::vector<uint64_t> decoys = decoysFor(trained);

        // Every run is fully lazy (no opportunistic dirty-page copy) so
        // the sweep isolates the trained schedule: the only difference
        // between the baseline and the accNN runs is the speculation.
        // The metric is end-to-end (restore + first invocation): the
        // batch pre-pays fault time inside the restore, so the restore
        // phase alone would book the win as a loss.
        rfork::RestoreOptions lazyOpts;
        lazyOpts.prefetchDirty = false;

        AccRow row;
        const bench::RforkRun lazy = bench::runRestoreScenario(
            cluster, *mech, handle, p.spec, tgt, lazyOpts);
        bench::recordRun(name + ".lazy", lazy);
        row.lazyMs = lazy.total().toMs();

        for (unsigned acc : accuracies) {
            const rfork::PrefetchSchedule degraded = rfork::degradeSchedule(
                trained, double(acc) / 100.0, decoys,
                /*seed=*/0x5bec + i * 131 + acc);
            rfork::RestoreOptions opts = lazyOpts;
            opts.prefetch = &degraded;
            const bench::RforkRun run = bench::runRestoreScenario(
                cluster, *mech, handle, p.spec, tgt, opts);
            bench::recordRun(sim::format("%s.acc%u", name.c_str(), acc),
                             run);
            row.accMs.push_back(run.total().toMs());
            const uint64_t issued = run.pagesPrefetched + run.prefetchSkipped;
            row.hitPct.push_back(
                issued ? 100.0 * double(run.pagesPrefetched) / double(issued)
                       : 0.0);
        }
        // The headline: how much of the lazy restore the 90%- and
        // 100%-accurate schedules buy back.
        bench::recordValue(name + ".speedup_acc90",
                           row.lazyMs / row.accMs[2]);
        bench::recordValue(name + ".speedup_acc100",
                           row.lazyMs / row.accMs[3]);
        accRows[i] = row;
    });

    sim::Table acc("Speculative restore: restore + first invocation (ms) "
                   "vs. predictor accuracy (mispredictions become cold "
                   "decoys)");
    acc.setHeader({"Mechanism", "Function", "Lazy", "0%", "50%", "90%",
                   "100%", "Hit% @90", "Speedup @90"});
    for (size_t i = 0; i < accPoints.size(); ++i) {
        const AccRow &r = accRows[i];
        acc.addRow({rfork::mechanismKey(accPoints[i].mech),
                    accPoints[i].spec.name,
                    sim::Table::num(r.lazyMs, 2),
                    sim::Table::num(r.accMs[0], 2),
                    sim::Table::num(r.accMs[1], 2),
                    sim::Table::num(r.accMs[2], 2),
                    sim::Table::num(r.accMs[3], 2),
                    sim::Table::num(r.hitPct[2], 1),
                    sim::Table::num(r.lazyMs / r.accMs[2], 2)});
    }
    acc.addNote("Lazy restores defer the working set to demand faults; "
                "the batch moves those pages at bandwidth instead of "
                "per-fault latency, so the win scales with accuracy and "
                "dies at 0% (pure decoy issue).");
    acc.print();

    // --- Ablation 2: compressed checkpoint tier.
    struct CompPoint
    {
        faas::FunctionSpec spec;
        MechanismKind mech;
    };
    std::vector<CompPoint> compPoints;
    for (const auto &spec : workloads)
        for (MechanismKind m :
             {MechanismKind::CriuCxl, MechanismKind::CxlFork})
            compPoints.push_back({spec, m});

    struct CompRow
    {
        double dedupMs = 0, compMs = 0, bothMs = 0;
        double storedRatio = 0; ///< Stored bytes / raw page bytes.
        double decompressMs = 0;
    };
    std::vector<CompRow> compRows(compPoints.size());

    bench::runSweep(compPoints, [&](const CompPoint &p, size_t i) {
        const std::string name = sim::format("spec.comp.%s.%s",
                                             rfork::mechanismKey(p.mech),
                                             p.spec.name.c_str());
        CompRow row;
        rfork::PrefetchSchedule trained;
        // Fully lazy restores throughout (as in ablation 1): dedup vs.
        // comp then isolates the codec, comp vs. both the prefetch.
        rfork::RestoreOptions lazyOpts;
        lazyOpts.prefetchDirty = false;

        // Dedup-only baseline cluster.
        {
            porter::ClusterConfig cfg = bench::benchClusterConfig();
            cfg.pageStore.dedup = true;
            porter::Cluster cluster(cfg);
            auto parent = bench::deployWarmParent(cluster, p.spec);
            auto mech = rfork::makeMechanism(p.mech, cluster.fabric());
            auto handle = mech->checkpoint(cluster.node(0), parent->task());
            const mem::NodeId tgt = targetNode(p.mech);
            trained =
                bench::trainSchedule(cluster, *mech, handle, p.spec, tgt);
            const bench::RforkRun run = bench::runRestoreScenario(
                cluster, *mech, handle, p.spec, tgt, lazyOpts);
            bench::recordRun(name + ".dedup", run);
            row.dedupMs = run.total().toMs();
        }

        // Codec pipeline stacked on dedup.
        {
            porter::ClusterConfig cfg = bench::benchClusterConfig();
            cfg.pageStore.dedup = true;
            cfg.pageStore.compress = true;
            porter::Cluster cluster(cfg);
            auto parent = bench::deployWarmParent(cluster, p.spec);
            auto mech = rfork::makeMechanism(p.mech, cluster.fabric());
            auto handle = mech->checkpoint(cluster.node(0), parent->task());
            const mem::NodeId tgt = targetNode(p.mech);

            const sim::MetricsRegistry &mm = cluster.machine().metrics();
            const uint64_t pages = mm.counterValue("cxl.compress.pages");
            const uint64_t stored =
                mm.counterValue("cxl.compress.bytes_stored");
            row.storedRatio = pages ? double(stored) /
                                          double(pages * mem::kPageSize)
                                    : 1.0;

            const bench::RforkRun comp = bench::runRestoreScenario(
                cluster, *mech, handle, p.spec, tgt, lazyOpts);
            bench::recordRun(name + ".comp", comp);
            row.compMs = comp.total().toMs();
            row.decompressMs = comp.decompressTime.toMs();
        }

        // Combined: 90%-accurate prefetch over compressed pages, on a
        // fresh cluster so every page still owes its one-time
        // decompress — reusing the cluster above would let this run
        // ride on decompressions the previous restore already paid.
        // (The address layout is deterministic per spec, so the dedup
        // cluster's schedule transfers verbatim.)
        {
            porter::ClusterConfig cfg = bench::benchClusterConfig();
            cfg.pageStore.dedup = true;
            cfg.pageStore.compress = true;
            porter::Cluster cluster(cfg);
            auto parent = bench::deployWarmParent(cluster, p.spec);
            auto mech = rfork::makeMechanism(p.mech, cluster.fabric());
            auto handle = mech->checkpoint(cluster.node(0), parent->task());
            const mem::NodeId tgt = targetNode(p.mech);

            const rfork::PrefetchSchedule degraded = rfork::degradeSchedule(
                trained, 0.90, decoysFor(trained), /*seed=*/0xc0de + i);
            rfork::RestoreOptions opts = lazyOpts;
            opts.prefetch = &degraded;
            const bench::RforkRun both = bench::runRestoreScenario(
                cluster, *mech, handle, p.spec, tgt, opts);
            bench::recordRun(name + ".both", both);
            row.bothMs = both.total().toMs();
        }

        bench::recordValue(name + ".stored_ratio", row.storedRatio);
        compRows[i] = row;
    });

    sim::Table comp("Compressed checkpoint tier: stored-byte ratio and "
                    "restore + first invocation (ms), dedup-only vs. "
                    "dedup+codec vs. codec + 90% prefetch");
    comp.setHeader({"Mechanism", "Function", "Stored ratio", "Dedup",
                    "Compressed", "Decompress", "Both"});
    for (size_t i = 0; i < compPoints.size(); ++i) {
        const CompRow &r = compRows[i];
        comp.addRow({rfork::mechanismKey(compPoints[i].mech),
                     compPoints[i].spec.name,
                     sim::Table::num(r.storedRatio, 3),
                     sim::Table::num(r.dedupMs, 2),
                     sim::Table::num(r.compMs, 2),
                     sim::Table::num(r.decompressMs, 3),
                     sim::Table::num(r.bothMs, 2)});
    }
    comp.addNote("CRIU pays the whole decompress up front on its bulk "
                 "image read; CXLfork defers it to the faults (and "
                 "prefetch batches) that actually materialize pages.");
    comp.print();

    bench::finishBench("ext_speculative");
    return 0;
}

int
main()
{
    return cxlfork::bench::guardedMain("bench_ext_speculative", benchMain);
}
