/**
 * @file
 * Figure 7: cold-start execution of every Table-1 function under each
 * rfork design, broken down into Restore / Page Faults / Execution
 * (7a), and the local memory consumed normalized to Cold (7b).
 *
 * Paper headline numbers: CXLfork restores in 1.2-6.1 ms (CRIU-CXL
 * 16-423 ms, Mitosis-CXL up to 15 ms); end-to-end CXLfork is ~14%
 * slower than LocalFork, 2.26x faster than CRIU-CXL and 1.40x faster
 * than Mitosis-CXL on average; Cold is ~11x slower than CXLfork.
 * Memory: CXLfork needs ~13% of Cold; -87% vs CRIU, -61% vs Mitosis.
 */

#include "rfork/mechanism.hh"

#include "bench_util.hh"

static int
benchMain()
{
    using namespace cxlfork;
    using bench::RforkRun;

    struct Row
    {
        std::string fn;
        RforkRun cold, local, criu, mito, cxlf;
    };
    std::vector<Row> rows;

    for (const auto &w : faas::table1Workloads()) {
        Row row;
        row.fn = w.spec.name;

        // Cold (vanilla, unsandboxed).
        {
            porter::Cluster cluster(bench::benchClusterConfig());
            row.cold = bench::runColdScenario(cluster, w.spec, 1);
        }
        // LocalFork.
        {
            porter::Cluster cluster(bench::benchClusterConfig());
            auto parent = bench::deployWarmParent(cluster, w.spec);
            row.local = bench::runLocalForkScenario(cluster, *parent);
        }
        // The remote mechanisms; CXLfork runs its default
        // migrate-on-write + dirty prefetch.
        auto remote = [&](rfork::MechanismKind kind) {
            porter::Cluster cluster(bench::benchClusterConfig());
            auto parent = bench::deployWarmParent(cluster, w.spec);
            auto mech = rfork::makeMechanism(kind, cluster.fabric());
            auto h = mech->checkpoint(cluster.node(0), parent->task());
            const RforkRun run =
                bench::runRestoreScenario(cluster, *mech, h, w.spec, 1);
            const std::string key = rfork::mechanismKey(kind);
            bench::collectRestorePhases(cluster.machine(),
                                        "fig7.phase." + key);
            if (kind == rfork::MechanismKind::CxlFork) {
                bench::maybeWriteChromeTrace(cluster.machine(),
                                             "fig7_cxlfork_" + w.spec.name);
            }
            return run;
        };
        row.criu = remote(rfork::MechanismKind::CriuCxl);
        row.mito = remote(rfork::MechanismKind::MitosisCxl);
        row.cxlf = remote(rfork::MechanismKind::CxlFork);
        bench::recordRun("fig7.cold", row.cold);
        bench::recordRun("fig7.localfork", row.local);
        bench::recordRun("fig7.criu", row.criu);
        bench::recordRun("fig7.mitosis", row.mito);
        bench::recordRun("fig7.cxlfork", row.cxlf);
        rows.push_back(std::move(row));
    }

    // --- Fig. 7a: latency breakdown.
    sim::Table lat("Figure 7a: cold-start execution breakdown (ms): "
                   "restore + page faults + execution");
    lat.setHeader({"Function", "Cold", "LocalFork",
                   "CRIU rst/flt/exec", "Mitosis rst/flt/exec",
                   "CXLfork rst/flt/exec", "CRIU tot", "Mitosis tot",
                   "CXLfork tot"});
    auto bd = [](const RforkRun &r) {
        return sim::Table::num(r.restore.toMs(), 1) + "/" +
               sim::Table::num(r.pageFaults.toMs(), 1) + "/" +
               sim::Table::num(r.execution.toMs(), 1);
    };
    for (const Row &r : rows) {
        lat.addRow({r.fn, sim::Table::num(r.cold.total().toMs(), 1),
                    sim::Table::num(r.local.total().toMs(), 1),
                    bd(r.criu), bd(r.mito), bd(r.cxlf),
                    sim::Table::num(r.criu.total().toMs(), 1),
                    sim::Table::num(r.mito.total().toMs(), 1),
                    sim::Table::num(r.cxlf.total().toMs(), 1)});
        bench::recordValue("fig7.ratio.cold_vs_cxlfork",
                           r.cold.total() / r.cxlf.total());
        bench::recordValue("fig7.ratio.cxlfork_vs_localfork",
                           r.cxlf.total() / r.local.total());
        bench::recordValue("fig7.ratio.criu_vs_cxlfork",
                           r.criu.total() / r.cxlf.total());
        bench::recordValue("fig7.ratio.mitosis_vs_cxlfork",
                           r.mito.total() / r.cxlf.total());
    }
    auto ratioMean = [](const char *name) {
        const sim::Summary *s = bench::benchMetrics().findSummary(name);
        return s ? s->mean() : 0.0;
    };
    lat.addNote(sim::format("CXLfork vs LocalFork: %.2fx slower on average "
                            "(paper: 1.14x).",
                            ratioMean("fig7.ratio.cxlfork_vs_localfork")));
    lat.addNote(sim::format("CXLfork speedup vs CRIU-CXL: %.2fx (paper: "
                            "2.26x); vs Mitosis-CXL: %.2fx (paper: 1.40x).",
                            ratioMean("fig7.ratio.criu_vs_cxlfork"),
                            ratioMean("fig7.ratio.mitosis_vs_cxlfork")));
    lat.addNote(sim::format("Cold vs CXLfork: %.1fx slower on average "
                            "(paper: ~11x).",
                            ratioMean("fig7.ratio.cold_vs_cxlfork")));
    lat.print();

    // --- Restore range summary, straight off the recorded summaries.
    sim::Table rst("Figure 7a detail: restore latency ranges (ms)");
    rst.setHeader({"Mechanism", "Min", "Max"});
    auto range = [&](const char *name, const char *scenario) {
        const sim::Summary *s = bench::benchMetrics().findSummary(
            std::string(scenario) + ".restore_ms");
        rst.addRow({name, sim::Table::num(s ? s->min() : 0.0, 1),
                    sim::Table::num(s ? s->max() : 0.0, 1)});
    };
    range("CRIU-CXL", "fig7.criu");
    range("Mitosis-CXL", "fig7.mitosis");
    range("CXLfork", "fig7.cxlfork");
    rst.addNote("Paper: CRIU 16-423 ms, Mitosis up to 15 ms, CXLfork "
                "1.2-6.1 ms.");
    rst.print();

    // --- Fig. 7b: normalized local memory.
    sim::Table memTable("Figure 7b: local memory consumption, "
                        "normalized to Cold");
    memTable.setHeader({"Function", "Cold (MB)", "CRIU-CXL", "Mitosis-CXL",
                        "CXLfork"});
    for (const Row &r : rows) {
        const double cold = double(r.cold.localBytes);
        memTable.addRow({r.fn,
                         sim::Table::num(cold / (1 << 20), 0),
                         sim::Table::num(double(r.criu.localBytes) / cold, 2),
                         sim::Table::num(double(r.mito.localBytes) / cold, 2),
                         sim::Table::num(double(r.cxlf.localBytes) / cold,
                                         2)});
        bench::recordValue("fig7.mem_ratio.criu",
                           double(r.criu.localBytes) / cold);
        bench::recordValue("fig7.mem_ratio.mitosis",
                           double(r.mito.localBytes) / cold);
        bench::recordValue("fig7.mem_ratio.cxlfork",
                           double(r.cxlf.localBytes) / cold);
    }
    const double mCriu = ratioMean("fig7.mem_ratio.criu");
    const double mMito = ratioMean("fig7.mem_ratio.mitosis");
    const double mCxlf = ratioMean("fig7.mem_ratio.cxlfork");
    memTable.addRow({"Average", "-", sim::Table::num(mCriu, 2),
                     sim::Table::num(mMito, 2),
                     sim::Table::num(mCxlf, 2)});
    memTable.addNote(sim::format(
        "CXLfork reduces local memory by %.0f%% vs CRIU-CXL (paper: 87%%) "
        "and %.0f%% vs Mitosis-CXL (paper: 61%%).",
        100.0 * (1.0 - mCxlf / mCriu), 100.0 * (1.0 - mCxlf / mMito)));
    memTable.print();

    bench::printPhaseBreakdown("fig7.phase.cxlfork",
                               "CXLfork restore: per-phase cost");
    bench::printPhaseBreakdown("fig7.phase.criu",
                               "CRIU-CXL restore: per-phase cost");
    bench::printPhaseBreakdown("fig7.phase.mitosis",
                               "Mitosis-CXL restore: per-phase cost");
    bench::finishBench("fig7");
    return 0;
}

int
main()
{
    return cxlfork::bench::guardedMain("bench_fig7_rfork", benchMain);
}
