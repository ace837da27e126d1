/**
 * @file
 * Checkpoint performance (paper Sec. 7.1 "Checkpoint Performance"):
 * Mitosis and CXLfork checkpoint roughly an order of magnitude faster
 * than CRIU (no data serialization); Mitosis is ~1.5x faster than
 * CXLfork because it copies into local DRAM rather than CXL — at the
 * price of coupling the checkpoint to the parent node.
 */

#include "bench_util.hh"

static int
benchMain()
{
    using namespace cxlfork;

    sim::Table table("Checkpoint performance (Sec. 7.1)");
    table.setHeader({"Function", "CRIU (ms)", "Mitosis (ms)",
                     "CXLfork (ms)", "CRIU/CXLfork", "CXLfork/Mitosis",
                     "CXLfork CXL (MB)", "Mitosis local (MB)"});
    for (const auto &w : faas::table1Workloads()) {
        porter::Cluster cluster(bench::benchClusterConfig());
        auto parent = bench::deployWarmParent(cluster, w.spec);

        rfork::CriuCxl criu(cluster.fabric());
        rfork::MitosisCxl mito(cluster.fabric());
        rfork::CxlFork cxlf(cluster.fabric());

        rfork::CheckpointStats criuCs, mitoCs, cxlfCs;
        auto h1 = criu.checkpoint(cluster.node(0), parent->task(), &criuCs);
        auto h2 = mito.checkpoint(cluster.node(0), parent->task(), &mitoCs);
        auto h3 = cxlf.checkpoint(cluster.node(0), parent->task(), &cxlfCs);

        table.addRow(
            {w.spec.name, sim::Table::num(criuCs.latency.toMs(), 1),
             sim::Table::num(mitoCs.latency.toMs(), 1),
             sim::Table::num(cxlfCs.latency.toMs(), 1),
             sim::Table::num(criuCs.latency / cxlfCs.latency, 1) + "x",
             sim::Table::num(cxlfCs.latency / mitoCs.latency, 2) + "x",
             sim::Table::num(double(h3->cxlBytes()) / (1 << 20), 0),
             sim::Table::num(double(h2->localBytes()) / (1 << 20), 0)});
        bench::recordValue("ckpt.criu.latency_ms", criuCs.latency.toMs());
        bench::recordValue("ckpt.mitosis.latency_ms",
                           mitoCs.latency.toMs());
        bench::recordValue("ckpt.cxlfork.latency_ms",
                           cxlfCs.latency.toMs());
        bench::recordValue("ckpt.ratio.criu_vs_cxlfork",
                           criuCs.latency / cxlfCs.latency);
        bench::recordValue("ckpt.ratio.cxlfork_vs_mitosis",
                           cxlfCs.latency / mitoCs.latency);
        (void)h1;
    }
    const sim::MetricsRegistry &reg = bench::benchMetrics();
    table.addNote(sim::format(
        "Averages: CRIU/CXLfork %.1fx (paper: ~10x), CXLfork/Mitosis "
        "%.2fx (paper: ~1.5x).",
        reg.findSummary("ckpt.ratio.criu_vs_cxlfork")->mean(),
        reg.findSummary("ckpt.ratio.cxlfork_vs_mitosis")->mean()));
    table.addNote("Checkpointing is off the critical path: functions are "
                  "checkpointed once and restored many times.");
    table.print();
    bench::finishBench("ckpt");
    return 0;
}

int
main()
{
    return cxlfork::bench::guardedMain("bench_checkpoint", benchMain);
}
