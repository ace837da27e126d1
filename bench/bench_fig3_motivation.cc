/**
 * @file
 * Figure 3c: the motivation experiment. Fork a BERT instance to a new
 * node with CRIU-CXL and Mitosis-CXL and run one inference; compare
 * end-to-end latency and local memory against local fork. Paper: CRIU
 * restore alone is 2.7x local fork+exec; CRIU consumes 42x the local
 * memory; Mitosis 2.6x total latency and 24x memory.
 */

#include "rfork/mechanism.hh"

#include "bench_util.hh"

static int
benchMain()
{
    using namespace cxlfork;
    using bench::RforkRun;

    const faas::FunctionSpec bert = *faas::findWorkload("Bert");

    // LocalFork baseline.
    porter::Cluster lfCluster(bench::benchClusterConfig());
    auto lfParent = bench::deployWarmParent(lfCluster, bert);
    const RforkRun localRun =
        bench::runLocalForkScenario(lfCluster, *lfParent);

    // CRIU-CXL and Mitosis-CXL, each on its own cluster.
    auto remote = [&](rfork::MechanismKind kind) {
        porter::Cluster cluster(bench::benchClusterConfig());
        auto parent = bench::deployWarmParent(cluster, bert);
        auto mech = rfork::makeMechanism(kind, cluster.fabric());
        auto handle = mech->checkpoint(cluster.node(0), parent->task());
        const RforkRun run =
            bench::runRestoreScenario(cluster, *mech, handle, bert, 1);
        bench::collectRestorePhases(
            cluster.machine(),
            std::string("fig3.phase.") + rfork::mechanismKey(kind));
        return run;
    };
    const RforkRun criuRun = remote(rfork::MechanismKind::CriuCxl);
    const RforkRun mitoRun = remote(rfork::MechanismKind::MitosisCxl);

    bench::recordRun("fig3.localfork", localRun);
    bench::recordRun("fig3.criu", criuRun);
    bench::recordRun("fig3.mitosis", mitoRun);
    bench::recordValue("fig3.ratio.criu_vs_localfork",
                       criuRun.total() / localRun.total());
    bench::recordValue("fig3.ratio.mitosis_vs_localfork",
                       mitoRun.total() / localRun.total());

    sim::Table table("Figure 3c: BERT remote fork with existing "
                     "mechanisms (state already checkpointed)");
    table.setHeader({"Scenario", "Restore (ms)", "Faults (ms)",
                     "Exec (ms)", "Total (ms)", "vs LocalFork",
                     "Local mem (MB)", "Mem vs LocalFork"});
    auto addRow = [&](const char *name, const RforkRun &r) {
        table.addRow(
            {name, sim::Table::num(r.restore.toMs(), 1),
             sim::Table::num(r.pageFaults.toMs(), 1),
             sim::Table::num(r.execution.toMs(), 1),
             sim::Table::num(r.total().toMs(), 1),
             sim::Table::num(r.total() / localRun.total(), 2) + "x",
             sim::Table::num(double(r.localBytes) / (1 << 20), 1),
             sim::Table::num(double(r.localBytes) /
                                 double(localRun.localBytes), 1) +
                 "x"});
    };
    addRow("LocalFork", localRun);
    addRow("CRIU-CXL", criuRun);
    addRow("Mitosis-CXL", mitoRun);
    table.addNote("Paper: CRIU restore 2.7x local fork+exec, 42x local "
                  "memory; Mitosis 2.6x end-to-end, 24x local memory.");
    table.print();
    bench::printPhaseBreakdown("fig3.phase.criu",
                               "CRIU-CXL restore: per-phase cost");
    bench::printPhaseBreakdown("fig3.phase.mitosis",
                               "Mitosis-CXL restore: per-phase cost");
    bench::finishBench("fig3");
    return 0;
}

int
main()
{
    return cxlfork::bench::guardedMain("bench_fig3_motivation", benchMain);
}
