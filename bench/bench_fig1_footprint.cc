/**
 * @file
 * Figure 1: breakdown of the memory footprint of each FaaS function
 * into Init / Read-only / Read-write, measured (not echoed from the
 * spec): we deploy each function, clear the page-table A/D bits, run
 * 128 invocations, and classify every resident page by the A/D bits
 * the invocations left behind. Paper averages: 72.2 / 23 / 4.8 %.
 */

#include "bench_util.hh"

static int
benchMain()
{
    using namespace cxlfork;
    using os::Pte;

    sim::Table table("Figure 1: FaaS function footprint breakdown "
                     "(measured over 128 invocations)");
    table.setHeader({"Function", "Init %", "Read-only %", "Read/Write %",
                     "Footprint (MB)"});

    for (const auto &w : faas::table1Workloads()) {
        porter::Cluster cluster(bench::benchClusterConfig());
        auto inst =
            faas::FunctionInstance::deployCold(cluster.node(0), w.spec);
        // Clear both A and D bits so the classification below reflects
        // what the 128 invocations themselves touch, not the
        // initialization phase.
        inst->task().mm().pageTable().clearAccessedBits(/*alsoDirty=*/true);

        const int kInvocations = 128;
        for (int i = 0; i < kInvocations; ++i)
            inst->invoke();

        uint64_t init = 0, ro = 0, rw = 0;
        inst->task().mm().pageTable().forEachLeaf(
            [&](uint64_t, os::TablePage &leaf) {
                for (uint32_t i = 0; i < os::TablePage::kEntries; ++i) {
                    const Pte &p = leaf.pte(i);
                    if (!p.present())
                        continue;
                    if (p.dirty())
                        ++rw;
                    else if (p.accessed())
                        ++ro;
                    else
                        ++init;
                }
            });
        const double total = double(init + ro + rw);
        const double pInit = 100.0 * double(init) / total;
        const double pRo = 100.0 * double(ro) / total;
        const double pRw = 100.0 * double(rw) / total;
        bench::recordValue("fig1.init_pct", pInit);
        bench::recordValue("fig1.readonly_pct", pRo);
        bench::recordValue("fig1.readwrite_pct", pRw);
        bench::recordValue("fig1.footprint_mb", total * 4096 / (1 << 20));
        table.addRow({w.spec.name, sim::Table::num(pInit, 1),
                      sim::Table::num(pRo, 1), sim::Table::num(pRw, 1),
                      sim::Table::num(total * 4096 / (1 << 20), 0)});
    }
    const sim::MetricsRegistry &reg = bench::benchMetrics();
    table.addRow({"Average",
                  sim::Table::num(reg.findSummary("fig1.init_pct")->mean(),
                                  1),
                  sim::Table::num(
                      reg.findSummary("fig1.readonly_pct")->mean(), 1),
                  sim::Table::num(
                      reg.findSummary("fig1.readwrite_pct")->mean(), 1),
                  "-"});
    table.addNote("Paper Fig. 1 averages: Init 72.2%, Read-only 23%, "
                  "Read/Write 4.8%.");
    table.print();
    bench::finishBench("fig1");
    return 0;
}

int
main()
{
    return cxlfork::bench::guardedMain("bench_fig1_footprint", benchMain);
}
