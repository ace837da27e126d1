/**
 * @file
 * Table 1: the serverless functions used in the evaluation, with their
 * footprints (paper values) and this reproduction's derived segment
 * geometry.
 */

#include "bench_util.hh"

static int
benchMain()
{
    using namespace cxlfork;

    sim::Table table("Table 1: Serverless functions used in the evaluation");
    table.setHeader({"Function", "Description", "Footprint (MB)",
                     "Init %", "RO %", "RW %", "WorkingSet (MB)",
                     "VMAs", "StateInit (ms)"});
    for (const auto &w : faas::table1Workloads()) {
        const auto &s = w.spec;
        bench::recordValue("table1.footprint_mb",
                           double(s.footprintBytes) / (1 << 20));
        bench::recordValue("table1.working_set_mb",
                           double(s.effectiveWorkingSet()) / (1 << 20));
        bench::recordValue("table1.state_init_ms", s.stateInitTime.toMs());
        table.addRow({s.name, w.description,
                      sim::Table::num(double(s.footprintBytes) / (1 << 20), 0),
                      sim::Table::num(s.initFrac * 100, 0),
                      sim::Table::num(s.roFrac * 100, 0),
                      sim::Table::num(s.rwFrac * 100, 0),
                      sim::Table::num(double(s.effectiveWorkingSet()) /
                                          (1 << 20), 0),
                      std::to_string(s.vmaCount),
                      sim::Table::num(s.stateInitTime.toMs(), 0)});
    }
    table.addNote("Footprints and descriptions from paper Table 1; the "
                  "segment split and working sets are this reproduction's "
                  "calibration (see DESIGN.md).");
    table.print();
    bench::finishBench("table1");
    return 0;
}

int
main()
{
    return cxlfork::bench::guardedMain("bench_table1_functions", benchMain);
}
