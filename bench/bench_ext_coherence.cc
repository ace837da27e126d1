/**
 * @file
 * Extension: the coherence tax of restore (Sec. 2.2 device-coherency
 * discussion; DESIGN.md "Coherence model").
 *
 * Sweeps cluster size x coherence mode x write fraction for a
 * synthetic 64 MB function: one CXLfork checkpoint on the device, one
 * clone per non-parent node, each invoked once so its CoW writes evict
 * checkpoint lines from the directory. Reported per point:
 *
 *  - restore + first-invocation latency, with the directory's slice of
 *    it (`coh_tax_ms`, the cxl.coherence.tax_ns delta) split out;
 *  - directory traffic: lookups, back-invalidations, writebacks and
 *    explicit flushes — HDM-H pays back-invalidations on writes where
 *    HDM-D pays flushes at publication;
 *  - stale HDM-D reads, which must stay zero: every fork path flushes
 *    before publishing and invalidates before reusing, and a nonzero
 *    count here means one of them stopped (the litmus suite's negative
 *    controls prove the counter moves when a flush is elided).
 *
 * Mode "off" runs the identical schedule with no directory built; its
 * rows pin the baseline the tax is measured against, and its metrics
 * are byte-identical to the pre-coherence tree.
 */

#include "cxl/coherence.hh"

#include "bench_util.hh"

static int
benchMain()
{
    using namespace cxlfork;

    struct Point
    {
        uint32_t nodes;
        cxl::CoherenceMode mode;
        double rwFrac;
    };
    std::vector<Point> points;
    for (uint32_t nodes : {2u, 4u}) {
        for (cxl::CoherenceMode mode :
             {cxl::CoherenceMode::Off, cxl::CoherenceMode::HdmH,
              cxl::CoherenceMode::HdmD}) {
            for (double rw : {0.10, 0.50})
                points.push_back({nodes, mode, rw});
        }
    }

    struct Row
    {
        double restoreMsAvg = 0;
        double totalMsAvg = 0;
        double taxMsTotal = 0;
        uint64_t lookups = 0;
        uint64_t invalidations = 0;
        uint64_t writebacks = 0;
        uint64_t flushes = 0;
        uint64_t staleReads = 0;
    };
    std::vector<Row> rows(points.size());

    const auto pointName = [](const Point &p) {
        return sim::format("coh.%s.n%u.rw%02.0f",
                           cxl::coherenceModeName(p.mode), p.nodes,
                           p.rwFrac * 100);
    };

    bench::runSweep(points, [&](const Point &p, size_t i) {
        faas::FunctionSpec spec;
        spec.name = "cohfn";
        spec.footprintBytes = mem::mib(64);
        spec.initFrac = (1.0 - p.rwFrac) * 0.7;
        spec.roFrac = (1.0 - p.rwFrac) * 0.3;
        spec.rwFrac = p.rwFrac;
        spec.workingSetBytes = mem::mib(16);
        spec.wsReuse = 4;
        spec.computeTime = sim::SimTime::ms(20);
        spec.stateInitTime = sim::SimTime::ms(120);
        spec.vmaCount = 60;
        spec.seed = 11 + uint64_t(p.rwFrac * 100);

        porter::ClusterConfig cfg = bench::benchClusterConfig();
        cfg.machine.numNodes = p.nodes;
        cfg.machine.dramPerNodeBytes = mem::gib(1);
        cfg.coherence.mode = p.mode;
        porter::Cluster cluster(cfg);

        auto parent = bench::deployWarmParent(cluster, spec, 1);
        rfork::CxlFork cxlf(cluster.fabric());
        auto handle = cxlf.checkpoint(cluster.node(0), parent->task());

        const std::string name = pointName(p);
        Row row;
        for (uint32_t n = 1; n < p.nodes; ++n) {
            const bench::RforkRun run = bench::runRestoreScenario(
                cluster, cxlf, handle, spec, mem::NodeId(n), {});
            bench::recordRun(name, run);
            row.restoreMsAvg += run.restore.toMs();
            row.totalMsAvg += run.total().toMs();
        }
        row.restoreMsAvg /= double(p.nodes - 1);
        row.totalMsAvg /= double(p.nodes - 1);

        const sim::MetricsRegistry &mm = cluster.machine().metrics();
        row.taxMsTotal =
            double(mm.counterValue("cxl.coherence.tax_ns")) / 1e6;
        row.lookups = mm.counterValue("cxl.coherence.lookups");
        row.invalidations = mm.counterValue("cxl.coherence.invalidations");
        row.writebacks = mm.counterValue("cxl.coherence.writebacks");
        row.flushes = mm.counterValue("cxl.coherence.flushes");
        row.staleReads = mm.counterValue("cxl.coherence.stale_reads");
        rows[i] = row;

        // The directory counters join the golden surface so a fork
        // path that gains or loses a flush/invalidate fails the diff.
        if (p.mode != cxl::CoherenceMode::Off) {
            bench::recordValue(name + ".tax_ms_total", row.taxMsTotal);
            bench::recordValue(name + ".lookups", double(row.lookups));
            bench::recordValue(name + ".invalidations",
                               double(row.invalidations));
            bench::recordValue(name + ".writebacks",
                               double(row.writebacks));
            bench::recordValue(name + ".flushes", double(row.flushes));
            bench::recordValue(name + ".stale_reads",
                               double(row.staleReads));
        }
    });

    sim::Table t("Coherence tax sweep: 64 MB function, CXLfork, one "
                 "clone per non-parent node");
    t.setHeader({"Point", "Restore (ms)", "Total (ms)", "Tax (ms)",
                 "Lookups", "Back-inv", "Writebacks", "Flushes",
                 "Stale reads"});
    for (size_t i = 0; i < points.size(); ++i) {
        const Row &row = rows[i];
        t.addRow({pointName(points[i]),
                  sim::Table::num(row.restoreMsAvg, 3),
                  sim::Table::num(row.totalMsAvg, 2),
                  sim::Table::num(row.taxMsTotal, 3),
                  std::to_string(row.lookups),
                  std::to_string(row.invalidations),
                  std::to_string(row.writebacks),
                  std::to_string(row.flushes),
                  std::to_string(row.staleReads)});
    }
    t.addNote("Stale reads stay zero because every fork path flushes "
              "before publish and invalidates before reuse; the litmus "
              "negative controls prove the counter moves when they "
              "don't.");
    t.print();
    bench::finishBench("ext_coherence");
    return 0;
}

int
main()
{
    return cxlfork::bench::guardedMain("bench_ext_coherence", benchMain);
}
