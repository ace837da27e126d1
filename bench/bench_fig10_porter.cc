/**
 * @file
 * Figure 10: CXLporter end-to-end. P99 (10a) and P50 (10b) function
 * latency under Azure-style bursty load at 150 RPS with ample memory,
 * normalized to CRIU-CXL; and the memory-constrained sweep (10c) at
 * 100% / 50% / 25% of node memory.
 *
 * Paper: with ample memory Mitosis-CXL and CXLfork cut P99 by 51% and
 * 70% vs CRIU-CXL; P50s are similar; static CXLfork-MoW trails dynamic
 * CXLfork. At 25% memory CXLfork's P99 is ~16x better and matches
 * CXLfork-MoW (pressure forces the MoW policy).
 */

#include "porter/autoscaler.hh"
#include "porter/trace.hh"

#include "bench_util.hh"

static int
benchMain()
{
    using namespace cxlfork;
    using porter::Mechanism;
    using porter::PorterConfig;
    using porter::PorterMetrics;
    using porter::PorterSim;

    std::vector<faas::FunctionSpec> functions;
    std::vector<std::string> names;
    for (const auto &w : faas::table1Workloads()) {
        functions.push_back(w.spec);
        names.push_back(w.spec.name);
    }

    porter::TraceConfig tc;
    tc.totalRps = 150.0;
    tc.duration = sim::SimTime::sec(60);
    tc.seed = 0xa2u;
    const auto trace = porter::TraceGenerator(names, tc).generate();
    std::printf("trace: %zu requests over %.0f s (%.1f RPS)\n",
                trace.size(), tc.duration.toSec(),
                porter::TraceGenerator::measuredRps(trace, tc.duration));

    porter::PerfModel perf;

    struct Variant
    {
        const char *name;
        Mechanism mech;
        bool dynamic;
    };
    const std::vector<Variant> variants{
        {"CRIU-CXL", Mechanism::CriuCxl, false},
        {"Mitosis-CXL", Mechanism::MitosisCxl, false},
        {"CXLfork-MoW", Mechanism::CxlFork, false},
        {"CXLfork", Mechanism::CxlFork, true},
    };

    // One sweep point per (variant, memory scale): the ample runs
    // first, then each variant's constrained pair, mirroring the old
    // serial execution order so the merged metrics are unchanged.
    // Every point gets its own Tracer; the PerfModel is shared (it is
    // thread-safe and caches each deterministic profile process-wide).
    struct Point
    {
        size_t vIdx;
        double memScale;
    };
    std::vector<Point> points;
    for (size_t v = 0; v < variants.size(); ++v)
        points.push_back({v, 1.0});
    for (size_t v = 0; v < variants.size(); ++v) {
        points.push_back({v, 0.50});
        points.push_back({v, 0.25});
    }
    std::vector<PorterMetrics> results(points.size());

    bench::runSweep(points, [&](const Point &p, size_t i) {
        const Variant &v = variants[p.vIdx];
        PorterConfig cfg;
        cfg.mechanism = v.mech;
        cfg.dynamicTiering = v.dynamic;
        cfg.memPerNodeBytes = mem::gib(8);
        cfg.memoryScale = p.memScale;
        cfg.coresPerNode = 32; // one VM per 64-core socket (Sec. 6.1)
        sim::Tracer pointTracer;
        pointTracer.setEnabled(bench::traceEnabled());
        PorterSim sim(cfg, functions, perf);
        sim.attachObservability(&pointTracer, &bench::benchMetrics());
        results[i] = sim.run(trace);
    });

    // --- Fig. 10a/b: ample memory.
    std::map<std::string, PorterMetrics> ample;
    for (size_t v = 0; v < variants.size(); ++v) {
        ample[variants[v].name] = results[v];
        const std::string stem = std::string("fig10.") + variants[v].name;
        bench::recordValue(stem + ".p99_ms", results[v].p99Ms());
        bench::recordValue(stem + ".p50_ms", results[v].p50Ms());
    }

    const double criuP99 = ample["CRIU-CXL"].p99Ms();
    const double criuP50 = ample["CRIU-CXL"].p50Ms();

    sim::Table t10a("Figure 10a/b: function latency with abundant memory "
                    "(normalized to CRIU-CXL)");
    t10a.setHeader({"Variant", "P99 (ms)", "P99 norm", "P50 (ms)",
                    "P50 norm", "Warm hits", "Restores", "Cold starts",
                    "Ghost hits", "Promotions"});
    for (const Variant &v : variants) {
        const PorterMetrics &m = ample[v.name];
        t10a.addRow({v.name, sim::Table::num(m.p99Ms(), 1),
                     sim::Table::num(m.p99Ms() / criuP99, 2),
                     sim::Table::num(m.p50Ms(), 1),
                     sim::Table::num(m.p50Ms() / criuP50, 2),
                     std::to_string(m.warmHits), std::to_string(m.restores),
                     std::to_string(m.coldStarts),
                     std::to_string(m.ghostHits),
                     std::to_string(m.tieringPromotions)});
    }
    t10a.addNote(sim::format(
        "P99 reduction vs CRIU-CXL: Mitosis %.0f%% (paper 51%%), CXLfork "
        "%.0f%% (paper 70%%).",
        100.0 * (1.0 - ample["Mitosis-CXL"].p99Ms() / criuP99),
        100.0 * (1.0 - ample["CXLfork"].p99Ms() / criuP99)));
    t10a.print();

    // --- Fig. 10c: memory-constrained sweep.
    sim::Table t10c("Figure 10c: P99 (top) and P50 (bottom) under "
                    "constrained memory, normalized to CRIU-CXL at each "
                    "memory point");
    t10c.setHeader({"Variant", "P99 100%", "P99 50%", "P99 25%",
                    "P50 100%", "P50 50%", "P50 25%"});
    std::map<std::string, std::map<int, PorterMetrics>> sweep;
    for (size_t v = 0; v < variants.size(); ++v) {
        sweep[variants[v].name][100] = ample[variants[v].name];
        sweep[variants[v].name][50] = results[variants.size() + 2 * v];
        sweep[variants[v].name][25] = results[variants.size() + 2 * v + 1];
    }
    for (const Variant &v : variants) {
        std::vector<std::string> row{v.name};
        for (int pct : {100, 50, 25}) {
            row.push_back(sim::Table::num(
                sweep[v.name][pct].p99Ms() / sweep["CRIU-CXL"][pct].p99Ms(),
                3));
        }
        for (int pct : {100, 50, 25}) {
            row.push_back(sim::Table::num(
                sweep[v.name][pct].p50Ms() / sweep["CRIU-CXL"][pct].p50Ms(),
                3));
        }
        t10c.addRow(std::move(row));
    }
    t10c.addNote(sim::format(
        "At 25%% memory, CXLfork P99 is %.1fx better than CRIU-CXL "
        "(paper ~16x) and within %.0f%% of CXLfork-MoW (paper: equal - "
        "pressure forces MoW).",
        sweep["CRIU-CXL"][25].p99Ms() / sweep["CXLfork"][25].p99Ms(),
        100.0 * std::fabs(sweep["CXLfork"][25].p99Ms() /
                              sweep["CXLfork-MoW"][25].p99Ms() -
                          1.0)));
    t10c.addNote(sim::format(
        "Evictions at 25%% memory: CRIU %llu, Mitosis %llu, CXLfork %llu.",
        (unsigned long long)sweep["CRIU-CXL"][25].evictions,
        (unsigned long long)sweep["Mitosis-CXL"][25].evictions,
        (unsigned long long)sweep["CXLfork"][25].evictions));
    t10c.print();
    for (const Variant &v : variants) {
        for (int pct : {50, 25}) {
            const std::string stem = std::string("fig10.") + v.name +
                                     ".mem" + std::to_string(pct);
            bench::recordValue(stem + ".p99_ms", sweep[v.name][pct].p99Ms());
            bench::recordValue(stem + ".p50_ms", sweep[v.name][pct].p50Ms());
        }
    }
    bench::finishBench("fig10");
    return 0;
}

int
main()
{
    return cxlfork::bench::guardedMain("bench_fig10_porter", benchMain);
}
