/**
 * @file
 * Figure 9: sensitivity of CXLfork to the CXL device round-trip
 * latency (the paper uses SST simulation for this; here the latency is
 * a first-class knob of the cost model). Warm (9a) and cold (9b)
 * execution with CXLfork relative to local fork in an environment
 * without CXL memory, sweeping the round trip from 400 ns down to
 * 100 ns.
 *
 * Both the baseline loop and the function x latency grid run as
 * runSweep() points (CXLFORK_JOBS host threads); every point builds
 * its own cluster and mechanism, and the tables are assembled after
 * the sweep in point order.
 */

#include "bench_util.hh"

static int
benchMain()
{
    using namespace cxlfork;

    const std::vector<double> latenciesNs{400, 300, 200, 100};
    const auto functions = faas::representativeWorkloads();

    struct Baseline
    {
        double warmMs = 0;
        double coldMs = 0;
    };
    std::vector<Baseline> baselines(functions.size());

    // Baseline: local fork on a node without CXL involvement.
    bench::runSweep(functions, [&](const faas::FunctionSpec &spec,
                                   size_t i) {
        porter::Cluster cluster(bench::benchClusterConfig());
        auto parent = bench::deployWarmParent(cluster, spec);
        const auto run = bench::runLocalForkScenario(cluster, *parent);
        Baseline b;
        b.coldMs = run.total().toMs();
        // Warm: a fresh fork's third invocation.
        rfork::LocalFork lf;
        auto h = lf.checkpoint(cluster.node(0), parent->task());
        auto task = lf.restore(h, cluster.node(0));
        auto child = faas::FunctionInstance::adoptRestored(cluster.node(0),
                                                           spec, task);
        child->invoke();
        child->invoke();
        b.warmMs = child->invoke().latency.toMs();
        baselines[i] = b;
    });

    struct Point
    {
        size_t fnIdx;
        double latNs;
    };
    std::vector<Point> points;
    for (size_t f = 0; f < functions.size(); ++f)
        for (double latNs : latenciesNs)
            points.push_back({f, latNs});

    struct Ratios
    {
        double warm = 0;
        double cold = 0;
    };
    std::vector<Ratios> ratios(points.size());

    bench::runSweep(points, [&](const Point &p, size_t i) {
        const faas::FunctionSpec &spec = functions[p.fnIdx];
        sim::CostParams costs;
        costs.cxlLatency = sim::SimTime::ns(p.latNs);
        porter::Cluster cluster(bench::benchClusterConfig(costs));
        auto parent = bench::deployWarmParent(cluster, spec);
        rfork::CxlFork cxlf(cluster.fabric());
        auto handle = cxlf.checkpoint(cluster.node(0), parent->task());

        rfork::RestoreStats rs;
        auto task = cxlf.restore(handle, cluster.node(1), {}, &rs);
        auto child = faas::FunctionInstance::adoptRestored(cluster.node(1),
                                                           spec, task);
        const double coldMs = (rs.latency + child->invoke().latency).toMs();
        child->invoke();
        const double warmMs = child->invoke().latency.toMs();

        const Baseline &base = baselines[p.fnIdx];
        const std::string lat = sim::Table::num(p.latNs, 0);
        bench::recordValue("fig9.restore_ms." + lat + "ns",
                           rs.latency.toMs());
        bench::recordValue("fig9.warm_ratio." + lat + "ns",
                           warmMs / base.warmMs);
        bench::recordValue("fig9.cold_ratio." + lat + "ns",
                           coldMs / base.coldMs);
        bench::collectRestorePhases(cluster.machine(),
                                    "fig9.phase." + lat + "ns");
        ratios[i] = Ratios{warmMs / base.warmMs, coldMs / base.coldMs};
    });

    sim::Table warm("Figure 9a: warm execution with CXLfork relative to "
                    "local fork (no CXL), vs CXL round-trip latency");
    sim::Table cold("Figure 9b: cold execution with CXLfork relative to "
                    "local fork (no CXL), vs CXL round-trip latency");
    std::vector<std::string> header{"Function"};
    for (double l : latenciesNs)
        header.push_back(sim::Table::num(l, 0) + "ns");
    warm.setHeader(header);
    cold.setHeader(header);

    size_t point = 0;
    for (const auto &spec : functions) {
        std::vector<std::string> warmRow{spec.name};
        std::vector<std::string> coldRow{spec.name};
        for (size_t l = 0; l < latenciesNs.size(); ++l, ++point) {
            warmRow.push_back(sim::Table::num(ratios[point].warm, 2));
            coldRow.push_back(sim::Table::num(ratios[point].cold, 2));
        }
        warm.addRow(std::move(warmRow));
        cold.addRow(std::move(coldRow));
    }
    warm.addNote("Paper: lower CXL latency helps BFS/Bert; the rest fit "
                 "in the caches and are insensitive. Even at 200 ns "
                 "(2x local) spilling functions are penalized.");
    warm.print();
    cold.addNote("Paper: as latency drops CXLfork matches or beats local "
                 "fork, because it attaches (not rebuilds) OS state and "
                 "restores private file mappings.");
    cold.print();
    for (double l : latenciesNs) {
        const std::string lat = sim::Table::num(l, 0);
        bench::printPhaseBreakdown("fig9.phase." + lat + "ns",
                                   "CXLfork restore at " + lat +
                                       " ns: per-phase cost");
    }
    bench::finishBench("fig9");
    return 0;
}

int
main()
{
    return cxlfork::bench::guardedMain("bench_fig9_latency", benchMain);
}
