/**
 * @file
 * Figure 8: the CXLfork tiering policies — Migrate-on-Write (MoW),
 * Migrate-on-Access (MoA), Hybrid Tiering (HT) — and their trade-offs
 * between cold execution time (8a), warm execution time (8b), and
 * local memory consumption (8c).
 *
 * Paper: MoA cuts warm time ~11% on average but inflates cold time
 * ~14% and memory ~250% vs MoW; only BFS and Bert are hurt by MoW's
 * CXL-resident read-only data; HT lands in between.
 */

#include "bench_util.hh"

static int
benchMain()
{
    using namespace cxlfork;
    using os::TieringPolicy;

    struct Cell
    {
        double coldMs = 0;
        double warmMs = 0;
        double memMb = 0;
    };
    struct Row
    {
        std::string fn;
        Cell mow, moa, ht;
    };

    auto policyKey = [](TieringPolicy policy) {
        switch (policy) {
          case TieringPolicy::MigrateOnWrite:
            return "mow";
          case TieringPolicy::MigrateOnAccess:
            return "moa";
          default:
            return "ht";
        }
    };

    // One sweep point per (function, policy) cell, flattened in the
    // row order the tables print; each point builds its own cluster.
    const auto workloads = faas::table1Workloads();
    const std::vector<TieringPolicy> policies{
        TieringPolicy::MigrateOnWrite, TieringPolicy::MigrateOnAccess,
        TieringPolicy::Hybrid};
    struct Point
    {
        size_t fnIdx;
        TieringPolicy policy;
    };
    std::vector<Point> points;
    for (size_t f = 0; f < workloads.size(); ++f)
        for (TieringPolicy policy : policies)
            points.push_back({f, policy});
    std::vector<Cell> cells(points.size());

    bench::runSweep(points, [&](const Point &p, size_t i) {
        const faas::FunctionSpec &spec = workloads[p.fnIdx].spec;
        porter::Cluster cluster(bench::benchClusterConfig());
        auto parent = bench::deployWarmParent(cluster, spec);
        rfork::CxlFork cxlf(cluster.fabric());
        auto handle = cxlf.checkpoint(cluster.node(0), parent->task());

        rfork::RestoreOptions opts;
        opts.policy = p.policy;
        rfork::RestoreStats rs;
        auto task = cxlf.restore(handle, cluster.node(1), opts, &rs);
        auto child = faas::FunctionInstance::adoptRestored(cluster.node(1),
                                                           spec, task);
        bench::collectRestorePhases(
            cluster.machine(),
            std::string("fig8.phase.") + policyKey(p.policy));
        Cell cell;
        cell.coldMs = (rs.latency + child->invoke().latency).toMs();
        child->invoke();
        cell.warmMs = child->invoke().latency.toMs();
        cell.memMb = double(child->localBytes()) / (1 << 20);
        const std::string key = policyKey(p.policy);
        bench::recordValue("fig8." + key + ".cold_ms", cell.coldMs);
        bench::recordValue("fig8." + key + ".warm_ms", cell.warmMs);
        bench::recordValue("fig8." + key + ".mem_mb", cell.memMb);
        cells[i] = cell;
    });

    std::vector<Row> rows;
    for (size_t f = 0; f < workloads.size(); ++f) {
        Row row;
        row.fn = workloads[f].spec.name;
        row.mow = cells[f * policies.size() + 0];
        row.moa = cells[f * policies.size() + 1];
        row.ht = cells[f * policies.size() + 2];
        rows.push_back(std::move(row));
    }

    auto printPanel = [&](const char *title, auto pick, int precision) {
        sim::Table t(title);
        t.setHeader({"Function", "MoW", "MoA", "HT"});
        for (const Row &r : rows) {
            t.addRow({r.fn, sim::Table::num(pick(r.mow), precision),
                      sim::Table::num(pick(r.moa), precision),
                      sim::Table::num(pick(r.ht), precision)});
        }
        t.print();
    };
    printPanel("Figure 8a: cold execution time (restore + 1st "
               "invocation, ms)",
               [](const Cell &c) { return c.coldMs; }, 1);
    printPanel("Figure 8b: warm execution time (ms)",
               [](const Cell &c) { return c.warmMs; }, 1);
    printPanel("Figure 8c: local memory consumption (MB)",
               [](const Cell &c) { return c.memMb; }, 1);

    for (const Row &r : rows) {
        bench::recordValue("fig8.moa_vs_mow.warm_gain",
                           1.0 - r.moa.warmMs / r.mow.warmMs);
        bench::recordValue("fig8.moa_vs_mow.cold_loss",
                           r.moa.coldMs / r.mow.coldMs - 1.0);
        bench::recordValue("fig8.moa_vs_mow.mem_blow",
                           r.moa.memMb / std::max(r.mow.memMb, 0.01) - 1.0);
    }
    const sim::MetricsRegistry &reg = bench::benchMetrics();
    std::printf("\nMoA vs MoW averages: warm %.0f%% faster (paper 11%%), "
                "cold %.0f%% slower (paper 14%%), memory +%.0f%% "
                "(paper +250%%).\n",
                100 * reg.findSummary("fig8.moa_vs_mow.warm_gain")->mean(),
                100 * reg.findSummary("fig8.moa_vs_mow.cold_loss")->mean(),
                100 * reg.findSummary("fig8.moa_vs_mow.mem_blow")->mean());
    bench::printPhaseBreakdown("fig8.phase.mow",
                               "CXLfork MoW restore: per-phase cost");
    bench::printPhaseBreakdown("fig8.phase.moa",
                               "CXLfork MoA restore: per-phase cost");
    bench::printPhaseBreakdown("fig8.phase.ht",
                               "CXLfork HT restore: per-phase cost");
    bench::finishBench("fig8");
    return 0;
}

int
main()
{
    return cxlfork::bench::guardedMain("bench_fig8_tiering", benchMain);
}
