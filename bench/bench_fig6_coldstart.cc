/**
 * @file
 * Figure 6: the latency of cold-starting a serverless function with
 * Docker-style containers, broken down into Container Creation
 * (~130 ms, independent of the function) and State Initialization
 * (250-500 ms, function dependent). Also reports the bare (ghost)
 * container footprint of 512 KB.
 */

#include "bench_util.hh"

static int
benchMain()
{
    using namespace cxlfork;

    sim::Table table("Figure 6: Latency of cold-starting a serverless "
                     "function");
    table.setHeader({"Function", "Container create (ms)",
                     "State init (ms)", "Total (ms)"});
    for (const auto &w : faas::table1Workloads()) {
        porter::Cluster cluster(bench::benchClusterConfig());
        os::NodeOs &node = cluster.node(0);

        const sim::SimTime t0 = node.clock().now();
        auto container = cluster.containers(0).create(w.spec.name);
        const sim::SimTime containerTime = node.clock().now() - t0;

        const sim::SimTime t1 = node.clock().now();
        auto inst = faas::FunctionInstance::deployCold(
            node, w.spec, &container->namespaces());
        const sim::SimTime initTime = node.clock().now() - t1;

        bench::recordValue("fig6.container_create_ms",
                           containerTime.toMs());
        bench::recordValue("fig6.state_init_ms", initTime.toMs());
        bench::recordValue("fig6.total_ms",
                           (containerTime + initTime).toMs());
        table.addRow({w.spec.name,
                      sim::Table::num(containerTime.toMs(), 0),
                      sim::Table::num(initTime.toMs(), 0),
                      sim::Table::num((containerTime + initTime).toMs(), 0)});
    }
    {
        porter::Cluster cluster(bench::benchClusterConfig());
        auto ghost = cluster.containers(0).provisionGhost("ghost");
        table.addNote(sim::format(
            "A bare (ghost) container consumes %llu KB of memory.",
            (unsigned long long)(ghost->shellBytes() >> 10)));
    }
    table.addNote("Paper: container creation ~130 ms regardless of image "
                  "or footprint size; state init 250-500 ms.");
    table.print();
    bench::finishBench("fig6");
    return 0;
}

int
main()
{
    return cxlfork::bench::guardedMain("bench_fig6_coldstart", benchMain);
}
