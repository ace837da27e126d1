/**
 * @file
 * Extension: write-heavy workloads (paper Sec. 8 "CXLfork for
 * write-heavy workloads": instant cloning still works, but the memory
 * savings are blunted as CoW lazily copies the modified footprint to
 * local memory).
 *
 * Sweeps the read-write fraction of a synthetic 128 MB function and
 * reports restore latency (stays near-constant), local memory after
 * 1 and 8 invocations (grows with the write fraction), and the CoW
 * fault volume. Each point's row is also recorded as
 * `writeheavy.<fn>.*` bench metrics for the golden suite.
 */

#include "bench_util.hh"

static int
benchMain()
{
    using namespace cxlfork;

    sim::Table t("Write-heavy sweep: 128 MB function, varying RW "
                 "fraction (CXLfork, migrate-on-write, no prefetch)");
    t.setHeader({"RW fraction", "Restore (ms)", "Local MB after 1 inv",
                 "Local MB after 8 inv", "CXL CoW faults",
                 "Local / footprint"});

    for (double rw : {0.05, 0.20, 0.40, 0.60, 0.80}) {
        faas::FunctionSpec spec;
        spec.name = sim::format("wh%02.0f", rw * 100);
        spec.footprintBytes = mem::mib(128);
        spec.initFrac = (1.0 - rw) * 0.7;
        spec.roFrac = (1.0 - rw) * 0.3;
        spec.rwFrac = rw;
        spec.workingSetBytes = mem::mib(uint64_t(16 + 96 * rw));
        spec.wsReuse = 4;
        spec.computeTime = sim::SimTime::ms(40);
        spec.stateInitTime = sim::SimTime::ms(250);
        spec.vmaCount = 100;
        spec.seed = uint64_t(rw * 100) + 7;

        porter::Cluster cluster(bench::benchClusterConfig());
        auto parent = bench::deployWarmParent(cluster, spec, 1);
        rfork::CxlFork cxlf(cluster.fabric());
        auto handle = cxlf.checkpoint(cluster.node(0), parent->task());

        rfork::RestoreOptions opts;
        opts.prefetchDirty = false; // expose the raw CoW behaviour
        rfork::RestoreStats rs;
        auto task = cxlf.restore(handle, cluster.node(1), opts, &rs);
        auto child = faas::FunctionInstance::adoptRestored(cluster.node(1),
                                                           spec, task);
        child->invoke();
        const double mbAfter1 = double(child->localBytes()) / (1 << 20);
        for (int i = 0; i < 7; ++i)
            child->invoke();
        const double mbAfter8 = double(child->localBytes()) / (1 << 20);
        const uint64_t cow =
            cluster.machine().metrics().counterValue("os.fault.cow_cxl");

        const std::string key = "writeheavy." + spec.name;
        bench::recordValue(key + ".restore_ms", rs.latency.toMs());
        bench::recordValue(key + ".local_mb_1inv", mbAfter1);
        bench::recordValue(key + ".local_mb_8inv", mbAfter8);
        bench::recordValue(key + ".cow_faults", double(cow));

        t.addRow({sim::Table::num(rw, 2),
                  sim::Table::num(rs.latency.toMs(), 2),
                  sim::Table::num(mbAfter1, 1),
                  sim::Table::num(mbAfter8, 1), std::to_string(cow),
                  sim::Table::num(mbAfter8 / 128.0, 2)});
    }
    t.addNote("Restore latency is independent of the write fraction "
              "(instant cloning for availability); memory savings shrink "
              "as writes migrate the footprint locally (Sec. 8).");
    t.print();
    bench::finishBench("ext_writeheavy");
    return 0;
}

int
main()
{
    return cxlfork::bench::guardedMain("bench_ext_writeheavy", benchMain);
}
