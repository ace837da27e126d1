/**
 * @file
 * Ablations of CXLfork's design choices (DESIGN.md experiment index):
 *  1. Attaching checkpointed PT/VMA leaves vs copying them (Sec. 4.2.1).
 *  2. Opportunistic dirty-page prefetch on/off (Sec. 4.2.1).
 *  3. Ghost containers on/off inside CXLporter (Sec. 5).
 *  4. TrEnv-style per-node memory templates vs CXLfork's direct attach
 *     (Sec. 9: CXLfork is ~1.8x faster without pre-created templates).
 *  5. Incremental re-checkpoint frame sharing on/off.
 *  6. Cross-tenant content dedup: N users deploy the same runtime
 *     image; the content-addressed page store keeps the shared layers
 *     once on the device (dedup on vs off, measured cxl.dedup.*).
 *
 * Each (function, config) cell is a runSweep() point with its own
 * cluster, so the ablations use CXLFORK_JOBS host threads; tables and
 * derived ratios are assembled after each sweep in point order.
 */

#include "porter/autoscaler.hh"
#include "porter/trace.hh"

#include "bench_util.hh"

using namespace cxlfork;

static void
ablationAttach()
{
    sim::Table t("Ablation 1: restore with attached vs copied PT/VMA "
                 "leaves");
    t.setHeader({"Function", "Attach (ms)", "Copy (ms)", "Speedup"});
    const std::vector<const char *> names{"Float", "Rnn", "Bert"};
    struct Point
    {
        const char *name;
        bool attach;
    };
    std::vector<Point> points;
    for (const char *name : names)
        for (bool attach : {true, false})
            points.push_back({name, attach});
    std::vector<double> restoreMs(points.size());

    bench::runSweep(points, [&](const Point &p, size_t i) {
        const auto spec = *faas::findWorkload(p.name);
        porter::Cluster cluster(bench::benchClusterConfig());
        auto parent = bench::deployWarmParent(cluster, spec, 1);
        rfork::CxlForkConfig cfg;
        cfg.attachLeaves = p.attach;
        rfork::CxlFork cxlf(cluster.fabric(), cfg);
        auto handle = cxlf.checkpoint(cluster.node(0), parent->task());
        rfork::RestoreStats rs;
        rfork::RestoreOptions opts;
        opts.prefetchDirty = false;
        cxlf.restore(handle, cluster.node(1), opts, &rs);
        restoreMs[i] = rs.latency.toMs();
        bench::collectRestorePhases(cluster.machine(),
                                    p.attach ? "ablation.phase.attach"
                                             : "ablation.phase.copy");
    });

    for (size_t f = 0; f < names.size(); ++f) {
        const double attachMs = restoreMs[2 * f];
        const double copyMs = restoreMs[2 * f + 1];
        bench::recordValue("ablation.attach_speedup", copyMs / attachMs);
        t.addRow({names[f], sim::Table::num(attachMs, 2),
                  sim::Table::num(copyMs, 2),
                  sim::Table::num(copyMs / attachMs, 1) + "x"});
    }
    t.print();
}

static void
ablationPrefetch()
{
    sim::Table t("Ablation 2: dirty-page prefetch on restore");
    t.setHeader({"Function", "Restore+exec, prefetch (ms)",
                 "Restore+exec, no prefetch (ms)", "CoW faults w/",
                 "CoW faults w/o"});
    const std::vector<const char *> names{"Linpack", "Json", "Bert"};
    struct Point
    {
        const char *name;
        bool prefetch;
    };
    struct Result
    {
        double ms = 0;
        uint64_t cow = 0;
    };
    std::vector<Point> points;
    for (const char *name : names)
        for (bool prefetch : {true, false})
            points.push_back({name, prefetch});
    std::vector<Result> results(points.size());

    bench::runSweep(points, [&](const Point &p, size_t i) {
        const auto spec = *faas::findWorkload(p.name);
        porter::Cluster cluster(bench::benchClusterConfig());
        auto parent = bench::deployWarmParent(cluster, spec, 1);
        rfork::CxlFork cxlf(cluster.fabric());
        auto handle = cxlf.checkpoint(cluster.node(0), parent->task());
        rfork::RestoreOptions opts;
        opts.prefetchDirty = p.prefetch;
        rfork::RestoreStats rs;
        auto task = cxlf.restore(handle, cluster.node(1), opts, &rs);
        auto child = faas::FunctionInstance::adoptRestored(cluster.node(1),
                                                           spec, task);
        const auto inv = child->invoke();
        results[i].ms = (rs.latency + inv.latency).toMs();
        results[i].cow =
            cluster.machine().metrics().counterValue("os.fault.cow_cxl");
    });

    for (size_t f = 0; f < names.size(); ++f) {
        const Result &with = results[2 * f];
        const Result &without = results[2 * f + 1];
        bench::recordValue("ablation.prefetch_cow_saved",
                           double(without.cow) - double(with.cow));
        t.addRow({names[f], sim::Table::num(with.ms, 1),
                  sim::Table::num(without.ms, 1),
                  std::to_string(with.cow), std::to_string(without.cow)});
    }
    t.addNote("Prefetching the checkpoint-dirty pages eliminates nearly "
              "all CXL CoW faults (paper: >95% of parent-written pages "
              "are rewritten by children).");
    t.print();
}

static void
ablationGhosts()
{
    std::vector<faas::FunctionSpec> fns;
    std::vector<std::string> names;
    for (const char *n : {"Float", "Json", "Chameleon", "Rnn"}) {
        fns.push_back(*faas::findWorkload(n));
        names.push_back(n);
    }
    porter::TraceConfig tc;
    tc.totalRps = 80;
    tc.duration = sim::SimTime::sec(40);
    tc.seed = 0x607;
    const auto trace = porter::TraceGenerator(names, tc).generate();
    porter::PerfModel perf; // thread-safe; shared by the sweep points

    sim::Table t("Ablation 3: ghost containers in CXLporter");
    t.setHeader({"Config", "P99 (ms)", "P50 (ms)", "Ghost hits"});
    const std::vector<bool> ghostConfigs{true, false};
    std::vector<porter::PorterMetrics> results(ghostConfigs.size());

    bench::runSweep(ghostConfigs, [&](bool ghosts, size_t i) {
        porter::PorterConfig cfg;
        cfg.mechanism = porter::Mechanism::CxlFork;
        cfg.ghostsPerFunction = ghosts ? 2 : 0;
        porter::PorterSim sim(cfg, fns, perf);
        sim.attachObservability(nullptr, &bench::benchMetrics());
        const auto m = sim.run(trace);
        bench::recordValue(ghosts ? "ablation.ghosts.p99_ms"
                                  : "ablation.no_ghosts.p99_ms",
                           m.p99Ms());
        results[i] = m;
    });

    for (size_t i = 0; i < ghostConfigs.size(); ++i) {
        const auto &m = results[i];
        t.addRow({ghostConfigs[i] ? "with ghosts" : "without ghosts",
                  sim::Table::num(m.p99Ms(), 1),
                  sim::Table::num(m.p50Ms(), 1),
                  std::to_string(m.ghostHits)});
    }
    t.addNote("Without ghosts every scale-up pays the ~130 ms container "
              "creation on the critical path.");
    t.print();
}

static void
ablationTrEnvTemplates()
{
    // TrEnv (Sec. 9) needs a pre-processing step on *each* node before
    // it can spawn: deserializing CRIU metadata into per-node memory
    // templates. Model the template build as the metadata-deserialize
    // portion of a CRIU restore, then compare first-restore latency.
    sim::Table t("Ablation 4: CXLfork vs TrEnv-style per-node memory "
                 "templates (first restore on a fresh node)");
    t.setHeader({"Function", "CXLfork (ms)", "TrEnv-style (ms)",
                 "CXLfork speedup"});
    const std::vector<const char *> names{"Float", "Json", "Rnn", "BFS",
                                          "Bert"};
    struct Result
    {
        double cxlMs = 0;
        double trenvMs = 0;
    };
    std::vector<Result> results(names.size());

    bench::runSweep(names, [&](const char *name, size_t i) {
        const auto spec = *faas::findWorkload(name);
        porter::Cluster cluster(bench::benchClusterConfig());
        auto parent = bench::deployWarmParent(cluster, spec, 1);
        rfork::CxlFork cxlf(cluster.fabric());
        auto handle = cxlf.checkpoint(cluster.node(0), parent->task());
        rfork::RestoreStats rs;
        cxlf.restore(handle, cluster.node(1), {}, &rs);

        // Template build: deserialize all VMA + page-map metadata (the
        // CRIU-format descriptors TrEnv consumes) on the new node.
        const auto &costs = cluster.machine().costs();
        const auto img = rfork::CxlFork::image(handle);
        const uint64_t metaBytes =
            img->pageCount() * 64 + img->vmaSet()->footprintBytes();
        const sim::SimTime templateBuild =
            costs.deserializeCost(metaBytes) +
            costs.serializeRecord * double(img->vmaSet()->size()) +
            costs.ptPageAlloc * double(img->leafCount());
        results[i].cxlMs = rs.latency.toMs();
        results[i].trenvMs = (rs.latency + templateBuild).toMs();
        bench::recordValue("ablation.trenv_speedup",
                           results[i].trenvMs / results[i].cxlMs);
    });

    for (size_t i = 0; i < names.size(); ++i) {
        const Result &r = results[i];
        t.addRow({names[i], sim::Table::num(r.cxlMs, 2),
                  sim::Table::num(r.trenvMs, 2),
                  sim::Table::num(r.trenvMs / r.cxlMs, 1) + "x"});
    }
    t.addNote(sim::format("Average speedup %.1fx (paper Sec. 9: CXLfork "
                          "remote-forks ~1.8x faster than TrEnv without "
                          "pre-created templates).",
                          bench::benchMetrics()
                              .findSummary("ablation.trenv_speedup")
                              ->mean()));
    t.print();
}

static void
ablationRecheckpointDedup()
{
    // Extension: re-checkpointing a restored clone shares the frames of
    // every page the clone never modified with the original image.
    sim::Table t("Ablation 5: incremental re-checkpoint deduplication "
                 "(clone modified ~5% of its footprint)");
    t.setHeader({"Function", "Dedup ckpt (ms)", "Copy ckpt (ms)",
                 "New CXL MB (dedup)", "New CXL MB (copy)"});
    const std::vector<const char *> names{"Json", "Rnn", "Bert"};
    struct Point
    {
        const char *name;
        bool dedup;
    };
    struct Result
    {
        double ms = 0;
        double mb = 0;
    };
    std::vector<Point> points;
    for (const char *name : names)
        for (bool dedup : {true, false})
            points.push_back({name, dedup});
    std::vector<Result> results(points.size());

    bench::runSweep(points, [&](const Point &p, size_t i) {
        const auto spec = *faas::findWorkload(p.name);
        porter::Cluster cluster(bench::benchClusterConfig());
        auto parent = bench::deployWarmParent(cluster, spec, 1);
        rfork::CxlForkConfig cfg;
        cfg.dedupUnmodified = p.dedup;
        rfork::CxlFork fork(cluster.fabric(), cfg);
        auto h1 = fork.checkpoint(cluster.node(0), parent->task());
        auto task = fork.restore(h1, cluster.node(1));
        auto child = faas::FunctionInstance::adoptRestored(cluster.node(1),
                                                           spec, task);
        child->invoke(); // writes the RW segment

        const uint64_t before = cluster.machine().cxl().usedBytes();
        rfork::CheckpointStats cs;
        auto h2 = fork.checkpoint(cluster.node(1), child->task(), &cs);
        results[i].ms = cs.latency.toMs();
        results[i].mb =
            double(cluster.machine().cxl().usedBytes() - before) /
            (1 << 20);
    });

    for (size_t f = 0; f < names.size(); ++f) {
        const Result &dedup = results[2 * f];
        const Result &copy = results[2 * f + 1];
        t.addRow({names[f], sim::Table::num(dedup.ms, 1),
                  sim::Table::num(copy.ms, 1),
                  sim::Table::num(dedup.mb, 1),
                  sim::Table::num(copy.mb, 1)});
    }
    t.addNote("An extension beyond the paper: generational checkpoints "
              "share unmodified pages by reference counting the "
              "device frames.");
    t.print();
}

static void
ablationCrossTenant()
{
    // Tentpole extension: N tenants deploy the same runtime/function
    // image under different users. pageToken() is user-independent, so
    // the content-addressed page store collapses the shared layers to
    // one device-resident copy; each tenant's personalized RW pages
    // (differing warm-up depth) stay unique.
    sim::Table t("Ablation 6: cross-tenant checkpoint dedup "
                 "(N users x one shared runtime image, Json)");
    t.setHeader({"Users", "CXL MB (dedup)", "CXL MB (no dedup)",
                 "Dedup hits", "Unique pages", "Saved MB",
                 "Measured dedup"});
    struct Point
    {
        uint32_t users;
        bool dedup;
    };
    struct Result
    {
        double mb = 0;
        uint64_t hits = 0;
        uint64_t unique = 0;
        double savedMb = 0;
        double factor = 1.0;
    };
    const std::vector<uint32_t> userCounts{2u, 4u, 8u};
    std::vector<Point> points;
    for (uint32_t users : userCounts)
        for (bool dedup : {true, false})
            points.push_back({users, dedup});
    std::vector<Result> results(points.size());

    bench::runSweep(points, [&](const Point &p, size_t i) {
        const auto base = *faas::findWorkload("Json");
        porter::ClusterConfig ccfg = bench::benchClusterConfig();
        ccfg.pageStore.dedup = p.dedup;
        porter::Cluster cluster(ccfg);
        rfork::CxlFork fork(cluster.fabric());

        std::vector<std::unique_ptr<faas::FunctionInstance>> tenants;
        std::vector<std::shared_ptr<rfork::CheckpointHandle>> handles;
        const uint64_t before = cluster.machine().cxl().usedBytes();
        for (uint32_t u = 0; u < p.users; ++u) {
            faas::FunctionSpec spec = base;
            spec.user = "tenant" + std::to_string(u);
            // Personalized state: tenants warm up to different depths,
            // so their RW page versions diverge while the init/RO/lib
            // layers stay byte-identical across users.
            auto inst = bench::deployWarmParent(cluster, spec, 1 + u % 3);
            handles.push_back(
                fork.checkpoint(cluster.node(0), inst->task()));
            tenants.push_back(std::move(inst));
        }

        Result r;
        r.mb = double(cluster.machine().cxl().usedBytes() - before) /
               (1 << 20);
        sim::MetricsRegistry &mm = cluster.machine().metrics();
        r.hits = mm.counter("cxl.dedup.hits").value();
        r.unique = mm.counter("cxl.dedup.unique").value();
        r.savedMb =
            double(mm.counter("cxl.dedup.bytes_saved").value()) /
            (1 << 20);
        r.factor = r.unique == 0 ? 1.0
                                 : double(r.hits + r.unique) /
                                       double(r.unique);
        results[i] = r;
        if (p.dedup) {
            bench::recordValue("ablation.xtenant.cxl_mb_dedup", r.mb);
            bench::recordValue("ablation.xtenant.factor", r.factor);
            bench::recordValue("ablation.xtenant.saved_mb", r.savedMb);
        } else {
            bench::recordValue("ablation.xtenant.cxl_mb_copy", r.mb);
        }
    });

    for (size_t f = 0; f < userCounts.size(); ++f) {
        const Result &dedup = results[2 * f];
        const Result &copy = results[2 * f + 1];
        t.addRow({std::to_string(userCounts[f]),
                  sim::Table::num(dedup.mb, 1),
                  sim::Table::num(copy.mb, 1), std::to_string(dedup.hits),
                  std::to_string(dedup.unique),
                  sim::Table::num(dedup.savedMb, 1),
                  sim::Table::num(dedup.factor, 1) + "x"});
    }
    t.addNote("Tenants share the runtime/library/RO layers (page "
              "content is user-independent); the content index stores "
              "them once, so device growth per extra tenant is only the "
              "personalized pages.");
    t.print();
}

static int
benchMain()
{
    ablationAttach();
    ablationPrefetch();
    ablationGhosts();
    ablationTrEnvTemplates();
    ablationRecheckpointDedup();
    ablationCrossTenant();
    bench::printPhaseBreakdown("ablation.phase.attach",
                               "Restore with attached leaves: per-phase "
                               "cost");
    bench::printPhaseBreakdown("ablation.phase.copy",
                               "Restore with copied leaves: per-phase "
                               "cost");
    bench::finishBench("ablation");
    return 0;
}

int
main()
{
    return cxlfork::bench::guardedMain("bench_ablation", benchMain);
}
