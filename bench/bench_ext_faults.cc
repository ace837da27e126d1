/**
 * @file
 * Extension: CXLporter under failure injection (Fig. 10-style sweep).
 *
 * Sweeps node-crash rates (MTBF) and checkpoint-fault rates over the
 * dynamic-tiering CXLfork autoscaler and reports how the degradation
 * ladder (retry transient -> fail over -> cold start) shows up in tail
 * latency: P99 inflation vs the fault-free run, and the fraction of
 * restore-path requests degraded to a cold start. Fixed seeds: two runs
 * of this benchmark produce identical output.
 *
 * Sweep 4 exercises the RAS layer: poison rate x replication factor
 * over miniature chaos soaks, reporting the checkpoint-survival
 * fraction against the keepalive memory the replicas cost.
 */

#include "porter/autoscaler.hh"
#include "porter/scenario.hh"
#include "porter/trace.hh"
#include "sim/log.hh"

#include "bench_util.hh"

static int
benchMain()
{
    using namespace cxlfork;
    using porter::PorterConfig;
    using porter::PorterMetrics;
    using porter::PorterSim;
    using sim::SimTime;

    std::vector<faas::FunctionSpec> functions;
    std::vector<std::string> names;
    for (const auto &w : faas::table1Workloads()) {
        functions.push_back(w.spec);
        names.push_back(w.spec.name);
    }

    porter::TraceConfig tc;
    tc.totalRps = 150.0;
    tc.duration = SimTime::sec(30);
    tc.seed = 0xa2u;
    const auto trace = porter::TraceGenerator(names, tc).generate();
    std::printf("trace: %zu requests over %.0f s (%.1f RPS)\n",
                trace.size(), tc.duration.toSec(),
                porter::TraceGenerator::measuredRps(trace, tc.duration));

    porter::PerfModel perf;

    auto runWith = [&](const porter::PorterFaults &faults) {
        PorterConfig cfg;
        cfg.mechanism = porter::Mechanism::CxlFork;
        cfg.dynamicTiering = true;
        cfg.memPerNodeBytes = mem::gib(8);
        cfg.coresPerNode = 32;
        cfg.numNodes = 4;
        // Short keep-alive pushes traffic through the restore path,
        // where the injected faults live; otherwise warm hits hide
        // most of the recovery machinery.
        cfg.keepAlive = SimTime::sec(2);
        cfg.faults = faults;
        cfg.faults.seed = 0xfa17;
        PorterSim sim(cfg, functions, perf);
        return sim.run(trace);
    };

    const PorterMetrics base = runWith(porter::PorterFaults{});
    const double baseP99 = base.p99Ms();
    std::printf("fault-free baseline: P99 %.1f ms, P50 %.1f ms, "
                "%llu restores\n\n",
                base.p99Ms(), base.p50Ms(),
                (unsigned long long)base.restores);

    auto degradedFrac = [](const PorterMetrics &m) {
        const uint64_t attempts = m.restores + m.degradedColdStarts;
        return attempts ? double(m.degradedColdStarts) / double(attempts)
                        : 0.0;
    };

    // --- Sweep 1: node-crash rate (device faults off).
    sim::Table t1("Node-crash sweep: P99 inflation and degradation vs "
                  "per-node MTBF (recovery 5 s)");
    t1.setHeader({"MTBF (s)", "Crashes", "Lost", "Failovers",
                  "Degraded", "Degraded frac", "P99 (ms)", "P99 infl"});
    for (double mtbf : {60.0, 20.0, 10.0, 5.0}) {
        porter::PorterFaults f;
        f.nodeMtbf = SimTime::sec(mtbf);
        f.nodeRecovery = SimTime::sec(5);
        const PorterMetrics m = runWith(f);
        t1.addRow({sim::Table::num(mtbf, 0),
                   std::to_string(m.nodeCrashes),
                   std::to_string(m.lostInstances),
                   std::to_string(m.restoreFailovers),
                   std::to_string(m.degradedColdStarts),
                   sim::Table::num(degradedFrac(m), 3),
                   sim::Table::num(m.p99Ms(), 1),
                   sim::Table::num(m.p99Ms() / baseP99, 2)});
    }
    t1.addNote("Crashes convert in-flight work into failovers; lost "
               "warm instances re-enter through restores.");
    t1.print();

    // --- Sweep 2: checkpoint/device fault rates (crashes off).
    sim::Table t2("Device-fault sweep: transient restore faults and torn "
                  "checkpoints");
    t2.setHeader({"Transient", "Corrupt", "Retries", "Torn found",
                  "Degraded", "Degraded frac", "P99 (ms)", "P99 infl"});
    struct Point
    {
        double transient, corrupt;
    };
    for (const Point p : {Point{0.01, 0.0}, Point{0.1, 0.0},
                          Point{0.3, 0.0}, Point{0.0, 0.01},
                          Point{0.0, 0.1}, Point{0.2, 0.05}}) {
        porter::PorterFaults f;
        f.transientRestoreRate = p.transient;
        f.corruptRestoreRate = p.corrupt;
        const PorterMetrics m = runWith(f);
        t2.addRow({sim::Table::num(p.transient, 2),
                   sim::Table::num(p.corrupt, 2),
                   std::to_string(m.restoreRetries),
                   std::to_string(m.corruptRestores),
                   std::to_string(m.degradedColdStarts),
                   sim::Table::num(degradedFrac(m), 3),
                   sim::Table::num(m.p99Ms(), 1),
                   sim::Table::num(m.p99Ms() / baseP99, 2)});
    }
    t2.addNote("Transients mostly resolve within the retry budget "
               "(small P99 cost); torn checkpoints force cold-start "
               "rebuilds, the expensive rung of the ladder.");
    t2.print();

    // --- Sweep 3: recovery cost after a checkpoint crash, early/mid/
    // late in the publication protocol, across checkpoint footprints.
    struct CrashPoint
    {
        rfork::MechanismKind mech;
        double frac;
        uint64_t pages;
    };
    std::vector<CrashPoint> crashPoints;
    for (rfork::MechanismKind mech :
         {rfork::MechanismKind::CxlFork, rfork::MechanismKind::CriuCxl}) {
        for (double frac : {0.1, 0.5, 0.9}) {
            for (uint64_t pages : {uint64_t(16), uint64_t(64),
                                   uint64_t(256)})
                crashPoints.push_back({mech, frac, pages});
        }
    }
    struct CrashRow
    {
        uint64_t sites = 0;
        porter::SiteResult res;
    };
    std::vector<CrashRow> crashRows(crashPoints.size());
    bench::runSweep(crashPoints, [&](const CrashPoint &p, size_t i) {
        porter::Scenario s = porter::Scenario::crash();
        s.mechanism = p.mech;
        s.heapPages = p.pages;
        const uint64_t sites = porter::countSites(s, porter::Fault::Crash);
        const uint64_t site = uint64_t(p.frac * double(sites - 1));
        crashRows[i].sites = sites;
        crashRows[i].res = porter::runAtSite(s, porter::Fault::Crash, site);
        bench::recordValue(
            sim::format("crash_recovery.%s.f%02.0f.p%llu.recovery_us",
                        rfork::mechanismName(p.mech), p.frac * 100,
                        (unsigned long long)p.pages),
            crashRows[i].res.recoveryTime.toUs());
        bench::recordValue(
            sim::format("crash_recovery.%s.f%02.0f.p%llu.frames",
                        rfork::mechanismName(p.mech), p.frac * 100,
                        (unsigned long long)p.pages),
            double(crashRows[i].res.framesReclaimed));
    });

    sim::Table t3("Crash-recovery sweep: node dies at an early/mid/late "
                  "site of checkpoint publication, then restarts and "
                  "recovers the journal");
    t3.setHeader({"Mechanism", "Site frac", "Pages", "Site", "Sites",
                  "Recovery (us)", "Frames recl", "Image kept"});
    bool crashViolation = false;
    for (size_t i = 0; i < crashPoints.size(); ++i) {
        const CrashPoint &p = crashPoints[i];
        const CrashRow &r = crashRows[i];
        crashViolation |= r.res.violation;
        t3.addRow({rfork::mechanismName(p.mech),
                   sim::Table::num(p.frac, 1),
                   std::to_string(p.pages),
                   std::to_string(r.res.site),
                   std::to_string(r.sites),
                   sim::Table::num(r.res.recoveryTime.toUs(), 2),
                   std::to_string(r.res.framesReclaimed),
                   r.res.imageAvailable ? "yes" : "no"});
    }
    t3.addNote("Late crashes (past the publish write) keep the image: "
               "recovery verifies instead of reclaiming. Recovery cost "
               "scales with the frames the orphan pinned.");
    t3.print();
    if (crashViolation) {
        std::printf("ERROR: crash-recovery invariant violated\n");
        return 1;
    }

    // --- Sweep 4: poison rate x replication factor over the RAS
    // layer. Each point is a miniature chaos soak (CXLfork keeps its
    // checkpoints on the device, so poison actually lands on them);
    // crashes and transients are off to isolate the replication story:
    // survival fraction vs. the keepalive memory replicas cost.
    struct RasPoint
    {
        double poison;
        uint32_t replicas;
    };
    std::vector<RasPoint> rasPoints;
    for (double poison : {0.02, 0.1})
        for (uint32_t k : {0u, 1u, 2u})
            rasPoints.push_back({poison, k});
    std::vector<porter::Report> rasRows(rasPoints.size());
    bench::runSweep(rasPoints, [&](const RasPoint &p, size_t i) {
        porter::Scenario s = porter::Scenario::chaos();
        s.rounds = 60;
        s.cluster.machine.faults.framePoisonRate = p.poison;
        s.cluster.machine.faults.cxlTransientRate = 0.0;
        s.setReplicas(p.replicas);
        s.publishFaultProb = 0.0;
        rasRows[i] = porter::run(s);
        const std::string tag = sim::format("ras.p%02.0f.k%u",
                                            p.poison * 100, p.replicas);
        bench::recordValue(tag + ".survival",
                           rasRows[i].checkpointSurvival());
        bench::recordValue(tag + ".replica_peak_kb",
                           double(rasRows[i].peakReplicaBytes) / 1024.0);
        bench::recordValue(tag + ".repairs", double(rasRows[i].repairs));
    });

    sim::Table t4("RAS sweep: checkpoint survival and keepalive-memory "
                  "overhead vs poison rate and replication factor K");
    t4.setHeader({"Poison", "K", "Published", "Lost", "Survival",
                  "Repairs", "Replicas written", "Peak replica KiB"});
    bool rasViolation = false;
    for (size_t i = 0; i < rasPoints.size(); ++i) {
        const RasPoint &p = rasPoints[i];
        const porter::Report &r = rasRows[i];
        rasViolation |= !r.pass;
        t4.addRow({sim::Table::num(p.poison, 2),
                   std::to_string(p.replicas),
                   std::to_string(r.checkpointsPublished),
                   std::to_string(r.checkpointsLost),
                   sim::Table::num(r.checkpointSurvival(), 4),
                   std::to_string(r.repairs),
                   std::to_string(r.replicasWritten),
                   sim::Table::num(double(r.peakReplicaBytes) / 1024.0,
                                   1)});
    }
    t4.addNote("K = 0 is the negative control: the same storm that "
               "replication rides out demonstrably loses checkpoints. "
               "The overhead column is what K replicas of every "
               "hot page keep alive on the device.");
    t4.print();
    if (rasViolation) {
        std::printf("ERROR: chaos soak invariant violated in RAS sweep\n");
        return 1;
    }

    // --- Combined stress point: everything on at once.
    porter::PorterFaults storm;
    storm.nodeMtbf = SimTime::sec(10);
    storm.nodeRecovery = SimTime::sec(5);
    storm.transientRestoreRate = 0.2;
    storm.corruptRestoreRate = 0.05;
    const PorterMetrics m = runWith(storm);
    std::printf("\ncombined stress (MTBF 10 s + transients 0.2 + torn "
                "0.05): %llu/%zu requests completed, %llu crashes, %llu "
                "failovers, %llu retries, %llu degraded "
                "(P99 %.1f ms, %.2fx baseline)\n",
                (unsigned long long)m.latency.count(), trace.size(),
                (unsigned long long)m.nodeCrashes,
                (unsigned long long)m.restoreFailovers,
                (unsigned long long)m.restoreRetries,
                (unsigned long long)m.degradedColdStarts, m.p99Ms(),
                m.p99Ms() / baseP99);
    if (m.latency.count() != trace.size()) {
        std::printf("ERROR: requests lost under injection\n");
        return 1;
    }
    bench::finishBench("ext_faults");
    return 0;
}

int
main()
{
    return cxlfork::bench::guardedMain("bench_ext_faults", benchMain);
}
