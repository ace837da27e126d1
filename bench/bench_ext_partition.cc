/**
 * @file
 * Extension: restore tails under fabric partitions (link-health sweep).
 *
 * Sweeps per-transaction severance rate x RAS replication factor over
 * the three fabric mechanisms and reports what the degraded-restore
 * ladder (retry -> replica reroute -> warm failover -> cold start)
 * costs in restore-latency tails: P50/P99 of every completed restore,
 * plus the fraction of invocations that fell off the direct rung.
 * Each point is a miniature partition soak (porter::Scenario's
 * partition preset) with scheduled node cuts, mid-publish severance and
 * split-brain replays disabled so the Bernoulli weather under test is
 * the only signal. Fixed seeds: two runs produce identical output.
 */

#include "porter/scenario.hh"
#include "sim/log.hh"

#include "bench_util.hh"

static int
benchMain()
{
    using namespace cxlfork;

    struct Point
    {
        rfork::MechanismKind mech;
        double severRate;
        uint32_t replicas;
    };
    std::vector<Point> points;
    for (rfork::MechanismKind mech : {rfork::MechanismKind::CxlFork,
                                      rfork::MechanismKind::CriuCxl,
                                      rfork::MechanismKind::MitosisCxl}) {
        for (double rate : {0.0, 0.01, 0.05})
            for (uint32_t k : {0u, 2u})
                points.push_back({mech, rate, k});
    }

    auto percentile = [](const std::vector<double> &sorted, double p) {
        if (sorted.empty())
            return 0.0;
        const size_t idx =
            size_t(p * double(sorted.size() - 1) + 0.5);
        return sorted[idx];
    };

    std::vector<porter::Report> rows(points.size());
    bench::runSweep(points, [&](const Point &p, size_t i) {
        porter::Scenario s = porter::Scenario::partition();
        s.mechanism = p.mech;
        s.rounds = 120;
        s.cluster.machine.faults.linkSeverRate = p.severRate;
        s.cluster.machine.faults.linkDegradeRate = p.severRate;
        s.setReplicas(p.replicas);
        // Isolate the Bernoulli weather: no scheduled whole-node cuts,
        // no mid-publish severance, no split-brain replays. The ladder
        // and the fence still run; they just aren't force-fed.
        s.scheduledSeverProb = 0.0;
        s.publishFaultProb = 0.0;
        s.steps &= ~porter::Scenario::kSplitBrain;
        rows[i] = porter::run(s);
        const porter::Report &r = rows[i];
        const std::string tag =
            sim::format("partition.%s.r%03.0f.k%u",
                        rfork::mechanismName(p.mech),
                        p.severRate * 1000, p.replicas);
        bench::recordValue(tag + ".survival", r.restoreSurvival());
        bench::recordValue(tag + ".p50_us",
                           percentile(r.restoreLatenciesUs, 0.50));
        bench::recordValue(tag + ".p99_us",
                           percentile(r.restoreLatenciesUs, 0.99));
        const double inv = r.invocations ? double(r.invocations) : 1.0;
        bench::recordValue(tag + ".failover_frac",
                           double(r.failovers) / inv);
        bench::recordValue(tag + ".cold_frac",
                           double(r.coldStarts) / inv);
        bench::recordValue(tag + ".reroutes", double(r.reroutes));
    });

    sim::Table t("Partition sweep: restore-latency tails and ladder-rung "
                 "fractions vs severance rate and replication factor K");
    t.setHeader({"Mechanism", "Sever", "K", "Invocations", "OK",
                 "Retried", "Failover", "Cold", "Reroutes", "P50 (us)",
                 "P99 (us)", "Survival"});
    bool violation = false;
    for (size_t i = 0; i < points.size(); ++i) {
        const Point &p = points[i];
        const porter::Report &r = rows[i];
        violation |= !r.pass;
        t.addRow({rfork::mechanismName(p.mech),
                  sim::Table::num(p.severRate, 2),
                  std::to_string(p.replicas),
                  std::to_string(r.invocations),
                  std::to_string(r.restoresOk),
                  std::to_string(r.retriedRestores),
                  std::to_string(r.failovers),
                  std::to_string(r.coldStarts),
                  std::to_string(r.reroutes),
                  sim::Table::num(percentile(r.restoreLatenciesUs, 0.50),
                                  1),
                  sim::Table::num(percentile(r.restoreLatenciesUs, 0.99),
                                  1),
                  sim::Table::num(r.restoreSurvival(), 4)});
    }
    t.addNote("Rate 0 is the calm baseline: its tails price the "
              "heartbeat machinery alone. K = 2 buys the reroute rung "
              "(CXLfork reads a replica instead of failing over), which "
              "shows up as P99 holding closer to P50 as the weather "
              "worsens.");
    t.print();
    if (violation) {
        std::printf("ERROR: partition soak invariant violated in sweep\n");
        return 1;
    }

    bench::finishBench("ext_partition");
    return 0;
}

int
main()
{
    return cxlfork::bench::guardedMain("bench_ext_partition", benchMain);
}
