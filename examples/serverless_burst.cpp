/**
 * @file
 * Serverless burst handling with CXLporter.
 *
 * Drives a bursty Azure-style trace against two CXLporter variants —
 * one restoring functions with CRIU-CXL, one with CXLfork — and shows
 * how fast remote fork plus ghost containers absorb load spikes.
 */

#include <cstdio>

#include "faas/workloads.hh"
#include "porter/autoscaler.hh"
#include "porter/trace.hh"

using namespace cxlfork;

int
main()
{
    // The workload: four functions with mixed footprints.
    std::vector<faas::FunctionSpec> functions;
    std::vector<std::string> names;
    for (const char *n : {"Float", "Json", "Rnn", "Cnn"}) {
        functions.push_back(*faas::findWorkload(n));
        names.push_back(n);
    }

    // A 30-second bursty trace at 100 requests/second.
    porter::TraceConfig tc;
    tc.totalRps = 100;
    tc.duration = sim::SimTime::sec(30);
    tc.seed = 42;
    const auto trace = porter::TraceGenerator(names, tc).generate();
    std::printf("trace: %zu requests (%.1f RPS measured)\n\n", trace.size(),
                porter::TraceGenerator::measuredRps(trace, tc.duration));

    porter::PerfModel perf;
    for (porter::Mechanism mech :
         {porter::Mechanism::CriuCxl, porter::Mechanism::CxlFork}) {
        porter::PorterConfig cfg;
        cfg.mechanism = mech;
        cfg.memPerNodeBytes = mem::gib(4);
        porter::PorterSim sim(cfg, functions, perf);
        const auto m = sim.run(trace);

        std::printf("--- %s ---\n", rfork::mechanismName(porter::kindOf(mech)));
        std::printf("  P50 %.1f ms, P99 %.1f ms\n", m.p50Ms(), m.p99Ms());
        std::printf("  warm hits %llu, restores %llu (ghost %llu), cold "
                    "starts %llu\n",
                    (unsigned long long)m.warmHits,
                    (unsigned long long)m.restores,
                    (unsigned long long)m.ghostHits,
                    (unsigned long long)m.coldStarts);
        std::printf("  evictions %llu, peak node memory %.0f MB\n\n",
                    (unsigned long long)m.evictions,
                    double(m.peakMemBytes) / (1 << 20));
    }
    std::printf("CXLfork's near-constant restore keeps burst-induced cold "
                "starts off the tail; CRIU pays full deserialization per "
                "clone.\n");
    return 0;
}
