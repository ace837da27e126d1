/**
 * @file
 * Extension: keep-alive window study (paper Sec. 5 closes with "we
 * consider studying different window sizes for different functions as
 * future work").
 *
 * Sweeps the keep-alive window for CXLporter with CRIU-CXL and CXLfork
 * under constrained memory. With a slow rfork, long windows are the
 * only defence against cold starts, so shrinking them hurts; with
 * CXLfork's near-constant restore, short windows reclaim memory almost
 * for free — exactly why CXLporter dares to drop to 10 s under
 * pressure. Each point is also recorded as
 * `keepalive.<window>s.<mech>.*` bench metrics for the golden suite.
 */

#include "porter/autoscaler.hh"
#include "porter/trace.hh"

#include "bench_util.hh"

static int
benchMain()
{
    using namespace cxlfork;

    std::vector<faas::FunctionSpec> functions;
    std::vector<std::string> names;
    for (const char *n : {"Float", "Json", "Rnn", "Cnn", "BFS"}) {
        functions.push_back(*faas::findWorkload(n));
        names.push_back(n);
    }
    porter::TraceConfig tc;
    tc.totalRps = 100;
    tc.duration = sim::SimTime::sec(60);
    tc.seed = 0x6ee9;
    const auto trace = porter::TraceGenerator(names, tc).generate();

    porter::PerfModel perf;
    sim::Table t("Keep-alive window sweep (constrained memory, "
                 "2 GB/node)");
    t.setHeader({"Window (s)", "CRIU P99 (ms)", "CRIU restores",
                 "CXLfork P99 (ms)", "CXLfork restores",
                 "CXLfork peak mem (MB)"});
    for (double windowS : {600.0, 60.0, 10.0, 2.0}) {
        std::map<porter::Mechanism, porter::PorterMetrics> res;
        for (porter::Mechanism mech :
             {porter::Mechanism::CriuCxl, porter::Mechanism::CxlFork}) {
            porter::PorterConfig cfg;
            cfg.mechanism = mech;
            cfg.memPerNodeBytes = mem::gib(2);
            cfg.keepAlive = sim::SimTime::sec(windowS);
            cfg.keepAlivePressured = sim::SimTime::sec(
                std::min(windowS, 10.0));
            cfg.coresPerNode = 32;
            porter::PorterSim sim(cfg, functions, perf);
            res[mech] = sim.run(trace);

            const porter::PorterMetrics &m = res[mech];
            const std::string key =
                "keepalive." + sim::Table::num(windowS, 0) + "s." +
                (mech == porter::Mechanism::CriuCxl ? "criu" : "cxlfork");
            bench::recordValue(key + ".p50_ms", m.p50Ms());
            bench::recordValue(key + ".p99_ms", m.p99Ms());
            bench::recordValue(key + ".restores", double(m.restores));
            bench::recordValue(key + ".cold_starts", double(m.coldStarts));
            bench::recordValue(key + ".warm_hits", double(m.warmHits));
            bench::recordValue(key + ".evictions", double(m.evictions));
            bench::recordValue(key + ".queued_for_memory",
                               double(m.queuedForMemory));
            bench::recordValue(key + ".peak_mem_mb",
                               double(m.peakMemBytes) / (1 << 20));
        }
        const auto &criu = res[porter::Mechanism::CriuCxl];
        const auto &cxlf = res[porter::Mechanism::CxlFork];
        t.addRow({sim::Table::num(windowS, 0),
                  sim::Table::num(criu.p99Ms(), 1),
                  std::to_string(criu.restores),
                  sim::Table::num(cxlf.p99Ms(), 1),
                  std::to_string(cxlf.restores),
                  sim::Table::num(double(cxlf.peakMemBytes) / (1 << 20),
                                  0)});
    }
    t.addNote("Short windows multiply restores; only a fast rfork keeps "
              "that cheap, letting memory be reclaimed aggressively.");
    t.print();
    bench::finishBench("ext_keepalive");
    return 0;
}

int
main()
{
    return cxlfork::bench::guardedMain("bench_ext_keepalive", benchMain);
}
