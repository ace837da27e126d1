/**
 * @file
 * porter_trace: CXLporter with dynamic tiering over all ten Table-1
 * functions, 32 cores per node, at memory scale 0.5 so eviction and
 * memory queueing run. Open loop: arrivals follow seeded bursty
 * Azure-style traces at 150 RPS, and each request is timed from its
 * arrival. Setup generates the traces and profiles every function
 * through the page-level machinery (PerfModel); the timed phase is
 * PorterSim::run, where the porter event loop does all the work.
 *
 * The timed phase runs kTraces independent traces, each on a fresh
 * PorterSim (an independent cluster). Host throughput is the median
 * over those runs, so a stretch of interference from other processes
 * moves one run, not the result, and the simulated latencies are the
 * median over the runs, which keeps their seed-to-seed spread small.
 */

#include "faas/workloads.hh"
#include "porter/autoscaler.hh"
#include "porter/trace.hh"
#include "workloads.hh"

namespace perfbench {

namespace {

/** Simulated trace seconds per host CPU second on the reference host. */
constexpr double kTraceSecondsPerSecond = 1800.0;

/** Independent traces (and PorterSim runs) in the timed phase. */
constexpr unsigned kTraces = 20;

/** The policies dynamic tiering can pick for a CXLfork restore. */
constexpr os::TieringPolicy kPolicies[] = {
    os::TieringPolicy::MigrateOnWrite, os::TieringPolicy::Hybrid};

porter::PorterConfig
porterConfig()
{
    porter::PorterConfig pc;
    pc.mechanism = porter::Mechanism::CxlFork;
    pc.dynamicTiering = true;
    pc.numNodes = 2;
    pc.coresPerNode = 32;
    pc.memPerNodeBytes = mem::gib(8);
    pc.memoryScale = 0.5;
    pc.cxlCapacityBytes = mem::gib(16);
    pc.dedupCapacity = false;
    pc.faults = porter::PorterFaults{};
    return pc;
}

struct World
{
    std::vector<faas::FunctionSpec> functions;
    std::vector<std::vector<porter::Request>> traces;
    uint64_t requests = 0;
    std::unique_ptr<porter::PerfModel> perf;
};

std::unique_ptr<World>
setUp(uint64_t seed, double traceSeconds, Ledger &setupLedger)
{
    auto w = std::make_unique<World>();
    sim::Rng rng(seed);
    // One arrival stream per function, and a second one for Float:
    // popularity is skewed as in Azure traces, and with eleven equal
    // streams the median request falls inside one function's share
    // instead of on the edge between the 5th and 6th of ten, where
    // p50 would flip between two functions' latencies from seed to
    // seed.
    std::vector<std::string> streams{"Float"};
    for (const faas::WorkloadEntry &e : faas::table1Workloads()) {
        w->functions.push_back(seededSpec(e.spec.name, rng));
        streams.push_back(e.spec.name);
    }
    porter::TraceConfig tc;
    tc.totalRps = 150.0;
    tc.duration = sim::SimTime::sec(traceSeconds);
    for (unsigned i = 0; i < kTraces; ++i) {
        tc.seed = rng.raw();
        w->traces.push_back(porter::TraceGenerator(streams, tc).generate());
        w->requests += w->traces.back().size();
    }

    w->perf = std::make_unique<porter::PerfModel>(sim::CostParams{});
    for (const faas::FunctionSpec &spec : w->functions) {
        for (os::TieringPolicy p : kPolicies) {
            setupLedger.call("porter.perf_model", [&] {
                w->perf->profile(spec, porter::Mechanism::CxlFork, p);
            });
        }
    }
    return w;
}

} // namespace

Outcome
runPorterTrace(const RunOptions &opts, unsigned setupRepeats)
{
    Outcome out;
    Checks checks(out);
    const double traceSeconds = std::max(
        60.0, std::round(opts.seconds * kTraceSecondsPerSecond / kTraces));
    Ledger setupLedger;
    std::unique_ptr<World> w =
        repeatSetUp(setupRepeats, out, setupLedger, [&] {
            return setUp(opts.seed, traceSeconds, setupLedger);
        });

    // Each run's figures are taken as soon as it ends, so only one
    // run's latency samples are alive at a time. Counts add up, peaks
    // take the maximum, and p50, p99 and the mean are the median over
    // the runs of each run's own: one run whose bursts happened to
    // pile up on the cores moves one of ten values, not the result.
    sim::Tracer tracer;
    tracer.setEnabled(opts.traced);
    uint64_t observed = 0;
    Ledger ledger;
    porter::PorterMetrics m;
    std::vector<double> p50, p99, meanNs;
    ChunkTimer timer(out);
    for (const std::vector<porter::Request> &trace : w->traces) {
        porter::PorterSim sim(porterConfig(), w->functions, *w->perf);
        if (opts.traced)
            sim.attachObservability(&tracer, nullptr);
        const porter::PorterMetrics r =
            ledger.call("porter.run", [&] { return sim.run(trace); });
        timer.lap(trace.size());
        observed += tracer.spans().size() + tracer.instants().size();
        tracer.clear();
        m.requests += r.requests;
        m.warmHits += r.warmHits;
        m.restores += r.restores;
        m.coldStarts += r.coldStarts;
        m.ghostHits += r.ghostHits;
        m.queuedForCores += r.queuedForCores;
        m.queuedForMemory += r.queuedForMemory;
        m.evictions += r.evictions;
        m.checkpointsTaken += r.checkpointsTaken;
        m.peakCxlBytes = std::max(m.peakCxlBytes, r.peakCxlBytes);
        m.peakMemBytes = std::max(m.peakMemBytes, r.peakMemBytes);
        p50.push_back(r.latency.p50());
        p99.push_back(r.latency.p99());
        meanNs.push_back(r.latency.mean());
    }
    timer.finish();

    const uint64_t served = m.warmHits + m.restores + m.coldStarts;
    const uint64_t expected =
        w->requests + (opts.sabotage == Sabotage::MiscountRequest);
    checks.expect(served == m.requests && m.requests == expected,
                  "porter_request_count",
                  "warm " + std::to_string(m.warmHits) + " + restores " +
                      std::to_string(m.restores) + " + cold " +
                      std::to_string(m.coldStarts) + ", requests " +
                      std::to_string(m.requests) + ", expected " +
                      std::to_string(expected));
    out.attempted = w->requests;
    out.failed = w->requests - std::min(served, w->requests);

    // Restore, checkpoint and memory figures of the profiles porter
    // charged: what one restored child costs under each policy.
    sim::Histogram restoreNs;
    sim::Histogram checkpointNs;
    std::vector<double> localMb;
    for (const faas::FunctionSpec &spec : w->functions) {
        for (os::TieringPolicy p : kPolicies) {
            const porter::PerfProfile &prof =
                w->perf->profile(spec, porter::Mechanism::CxlFork, p);
            restoreNs.add(prof.restoreLatency + prof.coldExecLatency);
            checkpointNs.add(prof.checkpointLatency);
            localMb.push_back(double(prof.localBytesAfterExec) /
                              double(1 << 20));
        }
    }
    putPercentiles(out.e2e, "sim_restore_ms", restoreNs);
    out.e2e["sim_restore_ms.mean"] = restoreNs.mean() / 1e6;
    putPercentiles(out.e2e, "sim_checkpoint_ms", checkpointNs);
    out.e2e["sim_request_ms.p50"] = median(p50) / 1e6;
    out.e2e["sim_request_ms.p99"] = median(p99) / 1e6;
    out.e2e["sim_request_ms.mean"] = median(meanNs) / 1e6;
    out.e2e["sim_device_mb"] = double(m.peakCxlBytes) / double(1 << 20);
    out.e2e["sim_local_mb"] = mean(localMb);

    MetricMap &l = out.layer;
    l["porter.perf_model.profiles"] =
        double(setupLedger.calls("porter.perf_model"));
    l["porter.perf_model.host_s"] =
        setupLedger.hostMs("porter.perf_model") / 1e3;
    l["porter.run.host_ms"] = ledger.hostMs("porter.run");
    l["porter.requests"] = double(m.requests);
    l["porter.warm_hits"] = double(m.warmHits);
    l["porter.restores"] = double(m.restores);
    l["porter.cold_starts"] = double(m.coldStarts);
    l["porter.ghost_hits"] = double(m.ghostHits);
    l["porter.queued_for_cores"] = double(m.queuedForCores);
    l["porter.queued_for_memory"] = double(m.queuedForMemory);
    l["porter.evictions"] = double(m.evictions);
    l["porter.checkpoints_taken"] = double(m.checkpointsTaken);
    l["porter.peak_cxl_mb"] = double(m.peakCxlBytes) / double(1 << 20);
    l["porter.peak_mem_mb"] = double(m.peakMemBytes) / double(1 << 20);
    l["porter.warm_hit_ratio"] =
        m.requests ? double(m.warmHits) / double(m.requests) : 0.0;
    if (opts.traced)
        l["sim.trace.spans"] = double(observed);
    return out;
}

} // namespace perfbench
