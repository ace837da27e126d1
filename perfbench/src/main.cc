/**
 * @file
 * The perfbench program. One workload per process, one thread:
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--chrome-trace <path>]
 *   perfbench --selftest
 *
 * --trace 0 runs the workload's setup several times (setup_s is their
 * median) and the timed phase once, untraced, and reports end-to-end
 * metrics. --trace 1 runs one untraced and one traced pass and reports
 * per-layer metrics; both passes must yield the same sim digest.
 *
 * Human-readable lines go first; the last stdout line is
 * `RESULT {...}` with every metric measured. A failed correctness
 * check is named on stderr and makes the exit code 1.
 */

#include <malloc.h>
#include <sys/resource.h>

#include <cstdio>
#include <cstring>
#include <exception>
#include <string>

#include "workloads.hh"

namespace perfbench {
namespace {

using Runner = Outcome (*)(const RunOptions &, unsigned);

struct Workload
{
    const char *name;
    Runner run;
    unsigned setupRepeats; ///< Setups per --trace 0 run.
};

const Workload kWorkloads[] = {
    {"restore_burst", runRestoreBurst, 15},
    {"checkpoint_churn", runCheckpointChurn, 15},
    {"porter_trace", runPorterTrace, 3},
};

const Workload *
findWorkload(const std::string &name)
{
    for (const Workload &w : kWorkloads) {
        if (name == w.name)
            return &w;
    }
    return nullptr;
}

/**
 * The per-layer metrics --trace 1 reports, in BENCHMARK.json's order. A
 * layer a workload never calls reads 0 there.
 */
const char *const kLayerMetrics[] = {
    // rfork
    "rfork.restore.calls", "rfork.restore.host_ms", "rfork.restore.sim_ms",
    "rfork.restore.memory_state_sim_ms", "rfork.restore.global_state_sim_ms",
    "rfork.restore.data_copy_sim_ms", "rfork.restore.pages_copied",
    "rfork.restore.leaves_attached", "rfork.restore.retries",
    "rfork.restore.failed", "rfork.cxlfork.restore.host_ms",
    "rfork.cxlfork.restore.sim_ms", "rfork.mitosis.restore.host_ms",
    "rfork.mitosis.restore.sim_ms", "rfork.criu.restore.host_ms",
    "rfork.criu.restore.sim_ms", "rfork.checkpoint.calls",
    "rfork.checkpoint.host_ms", "rfork.checkpoint.sim_ms",
    "rfork.checkpoint.pages", "rfork.checkpoint.leaves",
    "rfork.checkpoint.bytes_to_cxl_mb", "rfork.checkpoint.bytes_local_mb",
    // faas
    "faas.invoke.calls", "faas.invoke.host_ms", "faas.invoke.sim_ms",
    "faas.invoke.fault_sim_ms", "faas.deploy.host_ms",
    // os
    "os.fault.count", "os.fault.sim_ms", "os.fault.cow_cxl",
    "os.fault.failed", "os.tlb.shootdowns", "os.pages.copied_from_cxl",
    // mem
    "mem.cxl.transactions", "mem.cxl.frame_reads",
    "mem.cxl.transient_retries", "mem.dram.frame_reads",
    "mem.frames.peak_used",
    // cxl.page_store
    "cxl.dedup.hits", "cxl.dedup.unique", "cxl.dedup.bytes_saved_mb",
    "cxl.dedup.hit_ratio", "cxl.compress.pages",
    "cxl.compress.bytes_stored_mb", "cxl.compress.decompressions",
    "cxl.compress.decompress_sim_ms",
    // cxl.ras
    "cxl.ras.scrub.calls", "cxl.ras.scrub.host_ms", "cxl.ras.pages_scrubbed",
    "cxl.ras.replicas_written", "cxl.ras.repairs",
    "cxl.ras.write_verify_failures",
    // cxl.coherence
    "cxl.coherence.lookups", "cxl.coherence.invalidations",
    "cxl.coherence.writebacks", "cxl.coherence.tax_sim_ms",
    // cxl.link_health
    "cxl.partition.degraded_txns", "cxl.partition.reroutes",
    // cxl.fabric_queue
    "cxl.contention.queued", "cxl.contention.delay_sim_ms",
    "cxl.contention.hol_blocks", "cxl.contention.peak_inflight",
    // cxl.object_store, image, fs
    "cxl.object_store.lookup.calls", "cxl.object_store.lookup.host_ms",
    "cxl.object_store.reclaim.calls", "cxl.object_store.reclaim.host_ms",
    "cxl.image.crc_checks", "cxl.fs.writes", "cxl.fs.bytes_written_mb",
    "cxl.fs.crc_checks",
    // porter
    "porter.perf_model.profiles", "porter.perf_model.host_s",
    "porter.run.host_ms", "porter.requests", "porter.warm_hits",
    "porter.restores", "porter.cold_starts", "porter.ghost_hits",
    "porter.queued_for_cores", "porter.queued_for_memory",
    "porter.evictions", "porter.checkpoints_taken", "porter.peak_cxl_mb",
    "porter.peak_mem_mb", "porter.warm_hit_ratio",
    // the cost of observing, and the ops that failed
    "sim.trace.spans", "sim.trace.overhead_pct", "fail_frac",
};

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

std::string
jsonObject(const MetricMap &m)
{
    std::string s = "{";
    for (const auto &[name, v] : m) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        s += (s.size() > 1 ? ", \"" : "\"") + name + "\": " + buf;
    }
    return s + "}";
}

int
report(const std::string &workload, uint64_t seed, uint64_t digest,
       const Outcome &out, const MetricMap &metrics)
{
    const bool correct = out.failedChecks.empty();
    std::printf("digest %s seed=%llu %016llx\n", workload.c_str(),
                (unsigned long long)seed, (unsigned long long)digest);
    std::printf("RESULT {\"correct\": %s, \"attempted\": %llu, "
                "\"failed\": %llu, \"metrics\": %s}\n",
                correct ? "true" : "false",
                (unsigned long long)out.attempted,
                (unsigned long long)out.failed,
                jsonObject(metrics).c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}

/** --trace 0: end-to-end metrics of one untraced pass. */
int
runEndToEnd(const Workload &w, const RunOptions &opts)
{
    Outcome out = w.run(opts, w.setupRepeats);
    MetricMap m = out.e2e;
    m["setup_s"] = median(out.setupCpuS);
    m["host_ops_per_s"] = median(out.chunkOpsPerS);
    m["peak_rss_mb"] = peakRssMb();
    m["ok_frac"] = 1.0 - double(out.failed) / double(out.attempted);
    std::printf("%s: %llu ops, timed phase %.3f s CPU, setup %.3f s CPU "
                "(median of %zu)\n",
                w.name, (unsigned long long)out.attempted, out.timedCpuS,
                m["setup_s"], out.setupCpuS.size());
    return report(w.name, opts.seed, simDigest(out), out, m);
}

/**
 * --trace 1: per-layer metrics. The untraced pass gives host times
 * free of tracing cost; the traced pass gives spans, self time and the
 * tracing overhead, and must reproduce the untraced digest.
 */
int
runPerLayer(const Workload &w, const RunOptions &opts)
{
    RunOptions plain = opts;
    plain.traced = false;
    Outcome a = w.run(plain, 1);
    Outcome b = w.run(opts, 1);
    const uint64_t da = simDigest(a);
    const uint64_t db = simDigest(b);
    Checks checks(a);
    checks.expect(da == db, "trace_purity",
                  "traced pass changed the sim digest");
    for (const std::string &name : b.failedChecks)
        a.failedChecks.push_back("traced:" + name);

    a.layer["sim.trace.spans"] = b.layer["sim.trace.spans"];
    a.layer["sim.trace.overhead_pct"] =
        100.0 * (b.timedCpuS / a.timedCpuS - 1.0);
    a.layer["fail_frac"] = double(a.failed) / double(a.attempted);
    MetricMap m;
    for (const char *name : kLayerMetrics)
        m[name] = a.layer[name];
    std::printf("%s: untraced %.3f s CPU, traced %.3f s CPU\n", w.name,
                a.timedCpuS, b.timedCpuS);
    return report(w.name, opts.seed, da, a, m);
}

/** Every correctness check must fail on a deliberately wrong expectation. */
int
selfTest()
{
    struct Case
    {
        const char *workload;
        Sabotage sabotage;
        const char *mustFail; ///< nullptr: every check must pass.
    };
    const Case cases[] = {
        {"restore_burst", Sabotage::None, nullptr},
        {"restore_burst", Sabotage::WrongToken, "restored_tokens"},
        {"restore_burst", Sabotage::ExtraFrame, "frame_leak"},
        {"checkpoint_churn", Sabotage::None, nullptr},
        {"checkpoint_churn", Sabotage::WrongToken, "restored_tokens"},
        {"porter_trace", Sabotage::None, nullptr},
        {"porter_trace", Sabotage::MiscountRequest, "porter_request_count"},
    };
    int bad = 0;
    for (const Case &c : cases) {
        RunOptions opts;
        opts.seed = 7;
        opts.seconds = 0.0;
        opts.sabotage = c.sabotage;
        const Outcome out = findWorkload(c.workload)->run(opts, 1);
        bool ok = false;
        if (!c.mustFail) {
            ok = out.failedChecks.empty();
        } else {
            for (const std::string &f : out.failedChecks)
                ok |= f == c.mustFail;
        }
        std::printf("selftest %-16s %-22s %s\n", c.workload,
                    c.mustFail ? c.mustFail : "(clean)",
                    ok ? "ok" : "FAILED");
        bad += !ok;
    }
    return bad ? 1 : 0;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload <restore_burst|"
                 "checkpoint_churn|porter_trace> --seed <n> --seconds <s> "
                 "--trace <0|1> [--chrome-trace <path>]\n"
                 "       perfbench --selftest\n");
    return 2;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    // A fixed mmap threshold: glibc's adaptive one makes peak RSS follow
    // the order of large frees (porter_trace moved by 9% across seeds).
    mallopt(M_MMAP_THRESHOLD, 1 << 20);
    std::string workload;
    RunOptions opts;
    bool haveSeed = false, haveSeconds = false, haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--selftest")
            return selfTest();
        if (i + 1 >= argc)
            return usage();
        const char *val = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            workload = val;
        } else if (arg == "--seed") {
            opts.seed = std::strtoull(val, &end, 10);
            haveSeed = *val && !*end;
        } else if (arg == "--seconds") {
            opts.seconds = std::strtod(val, &end);
            haveSeconds = *val && !*end && opts.seconds > 0.0 &&
                          opts.seconds <= 3600.0;
        } else if (arg == "--trace") {
            haveTrace = !std::strcmp(val, "0") || !std::strcmp(val, "1");
            opts.traced = !std::strcmp(val, "1");
        } else if (arg == "--chrome-trace") {
            opts.chromeTracePath = val;
        } else {
            return usage();
        }
    }
    const Workload *w = findWorkload(workload);
    if (!w || !haveSeed || !haveSeconds || !haveTrace)
        return usage();
    try {
        return opts.traced ? runPerLayer(*w, opts) : runEndToEnd(*w, opts);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s: %s\n", w->name, e.what());
        return 1;
    }
}
