/**
 * @file
 * Shared helpers for the paper-reproduction benches: a cluster sized
 * for the Table-1 functions, rfork scenario runners, breakdown structs
 * matching the figures, and the observability plumbing every bench
 * shares (env-gated tracing, a process-global metrics registry, and
 * the flat-JSON export the golden regression suite consumes).
 *
 * Environment variables (with all of them unset every bench's output
 * is bit-identical to the untraced build):
 *  - CXLFORK_TRACE: arm span tracing on every bench cluster and print
 *    per-phase restore breakdowns plus the bench metrics table.
 *  - CXLFORK_TRACE_JSON=<prefix>: also write Chrome trace_event JSON
 *    to <prefix><tag>.json for tagged clusters.
 *  - CXLFORK_METRICS_JSON=<path>: write the bench metrics registry as
 *    flat JSON on finishBench() (the golden-file format).
 *  - CXLFORK_CXL_LATENCY_NS=<ns>: override the CXL access latency in
 *    benchClusterConfig() — the perturbation hook the golden suite
 *    uses to prove it catches cost regressions. A value that is not a
 *    finite number above 0 is fatal.
 *  - CXLFORK_JOBS=<n>: host worker threads for runSweep() (default:
 *    hardware concurrency). Simulated results are identical at any
 *    value; only host wall-clock changes. A value that is not an
 *    integer above 0 is fatal.
 *  - CXLFORK_WALLCLOCK_JSON=<path>: append host wall-clock entries
 *    (JSON lines) on finishBench() — the perfcmp input format.
 *
 * The opt-in CXL layers (RAS, coherence, codec, link health, fabric
 * queue, speculative prefetch) are armed in code by the benches that
 * sweep them, never through the environment.
 */

#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "faas/workloads.hh"
#include "porter/cluster.hh"
#include "rfork/criu.hh"
#include "rfork/cxlfork.hh"
#include "rfork/localfork.hh"
#include "rfork/mitosis.hh"
#include "rfork/prefetch.hh"
#include "sim/metrics.hh"
#include "sim/table.hh"

namespace cxlfork::bench {

/**
 * A cluster big enough for Bert (630 MB) under every mechanism.
 * Honors CXLFORK_CXL_LATENCY_NS (see file comment).
 */
porter::ClusterConfig benchClusterConfig(sim::CostParams costs = {});

/** The Fig. 7a bar: one cold-start execution under one rfork design. */
struct RforkRun
{
    sim::SimTime restore;    ///< Restore phase.
    sim::SimTime pageFaults; ///< All fault handling during execution.
    sim::SimTime execution;  ///< The rest of the first invocation.
    uint64_t localBytes = 0; ///< Child-local memory after execution.
    /**
     * Coherence tax over the scenario: the slice of the above spent in
     * directory lookups/invalidations/writebacks (delta of the
     * machine's cxl.coherence.tax_ns). Zero whenever the directory is
     * off, so the off-mode goldens carry no trace of it.
     */
    sim::SimTime coherenceTax;

    /**
     * Speculative-prefetch outcome of the restore (zero when no
     * schedule was passed, so off-mode exports never mention it):
     * pages the batch actually populated vs. requests it skipped
     * (already present, or the prediction missed the address space).
     */
    uint64_t pagesPrefetched = 0;
    uint64_t prefetchSkipped = 0;

    /**
     * Codec decompress time over the scenario (delta of the machine's
     * cxl.compress.decompress_ns). Zero whenever compression is off.
     */
    sim::SimTime decompressTime;

    sim::SimTime total() const { return restore + pageFaults + execution; }
};

/**
 * Deploy a warmed-up parent of `spec` on node 0 of a fresh cluster
 * (per the CXLporter recipe: A/D cleared after warm-up so the
 * checkpoint captures the steady access pattern).
 */
std::unique_ptr<faas::FunctionInstance>
deployWarmParent(porter::Cluster &cluster, const faas::FunctionSpec &spec,
                 uint32_t warmInvocations = 3);

/** Run one cold-start execution via an already-made checkpoint. */
RforkRun runRestoreScenario(porter::Cluster &cluster,
                            rfork::RemoteForkMechanism &mech,
                            const std::shared_ptr<rfork::CheckpointHandle> &h,
                            const faas::FunctionSpec &spec,
                            mem::NodeId targetNode,
                            const rfork::RestoreOptions &opts = {});

/** Run the vanilla cold execution (no rfork). */
RforkRun runColdScenario(porter::Cluster &cluster,
                         const faas::FunctionSpec &spec,
                         mem::NodeId targetNode);

/** Run the same-node LocalFork scenario. */
RforkRun runLocalForkScenario(porter::Cluster &cluster,
                              faas::FunctionInstance &parent,
                              const rfork::RestoreOptions &opts = {});

// --- Speculative restore.

/**
 * Train a fresh working-set predictor the way a deployed system would:
 * run three sacrificial *lazy* restores of `handle` on
 * `targetNode`, trace the demand faults each restored child takes
 * during its first invocation, train on those traces, and return the
 * resulting schedule. The children are destroyed again; call this
 * before the scenario's measurement window (it advances the target
 * node's clock).
 */
rfork::PrefetchSchedule
trainSchedule(porter::Cluster &cluster, rfork::RemoteForkMechanism &mech,
              const std::shared_ptr<rfork::CheckpointHandle> &handle,
              const faas::FunctionSpec &spec, mem::NodeId targetNode);

// --- Parallel sweep execution.

/** Host worker count for runSweep: CXLFORK_JOBS, else hardware concurrency. */
unsigned sweepJobs();

/**
 * Non-template core of runSweep(): run fn(0..count-1), each call
 * scoped to its own bench-metrics registry, then merge the per-point
 * registries into the shared one in index order. The merge order is
 * what makes exports byte-identical at every CXLFORK_JOBS value — the
 * executor never lets host scheduling order leak into results.
 */
void runSweepIndexed(size_t count, const std::function<void(size_t)> &fn);

/**
 * Run one sweep point per element of `points`, possibly concurrently.
 *
 * Contract for fn(point, index): build all mutable simulation state
 * (Cluster/Machine, RNGs, PerfModel, tracer consumers) inside the
 * call — points must not share it — and write outputs only to the
 * index'th slot of pre-sized result vectors. Calls to benchMetrics()/
 * recordValue()/recordRun()/collectRestorePhases() inside fn land in a
 * per-point registry that is merged in point order after the sweep.
 */
template <typename Point, typename Fn>
void
runSweep(const std::vector<Point> &points, Fn &&fn)
{
    runSweepIndexed(points.size(), [&](size_t i) { fn(points[i], i); });
}

// --- Observability helpers shared by every bench.

/** True when CXLFORK_TRACE is set. */
bool traceEnabled();

/** Arm the machine's tracer when CXLFORK_TRACE is set. */
void armTracing(mem::Machine &machine);

/**
 * The process-global registry benches aggregate into: headline ratios,
 * per-scenario timing summaries, collected restore phases. This is
 * what finishBench() exports for the golden suite.
 */
sim::MetricsRegistry &benchMetrics();

/** Record one scalar sample into the named bench summary. */
void recordValue(const std::string &name, double v);

/** Set a named bench gauge to a point value. */
void setGauge(const std::string &name, double v);

/**
 * Record a scenario run as `<scenario>.{restore,faults,exec,total}_ms`
 * and `<scenario>.local_mb` summaries.
 */
void recordRun(const std::string &scenario, const RforkRun &run);

/**
 * Fold the machine's most recent completed restore span into
 * `<prefix>.<phase>_ms` summaries plus `<prefix>.phase_sum_ms` and
 * `<prefix>.total_ms`. No-op when tracing is off.
 */
void collectRestorePhases(mem::Machine &machine, const std::string &prefix);

/**
 * Print the per-phase cost table accumulated by collectRestorePhases
 * under `prefix`, with the phase-sum-vs-total coverage note. No-op
 * unless CXLFORK_TRACE is set.
 */
void printPhaseBreakdown(const std::string &prefix,
                         const std::string &title);

/**
 * Write the machine's Chrome trace to `<$CXLFORK_TRACE_JSON><tag>.json`
 * when that env var is set and tracing is on.
 */
void maybeWriteChromeTrace(mem::Machine &machine, const std::string &tag);

/**
 * Append one `{"bench","value","unit","jobs"}` JSON line to
 * $CXLFORK_WALLCLOCK_JSON (no-op when unset). Units in use: "ms" for
 * whole-bench host wall-clock, "ns/op" for microbenchmarks.
 */
void appendWallClock(const std::string &name, double value,
                     const std::string &unit);

/**
 * End-of-bench hook: export benchMetrics() to $CXLFORK_METRICS_JSON
 * when set, print the metrics table when CXLFORK_TRACE is set, and
 * append the bench's host wall-clock (measured from process start) to
 * $CXLFORK_WALLCLOCK_JSON when set.
 */
void finishBench(const std::string &benchName);

/**
 * A bench's main(): run body and return its exit status. A
 * sim::FatalError (a malformed environment variable, an unwritable
 * output path) prints "<bench>: <message>" to stderr and returns 1,
 * instead of aborting the process.
 */
int guardedMain(const char *bench, const std::function<int()> &body);

} // namespace cxlfork::bench
