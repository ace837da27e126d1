/**
 * @file
 * The benchmark's measuring kit: a thread-CPU clock, chunked timing
 * scaled by a reference kernel, a per-layer ledger that times the
 * benchmark's calls into each layer, a span folder that turns the
 * machine tracer's simulated-clock spans into per-layer self time,
 * counter deltas of the machine metrics registry, the correctness
 * checks, and the sim-identity digest.
 *
 * Everything here runs on the calling thread only: the benchmark never
 * starts a thread, so host CPU time and RSS do not depend on a
 * scheduler.
 */

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "mem/machine.hh"
#include "os/kernel.hh"
#include "sim/stats.hh"
#include "sim/trace.hh"

namespace cxlfork::porter {
class Cluster;
}

namespace perfbench {

using namespace cxlfork;

/** Host CPU seconds this thread has used (CLOCK_THREAD_CPUTIME_ID). */
double threadCpuSeconds();

/** A deliberately wrong expectation the self-test feeds one check. */
enum class Sabotage : uint8_t {
    None,
    WrongToken,      ///< Verification expects every token off by one.
    ExtraFrame,      ///< A frame is leaked before the teardown census.
    MiscountRequest, ///< The porter count check expects one more request.
};

/** One workload invocation, as parsed from the command line. */
struct RunOptions
{
    uint64_t seed = 1;
    double seconds = 1.0;
    bool traced = false;
    Sabotage sabotage = Sabotage::None;
    std::string chromeTracePath; ///< Traced passes write it here.
};

using MetricMap = std::map<std::string, double>;

/** What one pass (setup + timed phase + checks) of a workload measured. */
struct Outcome
{
    MetricMap e2e;   ///< End-to-end metrics (sim_*, host_ops_per_s, ...).
    MetricMap layer; ///< Per-layer metrics.
    uint64_t attempted = 0;
    uint64_t failed = 0;
    double timedCpuS = 0.0;               ///< Thread CPU of the timed phase.
    std::vector<double> chunkOpsPerS;     ///< Scaled rate, per chunk.
    std::vector<double> setupCpuS;        ///< One entry per setup repeat.
    std::vector<std::string> failedChecks; ///< Names of failed checks.
};

/**
 * A fixed host workload that shares no code with the simulator: a
 * pointer chase over a 4 MiB random cycle plus std::map finds, erases
 * and inserts, the kinds of work the simulator's host time goes to.
 */
class ReferenceKernel
{
  public:
    ReferenceKernel();

    /** Run it once. @return thread CPU seconds it took. */
    double run();

    /** run()'s CPU time on the reference host, uncontended. */
    static constexpr double kReferenceSeconds = 4.5e-3;

  private:
    std::vector<uint32_t> next_;
    std::map<uint64_t, uint64_t> map_;
    uint64_t cursor_ = 1;
};

/**
 * Times the timed phase in chunks of equal work and runs the reference
 * kernel, untimed, after each one. A chunk's rate is scaled by the
 * kernel's CPU time beside it over kReferenceSeconds: other processes
 * on a shared host slow the simulator and the kernel alike, for
 * seconds to minutes at a time, and the ratio cancels most of that.
 * The figure reads as ops per CPU second on the reference host.
 */
class ChunkTimer
{
  public:
    explicit ChunkTimer(Outcome &out)
        : out_(out), last_(threadCpuSeconds())
    {}

    /** Close a chunk of `ops` ops. */
    void lap(uint64_t ops);

    /** Close the phase: sets Outcome::timedCpuS (kernel runs excluded). */
    void finish() { out_.timedCpuS = timed_ + threadCpuSeconds() - last_; }

  private:
    Outcome &out_;
    ReferenceKernel kernel_;
    double timed_ = 0.0;
    double last_;
};

/** Records a named check's verdict; a failure names the check on stderr. */
class Checks
{
  public:
    explicit Checks(Outcome &out) : out_(out) {}

    void expect(bool ok, const char *name, const std::string &detail);

  private:
    Outcome &out_;
};

/**
 * Per-layer accounting of the benchmark's calls: count, host CPU time and
 * the simulated time the acting node's clock advanced. Each call also
 * opens a span named after the layer on the machine tracer, which is a
 * no-op unless the pass is traced.
 */
class Ledger
{
  public:
    template <typename F>
    decltype(auto)
    call(std::string_view layer, os::NodeOs &node, F &&f)
    {
        Scope scope(entry(layer), node, layer);
        return std::forward<F>(f)();
    }

    /** Host-timed call with no acting node (porter, store bookkeeping). */
    template <typename F>
    decltype(auto)
    call(std::string_view layer, F &&f)
    {
        Scope scope(entry(layer));
        return std::forward<F>(f)();
    }

    /** Export `<layer>.calls`, `<layer>.host_ms` and `<layer>.sim_ms`. */
    void exportTo(MetricMap &layer) const;

    uint64_t calls(std::string_view layer) const;
    double hostMs(std::string_view layer) const;

  private:
    struct Entry
    {
        uint64_t calls = 0;
        double hostS = 0.0;
        double simNs = 0.0;
    };

    /** Times one call; its destructor books it, on unwind too. */
    class Scope
    {
      public:
        explicit Scope(Entry &e) : e_(e), host0_(threadCpuSeconds()) {}
        Scope(Entry &e, os::NodeOs &node, std::string_view layer);
        ~Scope();

        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Entry &e_;
        sim::SpanScope span_;
        const sim::SimClock *clock_ = nullptr;
        sim::SimTime sim0_;
        double host0_ = 0.0;
    };

    Entry &entry(std::string_view layer);

    std::map<std::string, Entry, std::less<>> entries_;
};

/**
 * Folds the machine tracer's closed spans into per-category self time
 * (a span's duration minus the part its child spans cover), then clears
 * the tracer so a long traced pass holds one op's spans at a time. The
 * first fold can also be written out as a Chrome trace.
 */
class SpanFolder
{
  public:
    void fold(sim::Tracer &tracer, const std::string &chromePath);

    uint64_t spans() const { return spans_; }

    /** Print the per-layer self-time table to stdout. */
    void print(const std::string &title) const;

  private:
    uint64_t spans_ = 0;
    bool chromeWritten_ = false;
    std::map<std::string, double> selfMs_;
};

/**
 * Machine registry counters at one instant, for per-layer deltas. Taking
 * the snapshot also resets every allocator's peak watermark, so peaks
 * read afterwards cover only what follows.
 */
class CounterSnapshot
{
  public:
    explicit CounterSnapshot(mem::Machine &m);

    /**
     * Add the per-layer counters of the os, mem and cxl layers, as
     * deltas since this snapshot, to `layer`.
     */
    void exportDeltas(const mem::Machine &m, MetricMap &layer) const;

  private:
    double delta(const mem::Machine &m, const std::string &name) const;

    std::map<std::string, uint64_t> counters_;
    uint64_t faultCount_ = 0;
    double faultNs_ = 0.0;
};

/** Add `<stem>.p50` and `<stem>.p99` of ns samples, in ms. */
void putPercentiles(MetricMap &m, const std::string &stem,
                    const sim::Histogram &ns);

/** Frames in use on every allocator of a machine (CXL first). */
std::vector<uint64_t> frameCensus(const mem::Machine &m);

/**
 * Read every page the parent has populated through NodeOs::read on both
 * sides and count the pages where the restored child disagrees with
 * the parent's token plus `skew` (nonzero only under Sabotage).
 * @return {pages compared, mismatches}.
 */
std::pair<uint64_t, uint64_t>
compareImages(os::NodeOs &parentNode, os::Task &parent,
              os::NodeOs &childNode, os::Task &child, uint64_t skew);

/**
 * Teardown audits: every allocator's bookkeeping is consistent, no
 * frame outlives the workload (usage is back to `baseline`), and the
 * page store, RAS manager and coherence directory pass their own
 * audits. `Sabotage::ExtraFrame` leaks one frame first.
 */
void auditTeardown(porter::Cluster &cluster,
                   const std::vector<uint64_t> &baseline, Sabotage sabotage,
                   Checks &checks);

/**
 * Digest of everything the simulation decided: every sim_* value, the
 * op counts, and every per-layer metric that is not a host time or an
 * observation of the tracer. Identical code and seed must reproduce it
 * bit for bit, traced or not.
 */
uint64_t simDigest(const Outcome &out);

/** Mean of `v` (0 when empty). */
double mean(const std::vector<double> &v);

/** Median of `v` (0 when empty). */
double median(std::vector<double> v);

} // namespace perfbench
