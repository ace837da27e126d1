/**
 * @file
 * Trace-trained working-set prefetcher for speculative restore.
 *
 * Serverless functions refault nearly the same pages invocation after
 * invocation (the paper's Table 1 workloads fault a stable working
 * set). The FaultTraceRecorder captures one invocation's fault stream
 * (page, kind, order, write-intent, inter-fault simulated time); the
 * WorkingSetPredictor folds traces into an exponentially decayed
 * hot-set per function and emits a deterministic PrefetchSchedule —
 * pages sorted by their mean first-fault order — that restore() hands
 * to the kernel's batched pre-fault entry point.
 *
 * Speculation is cost-only: a mispredicted page charges fabric and
 * issue time but the kernel populates it with its current (restored)
 * content and never dirty, so the clone's observable bytes are
 * byte-identical to a lazy restore whatever the predictor does.
 */

#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "os/kernel.hh"
#include "rfork.hh"

namespace cxlfork::rfork {

/** One recorded fault of one invocation. */
struct FaultTraceEntry
{
    uint64_t vpn = 0;          ///< Faulting virtual page number.
    os::FaultKind kind = os::FaultKind::None;
    bool isWrite = false;
    uint64_t order = 0;        ///< Position in the invocation's stream.
    sim::SimTime sinceLast;    ///< Simulated time since the prior fault.
};

/**
 * Captures one invocation's fault stream. Install on the node with
 * NodeOs::setFaultSink for the invocation's duration; the recorder
 * must outlive the installation.
 */
class FaultTraceRecorder : public os::FaultTraceSink
{
  public:
    void recordFault(mem::VirtAddr va, os::FaultKind kind, bool isWrite,
                     sim::SimTime now) override;

    const std::vector<FaultTraceEntry> &entries() const { return entries_; }
    void clear();

  private:
    std::vector<FaultTraceEntry> entries_;
    sim::SimTime last_;
    bool any_ = false;
};

/** The pages a restore should pre-fault, in issue order. */
struct PrefetchSchedule
{
    struct Entry
    {
        uint64_t vpn = 0;
        bool wantWrite = false;
    };
    std::vector<Entry> pages;

    bool empty() const { return pages.empty(); }
    size_t size() const { return pages.size(); }
};

/**
 * The decayed per-function hot-set. train() folds one invocation's
 * trace in; schedule() emits the current prediction. Both are fully
 * deterministic: identical traces in identical order produce the
 * identical schedule, independent of any parallelism around the
 * caller (ordered containers only, no iteration over hashed state).
 */
class WorkingSetPredictor
{
  public:
    /** Fold one invocation's recorded fault stream into the hot-set. */
    void train(const std::vector<FaultTraceEntry> &trace);

    /**
     * Emit the hot pages, sorted by mean first-fault order (ties by
     * vpn). A page is write-predicted if a majority of its recorded
     * faults were stores.
     */
    PrefetchSchedule schedule() const;

  private:
    struct PageScore
    {
        double score = 0.0;
        double orderSum = 0.0;  ///< Decayed sum of first-fault orders.
        double writeScore = 0.0;
        double readScore = 0.0;
    };

    uint64_t invocations_ = 0;
    std::map<uint64_t, PageScore> pages_; ///< Ordered: determinism.
};

/**
 * Deterministically degrade a schedule to a target accuracy for the
 * ablation benches: each entry survives with probability `accuracy`
 * (a seeded per-index draw, no global RNG) and is otherwise replaced
 * by a cold decoy page — a legal address the invocation will not
 * touch — so lost accuracy buys wasted fabric time, never a fault.
 * With no decoys the mispredicted entries are dropped instead.
 */
PrefetchSchedule degradeSchedule(const PrefetchSchedule &in, double accuracy,
                                 const std::vector<uint64_t> &coldDecoyVpns,
                                 uint64_t seed);

/**
 * Run one speculative batch against a freshly restored task: convert
 * the schedule to kernel prefetch requests, issue them under a
 * "restore.speculative" trace span, and fold the outcome into the
 * restore stats. Used by all four mechanisms' restore() paths.
 */
void runSpeculativePrefetch(os::NodeOs &node, os::Task &task,
                            const PrefetchSchedule &schedule,
                            RestoreStats *stats);

} // namespace cxlfork::rfork
