/**
 * @file
 * Deterministic, seedable fault injection for the whole stack.
 *
 * Real CXL fabrics fail in ways DRAM does not (CXL-DMSim and CXLMemSim
 * model poisoned lines and device pressure for the same reason): the
 * injector models transient transaction errors, poisoned frames, and
 * torn checkpoint writes as independent Bernoulli streams, each with
 * its own seeded PRNG so the schedule of one fault class is invariant
 * under rate changes of another. All rates default to zero and the
 * zero-rate path draws nothing, so a disabled injector is bit-identical
 * to not having one at all.
 */

#pragma once

#include <cstdint>
#include <functional>

#include "backoff.hh"
#include "rng.hh"
#include "time.hh"

namespace cxlfork::sim {

class Counter;
class MetricsRegistry;

/** Injection knobs, CostParams-style: plain values, zero by default. */
struct FaultConfig
{
    uint64_t seed = 0xfa17'5eedULL;

    /** Probability one CXL transaction (page copy, bulk store) fails
     *  transiently. Transients are retryable. */
    double cxlTransientRate = 0.0;

    /** Probability a freshly allocated CXL frame is poisoned: reads of
     *  it machine-check and the data is unrecoverable. */
    double framePoisonRate = 0.0;

    /** Probability one checkpoint ends up torn: a segment is silently
     *  corrupted after its CRC was computed. */
    double tornWriteRate = 0.0;

    /** Probability one node-attributed CXL transaction flaps its link
     *  to the target fault domain into Severed (the link auto-heals
     *  after LinkHealthConfig::flapTxns failed attempts). */
    double linkSeverRate = 0.0;

    /** Probability one node-attributed CXL transaction degrades its
     *  link (latency multiplied until healed). */
    double linkDegradeRate = 0.0;

    // --- Recovery budget for transient faults.
    uint32_t maxRetries = 3;          ///< Bounded retry budget.
    SimTime retryBackoff = SimTime::us(10); ///< First-retry backoff.
    double backoffMultiplier = 2.0;   ///< Exponential backoff factor.

    /**
     * Deterministic seeded jitter fraction for retry backoff, in
     * [0, 1]. Zero (the default) draws nothing and keeps the schedule
     * bit-identical to the un-jittered exponential curve.
     */
    double backoffJitter = 0.0;

    /**
     * Per-op time budget for one transaction's accumulated backoff;
     * once exceeded the transaction escalates with its original typed
     * error even if retries remain. Zero means unlimited.
     */
    SimTime opBudget = SimTime::zero();

    bool
    anyEnabled() const
    {
        return cxlTransientRate > 0.0 || framePoisonRate > 0.0 ||
               tornWriteRate > 0.0;
    }

    /** The retry knobs, as the generic policy cxlTransaction runs. */
    BackoffPolicy
    retryPolicy() const
    {
        BackoffPolicy p;
        p.maxRetries = maxRetries;
        p.base = retryBackoff;
        p.multiplier = backoffMultiplier;
        p.jitter = backoffJitter;
        p.budget = opBudget;
        return p;
    }
};

/** Counters of what was actually injected / recovered. */
struct FaultStats
{
    uint64_t transientsInjected = 0;
    uint64_t transientsRetried = 0;  ///< Retries that went on to succeed.
    uint64_t transientsEscalated = 0; ///< Budget exhausted; error thrown.
    uint64_t framesPoisoned = 0;
    uint64_t tornWrites = 0;
    uint64_t crashesInjected = 0;    ///< Armed crash sites that fired.
    uint64_t linkSeversInjected = 0; ///< Bernoulli link flaps to Severed.
    uint64_t linkDegradesInjected = 0; ///< Bernoulli link degradations.
    uint64_t orphansReclaimed = 0;   ///< Staged checkpoints GC'd on recovery.
    uint64_t orphansCompleted = 0;   ///< Staged checkpoints published on
                                     ///< recovery (verified complete).
};

/**
 * How crash sites behave. Independent of the Bernoulli streams: the
 * same run can arm a deterministic crash *and* nonzero fault rates, and
 * the crash schedule never consumes a Bernoulli draw (site enumeration
 * composes with, but does not perturb, probabilistic injection).
 */
enum class CrashMode : uint8_t {
    Off,   ///< Crash sites are free no-ops (the default).
    Count, ///< Dry run: sites only advance the site counter.
    Armed, ///< The k-th site hit after arming throws NodeCrashError.
    LinkEvent, ///< The k-th site runs the armed link-event hook (e.g.
               ///< sever a node's link mid-operation) instead of
               ///< crashing — same counter, so partition-site
               ///< enumeration composes with crash-site enumeration.
};

/**
 * The seedable fault source. One instance per Machine; every layer
 * draws from it through the machine so a whole experiment replays
 * bit-identically from (machine seed, fault seed).
 */
class FaultInjector
{
  public:
    explicit FaultInjector(FaultConfig cfg = {});

    /** True if any fault class has a nonzero rate (fast gate). */
    bool armed() const { return armed_; }

    const FaultConfig &config() const { return cfg_; }

    /**
     * Replace the configuration (tests and experiment sweeps). Resets
     * the per-class streams so the schedule is a pure function of the
     * new config.
     */
    void setConfig(const FaultConfig &cfg);

    /** Draw: does the next CXL transaction fail transiently? */
    bool
    drawTransient()
    {
        if (cfg_.cxlTransientRate <= 0.0 ||
            !transientRng_.chance(cfg_.cxlTransientRate))
            return false;
        noteTransientInjected();
        return true;
    }

    /** Draw: is the next allocated CXL frame poisoned? */
    bool drawPoison();

    /** Draw: is the next checkpoint write torn? */
    bool drawTornWrite();

    /** Draw: does this transaction flap its link into Severed? */
    bool
    drawLinkSever()
    {
        if (cfg_.linkSeverRate <= 0.0 ||
            !linkSeverRng_.chance(cfg_.linkSeverRate))
            return false;
        ++stats_.linkSeversInjected;
        return true;
    }

    /** Draw: does this transaction degrade its link? */
    bool
    drawLinkDegrade()
    {
        if (cfg_.linkDegradeRate <= 0.0 ||
            !linkDegradeRng_.chance(cfg_.linkDegradeRate))
            return false;
        ++stats_.linkDegradesInjected;
        return true;
    }

    /**
     * Deterministic victim selection for a torn write: which of n
     * segments/frames gets corrupted, and which bit flips.
     */
    uint64_t pickVictim(uint64_t n);

    FaultStats &stats() { return stats_; }
    const FaultStats &stats() const { return stats_; }

    // --- Deterministic crash-site enumeration.

    /**
     * One crash site. Every CXL transaction, frame allocation, journal
     * write, and publish step passes through here; each call advances
     * the site counter by exactly one in Count and Armed modes. With
     * crash sites off (the default) this is a branch and a return —
     * free on the hot path and bit-identical to not calling it.
     */
    void
    crashPoint(const char *site)
    {
        if (crashMode_ == CrashMode::Off)
            return;
        crashPointSlow(site);
    }

    /** Begin a counting dry run: sites tick crashSitesSeen(), no crash. */
    void
    beginCrashCount()
    {
        crashMode_ = CrashMode::Count;
        crashSiteCursor_ = 0;
    }

    /**
     * Arm a deterministic crash: the k-th crash site hit after this
     * call (0-based) throws sim::NodeCrashError, then the injector
     * disarms itself so recovery code runs crash-free. Arming with k >=
     * the run's site count is the no-crash control: nothing fires.
     */
    void
    armCrashSite(uint64_t k)
    {
        crashMode_ = CrashMode::Armed;
        crashSiteCursor_ = 0;
        crashTarget_ = k;
    }

    /**
     * Arm a deterministic one-shot link event: the k-th crash site hit
     * after this call (0-based) invokes `hook` (which typically severs
     * a specific node's link via cxl::LinkHealth) and the injector
     * disarms itself. The current operation then *continues* — the harm
     * surfaces at the next transaction over the severed path, exactly
     * like real mid-operation link loss. Shares the crash-site counter
     * with armCrashSite, so k enumerates the same site space.
     */
    void
    armLinkEventSite(uint64_t k, std::function<void()> hook)
    {
        crashMode_ = CrashMode::LinkEvent;
        crashSiteCursor_ = 0;
        crashTarget_ = k;
        linkEventHook_ = std::move(hook);
    }

    /** Turn crash sites back into free no-ops (clears any link hook). */
    void
    disarmCrash()
    {
        crashMode_ = CrashMode::Off;
        linkEventHook_ = nullptr;
    }

    CrashMode crashMode() const { return crashMode_; }

    /** Sites passed since beginCrashCount()/armCrashSite(). */
    uint64_t crashSitesSeen() const { return crashSiteCursor_; }

    // --- Metrics export (satellite of the machine registry).

    /**
     * Mirror every stat bump into `sim.faults.*` counters of the given
     * registry (nullptr detaches). The counters live in the machine's
     * registry — observation only, never charged simulated time.
     */
    void attachMetrics(MetricsRegistry *m);

    /** A transient retry that went on to succeed (Machine's ladder). */
    void noteTransientRetried();

    /** A transient that exhausted the retry budget. */
    void noteTransientEscalated();

    /** A recovery pass finished: orphans reclaimed / completed. */
    void noteRecovery(uint64_t reclaimed, uint64_t completed);

    /**
     * The seeded jitter stream for backoff schedules. Like the fault
     * streams it is salted off the config seed and reset by setConfig,
     * and it is only ever drawn when backoffJitter is nonzero — so a
     * jitter-free run is bit-identical to one without the stream.
     */
    Rng &backoffRng() { return backoffRng_; }

  private:
    void crashPointSlow(const char *site);

    /** drawTransient's bookkeeping for an injected transient. */
    void noteTransientInjected();

    FaultConfig cfg_;
    bool armed_ = false;
    Rng transientRng_;
    Rng poisonRng_;
    Rng tornRng_;
    Rng backoffRng_;
    Rng linkSeverRng_;
    Rng linkDegradeRng_;
    FaultStats stats_;

    CrashMode crashMode_ = CrashMode::Off;
    uint64_t crashSiteCursor_ = 0;
    uint64_t crashTarget_ = 0;
    std::function<void()> linkEventHook_;

    // Mirrored sim.faults.* counter handles; null when detached.
    Counter *injectedCounter_ = nullptr;
    Counter *retriedCounter_ = nullptr;
    Counter *escalatedCounter_ = nullptr;
    Counter *poisonedCounter_ = nullptr;
    Counter *tornCounter_ = nullptr;
    Counter *crashCounter_ = nullptr;
    Counter *orphansReclaimedCounter_ = nullptr;
    Counter *orphansCompletedCounter_ = nullptr;
};

} // namespace cxlfork::sim
