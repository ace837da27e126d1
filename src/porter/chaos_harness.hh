/**
 * @file
 * Chaos soak harness: the RAS layer under sustained mixed injection.
 *
 * Where the crash-enumeration harness (crash_harness.hh) proves every
 * single crash site safe on a fresh cluster, the soak harness runs one
 * long-lived cluster through hundreds of rounds of publish / restore /
 * scrub under *combined* fault injection — poison strikes on live
 * device frames, transient transaction errors with jittered backoff,
 * and seeded node crashes mid-publish — and audits the RAS contract
 * the whole way:
 *
 *   - every restore either reproduces every page token byte-identical,
 *     fails transiently (retryable, not a loss), or names the lost
 *     frame so reclaimDamaged() provably removes every checkpoint it
 *     damaged from lookup();
 *   - no other failure mode exists (a corrupt restore that "succeeds"
 *     is the violation the layer exists to prevent);
 *   - at teardown the audit of harness_core.hh passes: the frame
 *     census balances to the pre-workload baseline, and every
 *     allocator, page-store, RAS and directory audit holds.
 *
 * With replication on, write-verify plus the repair ladder keep the
 * survival fraction near one; the same soak with replicas == 0 (RAS
 * fully off) demonstrably loses checkpoints — the negative control
 * that proves the harness can see losses at all.
 */

#pragma once

#include <cstdint>
#include <string>

#include "porter/cluster.hh"
#include "rfork/mechanism.hh"

namespace cxlfork::porter {

/** One soak campaign. */
struct ChaosConfig
{
    rfork::MechanismKind mechanism = rfork::MechanismKind::CxlFork;
    uint64_t heapPages = 12;   ///< Parent heap footprint, in pages.
    uint64_t rounds = 250;     ///< Soak rounds, two restores each.
    uint64_t seed = 0xc4a0'5011ULL; ///< Drives every random choice.

    // --- Injection mix.
    double poisonRate = 0.02;     ///< Birth poison on CXL allocations.
    double transientRate = 0.02;  ///< Per-transaction transient prob.
    double crashProb = 0.25;      ///< Prob. a publish round is crash-armed.

    // --- RAS knobs under test.
    uint32_t replicas = 2;        ///< 0 = RAS off (negative control).
    uint64_t replicaThreshold = 1;
    uint64_t scrubEveryRounds = 16; ///< 0 = never scrub.

    // --- Workload shape.
    bool dedup = true;            ///< Intern checkpoint pages.
    uint64_t tokenPeriod = 4;     ///< Intra-image sharing period.
    uint64_t republishEvery = 8;  ///< Rounds between new generations.

    /**
     * Fabric coherence mode for the soak cluster. Off (the default)
     * reproduces the pre-coherence soak bit-identically; HdmH/HdmD add
     * the MESI directory to every publish/restore/crash round, and the
     * harness additionally audits the directory invariants at teardown
     * plus "no stale restore" throughout (a crashed node's unflushed
     * stores must never surface in a successful restore).
     */
    cxl::CoherenceMode coherence = cxl::CoherenceMode::Off;
};

/** What the soak saw and concluded. */
struct ChaosReport
{
    uint64_t rounds = 0;
    uint64_t invocations = 0;          ///< tryRestore calls issued.
    uint64_t checkpointsPublished = 0; ///< Successful publishes.
    uint64_t restoresOk = 0;           ///< Byte-identical restores.
    uint64_t coldStarts = 0;           ///< lookup() missed (reclaimed).
    uint64_t transientFailures = 0;    ///< Retry budget exhausted (benign).
    uint64_t checkpointsLost = 0;      ///< Reclaimed via reclaimDamaged.
    uint64_t pagesLost = 0;            ///< Frames with no surviving copy.
    uint64_t repairs = 0;              ///< Primaries rebuilt from replicas.
    uint64_t replicasWritten = 0;      ///< Replica pages materialized.
    uint64_t peakReplicaBytes = 0;     ///< Keepalive-memory overhead peak.
    uint64_t strikes = 0;              ///< Post-birth poison events.
    uint64_t crashesInjected = 0;      ///< Mid-publish node crashes.
    uint64_t recoveries = 0;           ///< recoverNode passes run.
    uint64_t scrubRepairs = 0;         ///< Repairs the scrubber made.
    uint64_t framesLeaked = 0;         ///< Census delta at teardown.
    bool pass = true;
    std::string firstViolation;

    /** Fraction of published checkpoints never lost to poison. */
    double
    survivalFraction() const
    {
        return checkpointsPublished == 0
                   ? 1.0
                   : 1.0 - double(checkpointsLost) /
                               double(checkpointsPublished);
    }
};

/** Run one soak campaign to completion. Deterministic in cfg. */
ChaosReport runChaosSoak(const ChaosConfig &cfg);

} // namespace cxlfork::porter
