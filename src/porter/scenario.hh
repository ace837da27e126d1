/**
 * @file
 * One fault scenario over the harness core (harness_core.hh): a
 * mechanism, a layer set (a ClusterConfig, its FaultConfig holding the
 * Bernoulli rates), an injector mix, a workload shape and the steps
 * each soak round runs.
 *
 * run() soaks one long-lived cluster through rounds of those steps and
 * audits, the whole way, that every restore is byte-identical or ends
 * in a typed degradation: a poisoned frame is reclaimed with every
 * checkpoint it damaged (reclaimDamaged), a fabric partition that the
 * ladder cannot route around is a cold start, a transient fault is
 * retryable; anything else is a violation. Its teardown runs the
 * core's one audit.
 *
 * sweep() counts the sites one fault can strike and replays the fault
 * at each on a fresh, weather-free cluster: a crash at publish (the
 * node dies, recovers, and lookup() must stay restorable-or-absent) or
 * a sever of the restoring node's link at restore (the ladder serves
 * the restore byte-identical or degrades to a cold start, and the
 * epoch fence never misfires). A replay runs calm: any other failure
 * of a publish, a restore or a verify read is a violation.
 *
 * The presets return the defaults of the crash sweep, the RAS chaos
 * soak and the partition soak; any of their parts combine.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "porter/cluster.hh"
#include "porter/harness_core.hh"
#include "rfork/mechanism.hh"
#include "rfork/rfork.hh"

namespace cxlfork::porter {

/** Which rung of the degraded-restore ladder served a restore. */
enum class LadderRung : uint8_t
{
    Direct,   ///< First attempt on the preferred node succeeded.
    Retried,  ///< Succeeded after backoff retries (partition/transient).
    Failover, ///< Preferred node unreachable; a warm node served it.
    ColdStart, ///< Every rung exhausted; the function restarts cold.
};

/** The fault a publish round arms, or a sweep replays at each site. */
enum class Fault : uint8_t
{
    Crash, ///< The publishing node dies (NodeCrashError).
    Sever, ///< A node's link is cut (at publish: node 0; swept: the
           ///< restoring node, during the restore).
};

/** One scenario: defaults are a calm CXLfork run that only publishes. */
struct Scenario
{
    /**
     * The step groups a soak round runs besides its publish. A round
     * runs, in this order: the partition group's heal/rejoin; every
     * 8th round, the publish of the next generation (with probability
     * publishFaultProb, publishFault armed at a site drawn below
     * publishSites); the partition group's scheduled sever and
     * heartbeat; the RAS group's strike; the restores; the RAS group's
     * scrub; the split brain.
     */
    enum Step : uint32_t
    {
        /** Heal the scheduled cuts that are due and readmit reachable
         *  quarantined nodes; with probability scheduledSeverProb, cut
         *  one restore-side node off for six rounds (fabric mechanisms
         *  only); one cluster heartbeat round (quarantine after
         *  heartbeatK). */
        kPartition = 1u << 0,
        /** With probability 1/2, poison one allocated device frame;
         *  every 16th round, one RAS scrub step (RAS on). */
        kRas = 1u << 1,
        /** Two restores through the ladder, each verified. */
        kRestore = 1u << 2,
        /** Every 25th round, the split-brain zombie publish. */
        kSplitBrain = 1u << 3,
    };

    rfork::MechanismKind mechanism = rfork::MechanismKind::CxlFork;

    /**
     * The layer set. Its FaultConfig's rates (poison, transient, link
     * sever and degrade) are armed, with seed ^ faultSeedMix, once the
     * rig and its census baseline exist; the cluster is built calm.
     * A sweep never arms them.
     */
    ClusterConfig cluster = harness::smallCluster(2);

    // --- The rest of the injector mix.
    Fault publishFault = Fault::Crash;
    double publishFaultProb = 0.0;
    /** Drawn sites run past a publish's typical count on purpose:
     *  high draws are fault-free control publishes. */
    uint64_t publishSites = 64;
    double scheduledSeverProb = 0.0;
    uint64_t faultSeedMix = 0;

    // --- The workload shape.
    const char *function = "scenariofn";
    uint64_t heapPages = 16; ///< Parent heap footprint, in pages.
    harness::PageTokens tokens;
    uint64_t rounds = 0;
    uint64_t seed = 0; ///< Drives every draw of the soak.

    // --- The steps.
    uint32_t steps = 0; ///< A set of Step bits.
    bool epochFencing = true; ///< false = split-brain negative control.
    rfork::PublishPolicy policy = rfork::PublishPolicy::TwoPhase;

    /** K RAS replicas per page; 0 turns RAS off. */
    void setReplicas(uint32_t k);

    /** The crash-at-publish sweep: 2 nodes, 16 unique pages. */
    static Scenario crash();

    /**
     * The RAS chaos soak: 250 rounds of publish (crash-armed at 1/4),
     * strike, restore and scrub on 2 nodes under birth poison and
     * transients, dedup on, K = 2. The negative control runs K = 0
     * and must lose checkpoints.
     */
    static Scenario chaos(bool negative = false);

    /**
     * The partition soak: 200 rounds of heal/rejoin, publish (sever-
     * armed at 1/5), scheduled sever, heartbeat, restore and split
     * brain on 3 nodes (publisher, restorer, warm failover) under link
     * flaps, dedup on, K = 2. The negative control turns the epoch
     * fence off and must double-publish.
     */
    static Scenario partition(bool negative = false);
};

/** What a soak saw and concluded. */
struct Report
{
    uint64_t rounds = 0;
    uint64_t invocations = 0;          ///< Ladder walks issued.
    uint64_t checkpointsPublished = 0; ///< Successful publishes.
    uint64_t restoresOk = 0;           ///< Byte-identical restores.
    uint64_t coldStarts = 0;    ///< lookup misses + exhausted ladders.
    uint64_t transientFailures = 0; ///< Retry budget exhausted (benign).

    // --- RAS.
    uint64_t checkpointsLost = 0;  ///< Reclaimed via reclaimDamaged.
    uint64_t pagesLost = 0;        ///< Frames with no surviving copy.
    uint64_t repairs = 0;          ///< Primaries rebuilt, scrub's too.
    uint64_t replicasWritten = 0;  ///< Replica pages materialized.
    uint64_t peakReplicaBytes = 0; ///< Keepalive-memory overhead peak.
    uint64_t strikes = 0;          ///< Post-birth poison events.
    uint64_t scrubRepairs = 0;     ///< Repairs the scrubber made.

    // --- Crashes and recovery.
    uint64_t crashesInjected = 0;  ///< Mid-publish node crashes.
    uint64_t recoveries = 0;       ///< Node-0 recovery passes run.

    // --- Ladder rung census.
    uint64_t directRestores = 0;
    uint64_t retriedRestores = 0;
    uint64_t reroutes = 0;         ///< Replica reads for severed domains.
    uint64_t failovers = 0;

    // --- Partition protocol.
    uint64_t heartbeatMisses = 0;
    uint64_t quarantines = 0;
    uint64_t rejoins = 0;
    uint64_t publishPartitioned = 0;     ///< Publishes cut mid-flight.
    uint64_t stalePublishesRejected = 0; ///< Zombie publishes fenced.
    uint64_t doublePublishes = 0;        ///< Fence off: zombies that won.
    uint64_t staleRecordsReclaimed = 0;  ///< Fenced orphans GC'd.
    uint64_t severedTxns = 0;
    uint64_t degradedTxns = 0;

    uint64_t framesLeaked = 0;         ///< Census delta at teardown.
    bool pass = true;
    std::string firstViolation;

    /** Simulated latency of every verified restore, ascending. */
    std::vector<double> restoreLatenciesUs;

    bool operator==(const Report &) const = default;

    /** Fraction of published checkpoints never lost to poison. */
    double
    checkpointSurvival() const
    {
        return checkpointsPublished == 0
                   ? 1.0
                   : 1.0 - double(checkpointsLost) /
                               double(checkpointsPublished);
    }

    /** Fraction of ladder walks that ended byte-identical. */
    double
    restoreSurvival() const
    {
        return invocations == 0 ? 1.0
                                : double(restoresOk) / double(invocations);
    }
};

/** What one replay of a fault at one site did. */
struct SiteResult
{
    uint64_t site = 0;
    bool fired = false;          ///< The armed fault struck.
    bool imageAvailable = false; ///< lookup() hit after the episode.
    bool restored = false;       ///< A restore of the image was served.
    bool violation = false;
    std::string detail;          ///< First violated invariant, if any.
    LadderRung rung = LadderRung::ColdStart; ///< Rung that served it.
    uint64_t framesLeaked = 0;
    uint64_t framesReclaimed = 0; ///< By the post-crash recovery pass.
    sim::SimTime recoveryTime;    ///< Of the post-crash recovery pass.
};

using SweepReport = harness::SiteSweepReport<SiteResult>;

/** Soak one cluster through s.rounds rounds. Deterministic in s. */
Report run(const Scenario &s);

/** The sites `f` can strike: publication for a crash, the restore for
 *  a sever. */
uint64_t countSites(const Scenario &s, Fault f);

/**
 * Replays run this on a served restore's cluster and node as its
 * verify reads begin; what it throws is a verify-read failure (a test
 * plants one there).
 */
using BeforeVerify = std::function<void(Cluster &, mem::NodeId)>;

/**
 * Replay `f` at `site` on a fresh cluster and audit it. site >= the
 * counted total runs the fault-free control.
 */
SiteResult runAtSite(const Scenario &s, Fault f, uint64_t site,
                     const BeforeVerify &beforeVerify = {});

/** Every counted site, then the control. */
SweepReport sweep(const Scenario &s, Fault f);

} // namespace cxlfork::porter
