/**
 * @file
 * Partition soak harness: the fabric link-health layer, the heartbeat
 * quarantine protocol, and the degraded-restore ladder under sustained
 * link chaos.
 *
 * Where the chaos harness (chaos_harness.hh) soaks the RAS layer under
 * poison and transient injection, this harness soaks the *partition*
 * story: a long-lived three-node cluster runs hundreds of rounds of
 * publish / restore while links flap (Bernoulli severance with
 * auto-heal), whole nodes are cut off for multi-round stretches
 * (scheduled severance), and publishes are interrupted by a severance
 * armed at an exact transaction site. Throughout, the harness audits
 * the partition contract:
 *
 *   - every restore is byte-identical or provably degraded: it lands
 *     on the first ladder rung that works (direct, backoff retry,
 *     replica reroute, warm-node failover) or degrades to an honest
 *     cold start — a corrupt "success" is the violation;
 *   - the heartbeat layer quarantines severed nodes within K missed
 *     probes, and a quarantined node's stale STAGED records can never
 *     publish (the epoch fence) — the split-brain scenario is driven
 *     deterministically every few rounds and must be rejected;
 *   - rejoin runs the full recovery pass and reclaims every
 *     stale-epoch orphan;
 *   - at teardown the audit of harness_core.hh passes: the frame
 *     census balances to the baseline, and every allocator, store,
 *     RAS and directory audit holds.
 *
 * Running the same soak with epoch fencing off is the negative
 * control: the returning zombie's publish *succeeds*, demonstrably
 * flipping the lookup entry the survivors published — the split-brain
 * double-publish the fence exists to prevent.
 */

#pragma once

#include <cstdint>
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

const char *ladderRungName(LadderRung r);

/** One ladder traversal: the final outcome plus how far down it went. */
struct FailoverOutcome
{
    rfork::RestoreOutcome outcome; ///< From the rung that ended the walk.
    LadderRung rung = LadderRung::ColdStart;
    mem::NodeId servedBy = mem::kInvalidNode; ///< Valid iff outcome.
    sim::SimTime latency; ///< Simulated time spent across every rung.
};

/**
 * Walk the degraded-restore ladder for one handle: try each candidate
 * target in order, advancing to the next only on a fabric-partition
 * failure (after tryRestore's own backoff budget is spent). Non-
 * partition failures (poison, transient exhaustion) stop the walk and
 * surface unchanged — they have their own ladders. Partition rungs are
 * counted under cxl.partition.{failovers,ladder_exhausted}.
 */
FailoverOutcome
restoreWithFailover(Cluster &cluster, rfork::RemoteForkMechanism &mech,
                    const std::shared_ptr<rfork::CheckpointHandle> &handle,
                    const std::vector<mem::NodeId> &targets,
                    const rfork::RestoreOptions &opts = {},
                    const rfork::RestoreRetryPolicy &policy = {});

/** One partition soak campaign. */
struct PartitionConfig
{
    rfork::MechanismKind mechanism = rfork::MechanismKind::CxlFork;
    uint64_t heapPages = 12;   ///< Parent heap footprint, in pages.
    uint64_t rounds = 200;     ///< Soak rounds, two restores each.
    uint64_t seed = 0x11aa'facab1eULL; ///< Drives every random choice.

    // --- Link chaos mix.
    double severRate = 0.01;    ///< Per-transaction Bernoulli severance.
    double degradeRate = 0.02;  ///< Per-transaction Bernoulli degrade.
    double degradeFactor = 4.0; ///< Latency multiplier while degraded.
    uint64_t flapTxns = 6;      ///< Failed attempts before a flap heals.
    double scheduledSeverProb = 0.08; ///< Per-round whole-node cutoff.
    double midPublishSeverProb = 0.2; ///< Publish rounds with a sever
                                      ///< armed at a transaction site.

    // --- Quarantine / fence knobs under test.
    uint32_t heartbeatK = 3;     ///< Missed probes before quarantine.
    uint64_t splitBrainEvery = 25; ///< Rounds between zombie scenarios
                                   ///< (0 = never).
    bool epochFencing = true;    ///< false = split-brain negative control.

    // --- RAS (feeds the reroute rung).
    uint32_t replicas = 2;       ///< 0 = no replicas, reroute rung dead.
    uint64_t replicaThreshold = 1;

    // --- Workload shape.
    bool dedup = true;
    uint64_t tokenPeriod = 4;
    uint64_t republishEvery = 8;

    /**
     * Fabric queue model for the soak cluster. Off by default; armed,
     * every partition-contract audit must still hold — queueing delays
     * restores but never corrupts or loses them.
     */
    cxl::FabricQueueConfig contention;
};

/** What the soak saw and concluded. */
struct PartitionReport
{
    uint64_t rounds = 0;
    uint64_t invocations = 0;   ///< Ladder walks issued (lookup hits).
    uint64_t checkpointsPublished = 0;
    uint64_t restoresOk = 0;    ///< Byte-identical restores.

    // --- Ladder rung census.
    uint64_t directRestores = 0;
    uint64_t retriedRestores = 0;
    uint64_t reroutes = 0;      ///< Replica reads for severed domains.
    uint64_t failovers = 0;
    uint64_t coldStarts = 0;    ///< lookup misses + exhausted ladders.

    // --- Partition-protocol census.
    uint64_t heartbeatMisses = 0;
    uint64_t quarantines = 0;
    uint64_t rejoins = 0;
    uint64_t publishPartitioned = 0;    ///< Publishes cut mid-flight.
    uint64_t stalePublishesRejected = 0; ///< Zombie publishes fenced.
    uint64_t doublePublishes = 0;       ///< Fence off: zombies that won.
    uint64_t staleRecordsReclaimed = 0; ///< Fenced orphans GC'd on rejoin.
    uint64_t transientFailures = 0;
    uint64_t severedTxns = 0;
    uint64_t degradedTxns = 0;

    uint64_t framesLeaked = 0;
    bool pass = true;
    std::string firstViolation;

    /**
     * Simulated latency of every byte-verified restore, sorted
     * ascending (percentile extraction for the partition bench).
     */
    std::vector<double> restoreLatenciesUs;

    /** Fraction of ladder walks that ended byte-identical. */
    double
    survivalFraction() const
    {
        return invocations == 0
                   ? 1.0
                   : double(restoresOk) / double(invocations);
    }
};

/** Run one partition soak campaign to completion. Deterministic in cfg. */
PartitionReport runPartitionSoak(const PartitionConfig &cfg);

/** One partition-site replay (link severed at transaction site k). */
struct PartitionSiteResult
{
    uint64_t site = 0;
    bool severed = false;        ///< The armed site was reached.
    bool imageAvailable = false; ///< lookup() hit after the episode.
    bool restored = false;       ///< A ladder walk served it, verified.
    bool violation = false;
    std::string detail;
    LadderRung rung = LadderRung::Direct; ///< Rung that served (if any).
    uint64_t framesLeaked = 0;
};

/** The full partition-site sweep for one config. */
using PartitionEnumReport = harness::SiteSweepReport<PartitionSiteResult>;

/**
 * Dry-run one publish + restore to count the transaction sites a
 * severance could strike.
 */
uint64_t countPartitionSites(const PartitionConfig &cfg);

/**
 * Publish on a fresh cluster, then restore with the restoring node's
 * links armed to sever at exactly transaction site k. Audits
 * restorable-or-absent (the ladder serves it or the function degrades
 * to an honest cold start), no stale-epoch publication, and the
 * teardown audit of harness_core.hh. site >= the counted total runs
 * the sever-free control.
 */
PartitionSiteResult runPartitionAtSite(const PartitionConfig &cfg,
                                       uint64_t site);

/** Run every severance site plus the sever-free control. */
PartitionEnumReport enumeratePartitionSites(const PartitionConfig &cfg);

} // namespace cxlfork::porter
