#include "chaos_harness.hh"

#include <algorithm>

#include "cxl/ras.hh"
#include "porter/harness_core.hh"
#include "sim/error.hh"
#include "sim/log.hh"

namespace cxlfork::porter {

namespace {

using harness::kUser;
constexpr const char *kFunction = "chaosfn";

/** Post-birth poison strike probability per round. */
constexpr double kStrikeRate = 0.5;

/** Restore invocations per soak round. */
constexpr uint64_t kRestoresPerRound = 2;

ClusterConfig
soakCluster(const ChaosConfig &cfg)
{
    ClusterConfig cc = harness::smallCluster(2);
    cc.pageStore.dedup = cfg.dedup;
    // replicas == 0 runs the negative control: the RAS layer entirely
    // off, so poison losses reach restores unrepaired.
    cc.ras.enabled = cfg.replicas > 0;
    cc.ras.replicas = cfg.replicas;
    cc.ras.replicaThreshold = cfg.replicaThreshold;
    cc.coherence.mode = cfg.coherence;
    return cc;
}

/** The long-lived soak state (one cluster across every round). */
struct ChaosSoak : harness::Soak
{
    const ChaosConfig &cfg;
    ChaosReport rep;

    explicit ChaosSoak(const ChaosConfig &c)
        : Soak(soakCluster(c), c.mechanism, kFunction, c.heapPages,
               {0xc0ffee, c.tokenPeriod}, c.seed),
          cfg(c)
    {
        // Injection on from the start: every checkpoint page drawn
        // below lives under birth poison and transient transactions.
        sim::FaultConfig fc;
        fc.seed = c.seed ^ 0x0bad'cab1'e0ddULL;
        fc.framePoisonRate = c.poisonRate;
        fc.cxlTransientRate = c.transientRate;
        fc.maxRetries = 4;
        fc.backoffJitter = 0.25; // exercise the seeded-jitter path
        cluster.machine().setFaultConfig(fc);
    }

    /**
     * Rungs 3-5 of the repair ladder: a restore named a frame whose
     * data is gone. Reclaim every checkpoint it damaged and prove the
     * reclaim took — lookup() must stop offering them, degrading the
     * function to a cold start instead of a corrupt restore.
     */
    void
    handleLoss(const sim::FaultOrigin &origin, cxl::Cid cid)
    {
        ++rep.pagesLost;
        if (origin.frameAddr == 0) {
            fail("poisoned-frame loss carried no frame origin");
            return;
        }
        const uint64_t reclaimed = cluster.reclaimDamaged(
            restoreNode().id(), mem::PhysAddr{origin.frameAddr});
        if (reclaimed == 0) {
            fail(sim::format("lost frame %#llx referenced no checkpoint",
                             (unsigned long long)origin.frameAddr));
            return;
        }
        rep.checkpointsLost += reclaimed;
        if (cluster.checkpoints().get(cid)) {
            fail(sim::format("damaged checkpoint cid=%llu survived "
                             "reclaimDamaged",
                             (unsigned long long)cid));
        }
        pruneReclaimed();
    }

    /** Post-birth poison strike on one random allocated device frame. */
    void
    maybeStrike()
    {
        if (!rng.chance(kStrikeRate))
            return;
        mem::FrameAllocator &cxl = cluster.machine().cxl();
        const uint64_t used = cxl.usedFrames();
        if (used == 0)
            return;
        const uint64_t victim = rng.index(used);
        uint64_t seen = 0;
        mem::PhysAddr hit{0};
        cxl.forEachAllocated([&](mem::PhysAddr addr, const mem::Frame &) {
            if (seen++ == victim)
                hit = addr;
        });
        if (hit.raw != 0) {
            cxl.poison(hit);
            ++rep.strikes;
        }
    }

    /** The node-0 restart protocol after a crash or failed publish. */
    void
    recover(bool nodeDied, uint64_t pendingGen)
    {
        if (nodeDied)
            parent.exit();
        cluster.recoverNode(0);
        ++rep.recoveries;
        afterRecovery(pendingGen);
        if (nodeDied)
            parent.fill(pendingGen);
    }

    /** Publish generation `gen`, possibly with a crash armed. */
    void
    publishGeneration(uint64_t gen)
    {
        parent.fill(gen);
        rfork::CheckpointStore &store = cluster.checkpoints();
        sim::FaultInjector &faults = cluster.machine().faults();
        const bool armCrash = rng.chance(cfg.crashProb);
        // The site index is drawn past the typical site count on
        // purpose: high draws are crash-free control publishes.
        const uint64_t site = rng.index(64);
        if (armCrash)
            faults.armCrashSite(site);
        bool crashed = false;
        bool failedTransient = false;
        cxl::Cid newCid = 0;
        try {
            const rfork::PublishedCheckpoint pub = mech->checkpointPublished(
                store, {kUser, kFunction}, cluster.node(0), *parent.task);
            newCid = pub.cid;
        } catch (const sim::NodeCrashError &) {
            crashed = true;
        } catch (const sim::SimError &) {
            failedTransient = true; // retry budget exhausted mid-publish
        }
        faults.disarmCrash();

        if (crashed) {
            ++rep.crashesInjected;
            recover(/*nodeDied=*/true, gen);
            return;
        }
        if (failedTransient) {
            ++rep.transientFailures;
            // The failed publish left a STAGED orphan; the restart
            // pass completes or retires it.
            recover(/*nodeDied=*/false, gen);
            return;
        }

        ++rep.checkpointsPublished;
        // Retiring superseded generations exercises release and
        // replica drop under injection.
        supersede(newCid);
    }

    /** One restore invocation, fully audited. */
    void
    invokeOnce()
    {
        const std::optional<Hit> hit = lookupPublished(&rep.coldStarts);
        if (!hit)
            return;
        os::NodeOs &target = restoreNode();
        ++rep.invocations;
        rfork::RestoreOutcome outcome = mech->tryRestore(hit->handle, target);
        if (!outcome) {
            switch (outcome.error) {
              case rfork::RestoreError::TransientFault:
                ++rep.transientFailures;
                return;
              case rfork::RestoreError::PoisonedFrame:
                handleLoss(outcome.origin, hit->cid);
                return;
              default:
                fail(sim::format("restore failed (%s): %s",
                                 rfork::restoreErrorName(outcome.error),
                                 outcome.message.c_str()));
                return;
            }
        }

        // Byte-identical or bust: every heap token must reproduce. A
        // poisoned read here is the same loss path as during restore.
        bool verified = true;
        try {
            if (auto bad = parent.verify(target, *outcome.task,
                                         hit->expected)) {
                fail(sim::format("restored page %llu reads %#llx, want "
                                 "%#llx (silent corruption)",
                                 (unsigned long long)bad->page,
                                 (unsigned long long)bad->got,
                                 (unsigned long long)bad->want));
                verified = false;
            }
        } catch (const sim::PoisonedFrameError &e) {
            handleLoss(e.origin(), hit->cid);
            verified = false;
        } catch (const sim::TransientFaultError &) {
            ++rep.transientFailures;
            verified = false;
        } catch (const sim::SimError &e) {
            fail(std::string("restored child read failed: ") + e.what());
            verified = false;
        }
        if (verified)
            ++rep.restoresOk;
        target.exitTask(outcome.task);
    }

    void
    finalAudit()
    {
        rep.framesLeaked = teardown();
        cxl::RasManager &ras = cluster.fabric().ras();
        rep.repairs = ras.repairs();
        rep.peakReplicaBytes = ras.peakReplicaFrames() * mem::kPageSize;
        if (ras.enabled()) {
            rep.replicasWritten = cluster.machine()
                                      .metrics()
                                      .counter("cxl.ras.replicas_written")
                                      .value();
            rep.scrubRepairs = 0; // folded into repairs via the counter
        }
        rep.pass = !verdict.failed;
        rep.firstViolation = verdict.detail;
    }
};

} // namespace

ChaosReport
runChaosSoak(const ChaosConfig &cfg)
{
    ChaosSoak soak(cfg);
    cxl::RasManager &ras = soak.cluster.fabric().ras();

    for (uint64_t round = 0; round < cfg.rounds; ++round) {
        ++soak.rep.rounds;
        if (cfg.republishEvery == 0 || round % cfg.republishEvery == 0)
            soak.publishGeneration(round / std::max<uint64_t>(
                                               cfg.republishEvery, 1));
        soak.maybeStrike();
        for (uint64_t r = 0; r < kRestoresPerRound; ++r)
            soak.invokeOnce();
        if (cfg.scrubEveryRounds != 0 && ras.enabled() &&
            (round + 1) % cfg.scrubEveryRounds == 0) {
            const cxl::ScrubReport sr =
                ras.scrubStep(soak.cluster.node(0).clock());
            soak.rep.scrubRepairs += sr.repaired;
        }
    }

    soak.finalAudit();
    return soak.rep;
}

} // namespace cxlfork::porter
