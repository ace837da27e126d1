#include "partition_harness.hh"

#include <algorithm>
#include <map>

#include "cxl/link_health.hh"
#include "porter/harness_core.hh"
#include "sim/error.hh"
#include "sim/log.hh"

namespace cxlfork::porter {

const char *
ladderRungName(LadderRung r)
{
    switch (r) {
      case LadderRung::Direct:
        return "direct";
      case LadderRung::Retried:
        return "retried";
      case LadderRung::Failover:
        return "failover";
      case LadderRung::ColdStart:
        return "cold-start";
    }
    return "?";
}

FailoverOutcome
restoreWithFailover(Cluster &cluster, rfork::RemoteForkMechanism &mech,
                    const std::shared_ptr<rfork::CheckpointHandle> &handle,
                    const std::vector<mem::NodeId> &targets,
                    const rfork::RestoreOptions &opts,
                    const rfork::RestoreRetryPolicy &policy)
{
    FailoverOutcome out;
    sim::MetricsRegistry &m = cluster.machine().metrics();
    for (size_t i = 0; i < targets.size(); ++i) {
        os::NodeOs &target = cluster.node(targets[i]);
        const sim::SimTime before = target.clock().now();
        rfork::RestoreOutcome attempt =
            mech.tryRestore(handle, target, opts, policy);
        out.latency += target.clock().now() - before;
        out.outcome = std::move(attempt);
        if (out.outcome) {
            out.rung = i > 0                      ? LadderRung::Failover
                       : out.outcome.retries > 0 ? LadderRung::Retried
                                                 : LadderRung::Direct;
            out.servedBy = targets[i];
            if (i > 0)
                m.counter("cxl.partition.failovers").inc();
            return out;
        }
        // Only a fabric partition moves the walk to the next warm
        // node; every other failure has its own ladder (RAS repair,
        // transient backoff) and surfaces unchanged.
        if (out.outcome.error != rfork::RestoreError::FabricPartition)
            return out;
        if (i + 1 < targets.size()) {
            // Shipping the restore request to the next warm node is
            // one control-plane round trip on its clock.
            cluster.node(targets[i + 1])
                .clock()
                .advance(cluster.machine().costs().cxlLatency);
        }
    }
    out.rung = LadderRung::ColdStart;
    m.counter("cxl.partition.ladder_exhausted").inc();
    return out;
}

namespace {

using harness::kUser;
constexpr const char *kFunction = "partfn";

/** Rounds a scheduled whole-node cut lasts. */
constexpr uint64_t kSeverHealRounds = 6;

/** Restore invocations per soak round. */
constexpr uint64_t kRestoresPerRound = 2;

harness::PageTokens
tokens(const PartitionConfig &cfg)
{
    return {0x5eaf, cfg.tokenPeriod};
}

ClusterConfig
partitionCluster(const PartitionConfig &cfg)
{
    // Three nodes: publisher (0), preferred restorer (1), warm
    // failover (2) — the minimum where a partitioned restorer leaves
    // a genuinely different node to fail over to.
    ClusterConfig cc = harness::smallCluster(3);
    cc.machine.faults.linkSeverRate = cfg.severRate;
    cc.machine.faults.linkDegradeRate = cfg.degradeRate;
    cc.machine.faults.seed = cfg.seed ^ 0x11aa'dead'1144ULL;
    cc.pageStore.dedup = cfg.dedup;
    cc.ras.enabled = cfg.replicas > 0;
    cc.ras.replicas = cfg.replicas;
    cc.ras.replicaThreshold = cfg.replicaThreshold;
    cc.link.enabled = true;
    cc.link.degradeFactor = cfg.degradeFactor;
    cc.link.flapTxns = cfg.flapTxns;
    cc.heartbeatK = cfg.heartbeatK;
    cc.contention = cfg.contention;
    return cc;
}

/** The long-lived soak state (one cluster across every round). */
struct PartitionSoak : harness::Soak
{
    const PartitionConfig &cfg;
    PartitionReport rep;

    /** Scheduled whole-node cutoffs: node -> round the link heals. */
    std::map<mem::NodeId, uint64_t> severedUntil;

    explicit PartitionSoak(const PartitionConfig &c)
        : Soak(partitionCluster(c), c.mechanism, kFunction, c.heapPages,
               tokens(c), c.seed),
          cfg(c)
    {
        cluster.checkpoints().setEpochFencing(c.epochFencing);
    }

    cxl::LinkHealth &
    link()
    {
        cxl::LinkHealth *lh = cluster.linkHealth();
        CXLF_ASSERT(lh != nullptr);
        return *lh;
    }

    bool
    fabricMech() const
    {
        return kind != rfork::MechanismKind::LocalFork;
    }

    /**
     * Recover (or rejoin, if quarantined) node `n` to completion even
     * when fresh Bernoulli severances bite mid-recovery: heal and
     * retry until the journal walk finishes. `clean`, when given,
     * reports whether it finished on the first weather-free attempt;
     * reclaims made by an interrupted attempt land in the store but
     * their counts are lost to the caller, so invariants on the
     * returned counts only hold when clean.
     */
    NodeRecovery
    recoverDespiteWeather(mem::NodeId n, bool *clean = nullptr)
    {
        if (clean)
            *clean = true;
        for (;;) {
            try {
                NodeRecovery rec;
                if (cluster.quarantined(n)) {
                    rec = cluster.rejoinNode(n);
                    ++rep.rejoins;
                } else {
                    rec = cluster.recoverNode(n);
                }
                rep.staleRecordsReclaimed += rec.staleEpochReclaimed;
                return rec;
            } catch (const sim::FabricPartitionError &) {
                if (clean)
                    *clean = false;
                link().heal(n);
            } catch (const sim::TransientFaultError &) {
                if (clean)
                    *clean = false;
            }
        }
    }

    /**
     * Probe for quarantined nodes whose links have come back: every
     * failed probe also ticks a flapped link toward its auto-heal, so
     * a node severed by Bernoulli weather always finds its way home.
     * Nodes under a scheduled cutoff stay out until the schedule
     * heals them.
     */
    void
    rejoinProbe()
    {
        for (mem::NodeId n = 0; n < cluster.numNodes(); ++n) {
            if (!cluster.quarantined(n) || severedUntil.count(n))
                continue;
            try {
                cluster.machine().cxlTransaction(cluster.node(n).clock(),
                                                 "rejoin probe", n);
            } catch (const sim::FabricPartitionError &) {
                continue; // still cut off
            } catch (const sim::TransientFaultError &) {
                continue;
            }
            try {
                // The rejoin's own journal recovery rides the same
                // weather: a fresh severance mid-recovery aborts the
                // rejoin (quarantine only clears once recovery
                // finishes) and the node retries next round.
                const NodeRecovery rec = cluster.rejoinNode(n);
                rep.staleRecordsReclaimed += rec.staleEpochReclaimed;
                ++rep.rejoins;
            } catch (const sim::FabricPartitionError &) {
                continue;
            } catch (const sim::TransientFaultError &) {
                continue;
            }
            pruneReclaimed();
        }
    }

    /** Publish generation `gen`, possibly severed mid-flight. */
    void
    publishGeneration(uint64_t gen)
    {
        if (cluster.quarantined(0))
            return; // a fenced node must not publish; wait for rejoin
        parent.fill(gen);
        rfork::CheckpointStore &store = cluster.checkpoints();
        sim::FaultInjector &faults = cluster.machine().faults();
        const bool armSever = rng.chance(cfg.midPublishSeverProb);
        // Drawn past the typical site count on purpose: high draws
        // are severance-free control publishes.
        const uint64_t site = rng.index(48);
        if (armSever)
            link().severAtSite(site, 0);
        bool partitioned = false;
        cxl::Cid newCid = 0;
        try {
            const rfork::PublishedCheckpoint pub = mech->checkpointPublished(
                store, {kUser, kFunction}, cluster.node(0), *parent.task);
            newCid = pub.cid;
        } catch (const sim::FabricPartitionError &) {
            partitioned = true;
        } catch (const sim::StaleEpochError &) {
            fail("publish from a never-quarantined node was fenced");
            faults.disarmCrash();
            link().heal(0);
            recoverDespiteWeather(0);
            afterRecovery(gen);
            return;
        }
        faults.disarmCrash(); // clears an unfired severAtSite hook
        // Whether the armed severance fired early, late, or never,
        // node 0's link is made whole before the next round — the
        // scenario under test is the mid-publish cut, not a lasting
        // outage (scheduled severance covers those).
        link().heal(0);

        if (partitioned) {
            ++rep.publishPartitioned;
            recoverDespiteWeather(0);
            afterRecovery(gen);
            return;
        }

        ++rep.checkpointsPublished;
        supersede(newCid);
    }

    /** Scheduled whole-node cutoff of one restore-side node. */
    void
    maybeScheduleSever(uint64_t round)
    {
        if (!fabricMech() || !rng.chance(cfg.scheduledSeverProb))
            return;
        const mem::NodeId victim =
            mem::NodeId(1 + rng.index(cluster.numNodes() - 1));
        if (severedUntil.count(victim))
            return;
        link().sever(victim);
        severedUntil[victim] = round + kSeverHealRounds;
    }

    /** Heal every scheduled cutoff whose time is up. */
    void
    healDue(uint64_t round)
    {
        for (auto it = severedUntil.begin(); it != severedUntil.end();) {
            if (it->second <= round) {
                link().heal(it->first);
                it = severedUntil.erase(it);
            } else {
                ++it;
            }
        }
    }

    /** One restore invocation through the full ladder, audited. */
    void
    invokeOnce()
    {
        const std::optional<Hit> hit = lookupPublished(&rep.coldStarts);
        if (!hit)
            return;

        std::vector<mem::NodeId> targets;
        if (fabricMech()) {
            for (mem::NodeId t : {mem::NodeId(1), mem::NodeId(2)}) {
                if (!cluster.quarantined(t))
                    targets.push_back(t);
            }
        } else if (!cluster.quarantined(0)) {
            targets.push_back(0);
        }
        if (targets.empty()) {
            // Every restore-capable node is fenced off: an honest
            // degraded state, not a violation.
            ++rep.coldStarts;
            return;
        }

        ++rep.invocations;
        FailoverOutcome fo =
            restoreWithFailover(cluster, *mech, hit->handle, targets);
        if (!fo.outcome) {
            switch (fo.outcome.error) {
              case rfork::RestoreError::FabricPartition:
                // The whole ladder was walked dry: degrade to a cold
                // start. Provable degradation, not corruption.
                ++rep.coldStarts;
                return;
              case rfork::RestoreError::TransientFault:
                ++rep.transientFailures;
                return;
              default:
                fail(sim::format("restore failed (%s): %s",
                                 rfork::restoreErrorName(fo.outcome.error),
                                 fo.outcome.message.c_str()));
                return;
            }
        }
        switch (fo.rung) {
          case LadderRung::Direct:
            ++rep.directRestores;
            break;
          case LadderRung::Retried:
            ++rep.retriedRestores;
            break;
          case LadderRung::Failover:
            ++rep.failovers;
            break;
          case LadderRung::ColdStart:
            break;
        }

        // Byte-identical or bust. The demand-fault reads below ride
        // the fabric too; a flap striking here reroutes to a replica
        // or fails the read, which is a retryable degradation.
        os::NodeOs &target = cluster.node(fo.servedBy);
        bool verified = true;
        try {
            if (auto bad = parent.verify(target, *fo.outcome.task,
                                         hit->expected)) {
                fail(sim::format("restored page %llu reads %#llx, want "
                                 "%#llx (silent corruption past rung %s)",
                                 (unsigned long long)bad->page,
                                 (unsigned long long)bad->got,
                                 (unsigned long long)bad->want,
                                 ladderRungName(fo.rung)));
                verified = false;
            }
        } catch (const sim::FabricPartitionError &) {
            ++rep.transientFailures; // the flap heals; retryable
            verified = false;
        } catch (const sim::TransientFaultError &) {
            ++rep.transientFailures;
            verified = false;
        } catch (const sim::SimError &e) {
            fail(std::string("restored child read failed: ") + e.what());
            verified = false;
        }
        if (verified) {
            ++rep.restoresOk;
            rep.restoreLatenciesUs.push_back(fo.latency.toUs());
        }
        target.exitTask(fo.outcome.task);
    }

    /**
     * The deterministic split-brain scenario: node 0 stages a
     * checkpoint, is cut off and quarantined, the survivors publish a
     * replacement from node 1, the link heals, and the zombie's
     * publish of its pre-partition record arrives. With the epoch
     * fence on, the publish MUST be rejected and rejoin MUST reclaim
     * the stale orphan; with the fence off (negative control) the
     * zombie wins — a demonstrable double-publish.
     */
    void
    splitBrain(uint64_t round)
    {
        if (!fabricMech())
            return; // a LocalFork handle wraps the live parent
        if (cluster.quarantined(0) || cluster.quarantined(1) ||
            severedUntil.count(0) || severedUntil.count(1))
            return; // need both protagonists healthy to start

        rfork::CheckpointStore &store = cluster.checkpoints();
        parent.fill(parent.generation == ~uint64_t(0) ? 0 : parent.generation);

        // 1. The zombie-to-be stages (but does not publish) on node 0
        //    at its current epoch.
        std::shared_ptr<rfork::CheckpointHandle> zombieHandle;
        try {
            zombieHandle = mech->checkpoint(cluster.node(0), *parent.task);
        } catch (const sim::SimError &) {
            link().heal(0);
            return; // link weather spoiled the setup; try next time
        }
        const cxl::Cid cidA =
            store.stage(kUser, kFunction, zombieHandle, 0);

        // 2. Cut node 0 off; the heartbeat protocol must quarantine
        //    it within K missed probes (bumping its epoch).
        link().sever(0);
        for (uint32_t probes = 0;
             !cluster.quarantined(0) && probes < cfg.heartbeatK + 2;
             ++probes) {
            const HeartbeatReport hb = cluster.heartbeatTick();
            rep.heartbeatMisses += hb.misses;
            rep.quarantines += hb.newlyQuarantined.size();
        }
        if (!cluster.quarantined(0)) {
            fail(sim::format("severed node 0 escaped quarantine after "
                             "%u heartbeat rounds",
                             cfg.heartbeatK + 2));
            store.reclaim(cidA);
            link().heal(0);
            return;
        }

        // 3. The survivors move on: node 1 publishes a fresh
        //    checkpoint for the same function.
        harness::TokenHeap survivor{cluster.node(1), kFunction,
                                    cfg.heapPages, tokens(cfg)};
        survivor.fill(0x5b00 + round);
        cxl::Cid cidB = 0;
        try {
            const rfork::PublishedCheckpoint pub = mech->checkpointPublished(
                store, {kUser, kFunction}, cluster.node(1), *survivor.task);
            cidB = pub.cid;
        } catch (const sim::SimError &) {
            // Link weather hit the survivor's publish; unwind cleanly.
            survivor.exit();
            store.reclaim(cidA);
            link().heal(0);
            recoverDespiteWeather(1);
            recoverDespiteWeather(0);
            pruneReclaimed();
            return;
        }
        ++rep.checkpointsPublished;
        published[cidB] = survivor.image();
        survivor.exit();

        // 4. The link heals and the zombie's pre-partition publish
        //    finally arrives.
        link().heal(0);
        const cxl::PublishResult pr = store.publish(cidA);
        const std::optional<cxl::Cid> now = store.lookup(kUser, kFunction);
        if (cfg.epochFencing) {
            if (pr != cxl::PublishResult::StaleEpoch) {
                fail(sim::format("zombie publish returned %s, want "
                                 "stale-epoch",
                                 cxl::publishResultName(pr)));
            } else {
                ++rep.stalePublishesRejected;
                if (!now || *now != cidB)
                    fail("fence rejected the zombie but the lookup "
                         "entry moved anyway");
            }
            bool clean = true;
            const NodeRecovery rec = recoverDespiteWeather(0, &clean);
            if (clean && rec.staleEpochReclaimed == 0)
                fail("rejoin reclaimed no stale-epoch orphan");
            if (store.get(cidA))
                fail("stale-epoch orphan survived rejoin");
        } else {
            // Negative control: the unfenced zombie flips the tuple —
            // the split-brain double-publish, demonstrated and
            // counted.
            if (pr == cxl::PublishResult::Published && now &&
                *now == cidA) {
                ++rep.doublePublishes;
                published[cidA] = parent.image();
            }
            recoverDespiteWeather(0);
        }
        pruneReclaimed();
    }

    void
    finalAudit()
    {
        // Make the cluster whole so teardown reads don't fight the
        // weather the soak left behind: heal every link AND disarm the
        // Bernoulli draws, or a fresh severance could abort the final
        // rejoin and leave stale orphans staged past the census.
        sim::FaultConfig calm = cluster.machine().faults().config();
        calm.linkSeverRate = 0.0;
        calm.linkDegradeRate = 0.0;
        cluster.machine().faults().setConfig(calm);
        for (mem::NodeId n = 0; n < cluster.numNodes(); ++n)
            link().heal(n);
        severedUntil.clear();
        rejoinProbe();

        rep.framesLeaked = teardown();
        sim::MetricsRegistry &m = cluster.machine().metrics();
        rep.reroutes = m.counter("cxl.partition.reroutes").value();
        rep.severedTxns = m.counter("cxl.partition.severed_txns").value();
        rep.degradedTxns = m.counter("cxl.partition.degraded_txns").value();
        rep.pass = !verdict.failed;
        rep.firstViolation = verdict.detail;
        std::sort(rep.restoreLatenciesUs.begin(),
                  rep.restoreLatenciesUs.end());
    }
};

} // namespace

PartitionReport
runPartitionSoak(const PartitionConfig &cfg)
{
    PartitionSoak soak(cfg);

    for (uint64_t round = 0; round < cfg.rounds; ++round) {
        ++soak.rep.rounds;
        soak.healDue(round);
        soak.rejoinProbe();
        if (cfg.republishEvery == 0 || round % cfg.republishEvery == 0)
            soak.publishGeneration(round / std::max<uint64_t>(
                                               cfg.republishEvery, 1));
        soak.maybeScheduleSever(round);
        const HeartbeatReport hb = soak.cluster.heartbeatTick();
        soak.rep.heartbeatMisses += hb.misses;
        soak.rep.quarantines += hb.newlyQuarantined.size();
        for (uint64_t r = 0; r < kRestoresPerRound; ++r)
            soak.invokeOnce();
        if (cfg.splitBrainEvery != 0 &&
            (round + 1) % cfg.splitBrainEvery == 0)
            soak.splitBrain(round);
    }

    soak.finalAudit();
    return soak.rep;
}

// --- Partition-site enumeration (CrashEnumPartition).

namespace {

/** A fresh, weather-free cluster for one deterministic site replay. */
PartitionConfig
enumConfig(const PartitionConfig &cfg)
{
    PartitionConfig c = cfg;
    // Bernoulli weather off: the armed site is the only severance, so
    // every replay is a pure function of (mechanism, site).
    c.severRate = 0.0;
    c.degradeRate = 0.0;
    c.scheduledSeverProb = 0.0;
    c.midPublishSeverProb = 0.0;
    return c;
}

/** One published checkpoint on a fresh cluster, ready to restore. */
struct EnumEpisode : harness::Rig
{
    cxl::Cid cid = 0;

    explicit EnumEpisode(const PartitionConfig &cfg)
        : Rig(partitionCluster(enumConfig(cfg)), cfg.mechanism, kFunction,
              cfg.heapPages, tokens(cfg))
    {
        parent.fill(0);
        cid = mech->checkpointPublished(cluster.checkpoints(),
                                        {kUser, kFunction}, cluster.node(0),
                                        *parent.task)
                  .cid;
    }

    std::vector<mem::NodeId>
    targets() const
    {
        if (kind == rfork::MechanismKind::LocalFork)
            return {mem::NodeId(0)};
        return {mem::NodeId(1), mem::NodeId(2)};
    }
};

} // namespace

uint64_t
countPartitionSites(const PartitionConfig &cfg)
{
    EnumEpisode ep(cfg);
    sim::FaultInjector &faults = ep.cluster.machine().faults();
    faults.beginCrashCount();
    auto handle = ep.cluster.checkpoints().get(ep.cid);
    const rfork::RestoreOutcome out = ep.mech->tryRestore(
        handle, ep.cluster.node(ep.targets().front()));
    const uint64_t sites = faults.crashSitesSeen();
    faults.disarmCrash();
    if (out.task)
        ep.cluster.node(ep.targets().front()).exitTask(out.task);
    return sites;
}

PartitionSiteResult
runPartitionAtSite(const PartitionConfig &cfg, uint64_t site)
{
    PartitionSiteResult res;
    res.site = site;
    EnumEpisode ep(cfg);
    rfork::CheckpointStore &store = ep.cluster.checkpoints();
    cxl::LinkHealth *lh = ep.cluster.linkHealth();
    CXLF_ASSERT(lh != nullptr);
    sim::FaultInjector &faults = ep.cluster.machine().faults();

    const std::vector<mem::NodeId> targets = ep.targets();
    const mem::NodeId victim = targets.front();
    lh->severAtSite(site, victim);

    auto handle = store.get(ep.cid);
    FailoverOutcome fo =
        restoreWithFailover(ep.cluster, *ep.mech, handle, targets);
    handle.reset(); // the census below must not see our pin
    res.severed = faults.crashMode() == sim::CrashMode::Off;
    faults.disarmCrash();
    res.rung = fo.rung;

    harness::Verdict v;
    if (fo.outcome) {
        // The ladder served it: every byte must reproduce.
        os::NodeOs &target = ep.cluster.node(fo.servedBy);
        res.restored = true;
        uint64_t page = 0;
        try {
            if (auto bad = ep.parent.verify(target, *fo.outcome.task,
                                            ep.parent.image(), &page)) {
                v.fail(sim::format(
                    "page %llu reads %#llx, want %#llx past rung %s",
                    (unsigned long long)bad->page,
                    (unsigned long long)bad->got,
                    (unsigned long long)bad->want, ladderRungName(fo.rung)));
            }
        } catch (const sim::SimError &e) {
            v.fail(sim::format("verify read failed at page %llu: %s",
                               (unsigned long long)page, e.what()));
        }
        target.exitTask(fo.outcome.task);
        fo.outcome.task.reset(); // drop our pin before the census
    } else if (fo.outcome.error != rfork::RestoreError::FabricPartition) {
        v.fail(sim::format("restore failed (%s), not a partition: %s",
                           rfork::restoreErrorName(fo.outcome.error),
                           fo.outcome.message.c_str()));
    }
    // else: the whole ladder exhausted — an honest cold start.

    // The episode over, heal the fabric and prove the fence never
    // misfired: a publish from a node that was never quarantined must
    // go through (the severance alone must not poison epochs).
    lh->heal(victim);
    res.imageAvailable = store.lookup(kUser, kFunction).has_value();
    try {
        const rfork::PublishedCheckpoint pub = ep.mech->checkpointPublished(
            store, {kUser, kFunction}, ep.cluster.node(0), *ep.parent.task);
        store.reclaim(pub.cid);
    } catch (const sim::StaleEpochError &e) {
        v.fail(std::string("post-episode publish was fenced without any "
                           "quarantine: ") +
               e.what());
    }

    // Teardown: nothing the severed restore touched may leak.
    store.reclaim(ep.cid);
    ep.parent.exit();
    res.framesLeaked = ep.audit(v);
    res.violation = v.failed;
    res.detail = v.detail;
    return res;
}

PartitionEnumReport
enumeratePartitionSites(const PartitionConfig &cfg)
{
    return harness::sweepSites(
        cfg.mechanism, countPartitionSites(cfg), "severance",
        &PartitionSiteResult::severed,
        [&](uint64_t k) { return runPartitionAtSite(cfg, k); });
}

} // namespace cxlfork::porter
