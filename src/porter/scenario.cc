#include "scenario.hh"

#include <algorithm>
#include <map>
#include <optional>

#include "cxl/link_health.hh"
#include "cxl/ras.hh"
#include "sim/error.hh"
#include "sim/log.hh"

namespace cxlfork::porter {

void
Scenario::setReplicas(uint32_t k)
{
    cluster.ras.enabled = k > 0;
    cluster.ras.replicas = k;
}

Scenario
Scenario::crash()
{
    Scenario s;
    s.function = "crashfn";
    s.tokens = {0xc0ffee, 0};
    return s;
}

Scenario
Scenario::chaos(bool negative)
{
    Scenario s;
    s.cluster.pageStore.dedup = true;
    s.cluster.ras.replicaThreshold = 1;
    s.setReplicas(negative ? 0 : 2);
    sim::FaultConfig &f = s.cluster.machine.faults;
    f.framePoisonRate = 0.02;
    f.cxlTransientRate = 0.02;
    f.maxRetries = 4;
    f.backoffJitter = 0.25; // exercise the seeded-jitter path
    s.faultSeedMix = 0x0bad'cab1'e0ddULL;
    s.publishFault = Fault::Crash;
    s.publishFaultProb = 0.25;
    s.publishSites = 64;
    s.function = "chaosfn";
    s.heapPages = 12;
    s.tokens = {0xc0ffee, 4};
    s.rounds = 250;
    s.seed = 0xc4a0'5011ULL;
    s.steps = kRas | kRestore;
    return s;
}

Scenario
Scenario::partition(bool negative)
{
    Scenario s;
    // Three nodes: publisher (0), preferred restorer (1), warm
    // failover (2) — the minimum where a partitioned restorer leaves
    // a genuinely different node to fail over to.
    s.cluster = harness::smallCluster(3);
    s.cluster.pageStore.dedup = true;
    s.cluster.ras.replicaThreshold = 1;
    s.setReplicas(2);
    s.cluster.link.enabled = true;
    s.cluster.machine.faults.linkSeverRate = 0.01;
    s.cluster.machine.faults.linkDegradeRate = 0.02;
    s.faultSeedMix = 0x11aa'dead'1144ULL;
    s.publishFault = Fault::Sever;
    s.publishFaultProb = 0.2;
    s.publishSites = 48;
    s.scheduledSeverProb = 0.08;
    s.function = "partfn";
    s.heapPages = 12;
    s.tokens = {0x5eaf, 4};
    s.rounds = 200;
    s.seed = 0x11aa'facab1eULL;
    s.steps = kPartition | kRestore | kSplitBrain;
    s.epochFencing = !negative;
    return s;
}

namespace {

using harness::kUser;

/** Rounds a scheduled whole-node cut lasts. */
constexpr uint64_t kSeverHealRounds = 6;

/** Rounds between generations, scrub steps and split-brain replays. */
constexpr uint64_t kRepublishEvery = 8;
constexpr uint64_t kScrubEvery = 16;
constexpr uint64_t kSplitBrainEvery = 25;

/** Post-birth poison strike probability per round. */
constexpr double kStrikeRate = 0.5;

/** Restores per soak round. */
constexpr uint64_t kRestoresPerRound = 2;

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

/** One ladder traversal: the final outcome plus how far down it went. */
struct FailoverOutcome
{
    rfork::RestoreOutcome outcome; ///< From the rung that ended the walk.
    LadderRung rung = LadderRung::ColdStart;
    mem::NodeId node = mem::kInvalidNode; ///< The target that ended it.
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
                    const std::vector<mem::NodeId> &targets)
{
    FailoverOutcome out;
    sim::MetricsRegistry &m = cluster.machine().metrics();
    for (size_t i = 0; i < targets.size(); ++i) {
        os::NodeOs &target = cluster.node(targets[i]);
        const sim::SimTime before = target.clock().now();
        out.outcome = mech.tryRestore(handle, target);
        out.latency += target.clock().now() - before;
        out.node = targets[i];
        if (out.outcome) {
            out.rung = i > 0                      ? LadderRung::Failover
                       : out.outcome.retries > 0 ? LadderRung::Retried
                                                 : LadderRung::Direct;
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
    m.counter("cxl.partition.ladder_exhausted").inc();
    return out;
}

/** The layer set with every Bernoulli rate off. */
ClusterConfig
calm(const Scenario &s)
{
    ClusterConfig cc = s.cluster;
    sim::FaultConfig &f = cc.machine.faults;
    f.seed = s.seed ^ s.faultSeedMix;
    f.cxlTransientRate = f.framePoisonRate = f.tornWriteRate = 0.0;
    f.linkSeverRate = f.linkDegradeRate = 0.0;
    return cc;
}

/** A fault window on one step: arm `fault` at `site`, or count. */
struct Window
{
    Fault fault;
    std::optional<uint64_t> site; ///< None: count the sites instead.
};

/** One cluster, soaked through rounds or replayed at one site. */
struct Run : harness::Soak
{
    const Scenario &s;
    const bool soak; ///< false: a calm sweep replay, strict throughout.
    Report rep;
    sim::FaultInjector &faults;
    BeforeVerify beforeVerify;

    /** Scheduled whole-node cuts: node -> round the link heals. */
    std::map<mem::NodeId, uint64_t> severedUntil;

    // What the last fault window and node-0 recovery saw.
    bool fired = false;
    uint64_t sitesSeen = 0;
    NodeRecovery lastRecovery;

    /** A soak arms the injector mix; a sweep replay stays calm. */
    Run(const Scenario &sc, bool soak)
        : Soak(calm(sc), sc.mechanism, sc.function, sc.heapPages, sc.tokens,
               sc.seed),
          s(sc), soak(soak), faults(cluster.machine().faults())
    {
        cluster.checkpoints().setEpochFencing(s.epochFencing);
        if (soak) {
            sim::FaultConfig fc = s.cluster.machine.faults;
            fc.seed = s.seed ^ s.faultSeedMix;
            cluster.machine().setFaultConfig(fc);
        } else {
            verdict.prefix.clear(); // the sweep names the site instead
        }
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

    /** The restore-capable nodes, preferred first, minus quarantined. */
    std::vector<mem::NodeId>
    liveTargets()
    {
        const mem::NodeId first = fabricMech() ? 1 : 0;
        const mem::NodeId end = fabricMech() ? cluster.numNodes() : 1;
        std::vector<mem::NodeId> t;
        for (mem::NodeId n = first; n < end; ++n) {
            if (!cluster.quarantined(n))
                t.push_back(n);
        }
        return t;
    }

    void
    open(const Window &w, mem::NodeId node)
    {
        if (!w.site)
            faults.beginCrashCount();
        else if (w.fault == Fault::Crash)
            faults.armCrashSite(*w.site);
        else
            link().severAtSite(*w.site, node);
    }

    /** End a fault window: note what it saw, disarm (harmless when
     *  none is open). */
    void
    close()
    {
        fired = faults.crashMode() == sim::CrashMode::Off;
        sitesSeen = faults.crashSitesSeen();
        faults.disarmCrash(); // also clears an unfired sever hook
    }

    void
    heartbeat()
    {
        const HeartbeatReport hb = cluster.heartbeatTick();
        rep.heartbeatMisses += hb.misses;
        rep.quarantines += hb.newlyQuarantined.size();
    }

    /**
     * Recover (or rejoin, if quarantined) node `n` to completion even
     * when fresh Bernoulli severances or transients bite mid-recovery:
     * heal and retry until the journal walk finishes. `clean`, when
     * given, reports whether it finished on the first attempt; the
     * reclaims of an interrupted attempt land in the store but not in
     * the returned counts, so invariants on them only hold when clean.
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
     * Node 0's restart after a failed publish; a crashed node's parent
     * dies with it and is rebuilt once recovery ran.
     */
    void
    recover(bool nodeDied, uint64_t pendingGen)
    {
        if (nodeDied)
            parent.exit();
        lastRecovery = recoverDespiteWeather(0);
        ++rep.recoveries;
        afterRecovery(pendingGen);
        if (nodeDied)
            parent.fill(pendingGen);
    }

    /** The soak's publish: publishFault armed at a drawn site, maybe. */
    void
    publishStep(uint64_t gen)
    {
        if (cluster.quarantined(0))
            return; // a fenced node must not publish; wait for rejoin
        const bool arm = rng.chance(s.publishFaultProb);
        const uint64_t site = rng.index(s.publishSites);
        publish(gen, arm ? std::optional<Window>({s.publishFault, site})
                         : std::nullopt);
    }

    /** Publish generation `gen`, with a fault window if given. */
    void
    publish(uint64_t gen, std::optional<Window> w = std::nullopt)
    {
        parent.fill(gen);
        rfork::CheckpointStore &store = cluster.checkpoints();
        if (w)
            open(*w, 0);
        enum { Published, Crashed, Partitioned, Fenced, Failed, Broken } how =
            Published;
        cxl::Cid cid = 0;
        std::string why;
        try {
            cid = mech->checkpointPublished(store, {kUser, s.function},
                                            cluster.node(0), *parent.task,
                                            nullptr, s.policy)
                      .cid;
        } catch (const sim::NodeCrashError &) {
            how = Crashed;
        } catch (const sim::FabricPartitionError &e) {
            how = Partitioned;
            why = e.what();
        } catch (const sim::StaleEpochError &) {
            how = Fenced;
        } catch (const sim::TransientFaultError &e) {
            how = Failed; // retry budget exhausted mid-publish
            why = e.what();
        } catch (const sim::SimError &e) {
            how = Broken;
            why = e.what();
        }
        close();
        // Whether an armed severance fired early, late or never, node
        // 0's link is whole before the next step: the scenario under
        // test is the mid-publish cut, not a lasting outage (scheduled
        // severance covers those).
        if (cluster.linkHealth())
            link().heal(0);
        // A replay runs calm: only its armed crash may stop a publish.
        if (!soak && (how == Partitioned || how == Failed))
            how = Broken;

        switch (how) {
          case Published:
            ++rep.checkpointsPublished;
            // Retiring superseded generations exercises release and
            // replica drop under injection.
            supersede(cid);
            return;
          case Crashed:
            ++rep.crashesInjected;
            // The instant after the crash, before any recovery ran:
            // lookup() must not see a half-built image (a fully built
            // one is fine). PublishPolicy::DirectPutUnsafe reopens
            // exactly this window.
            if (auto hit = store.lookup(kUser, s.function)) {
                auto h = store.get(*hit);
                if (!h || !h->complete())
                    fail("lookup exposes a half-built image before "
                         "recovery");
            }
            recover(/*nodeDied=*/true, gen);
            return;
          case Partitioned:
            ++rep.publishPartitioned;
            break;
          case Fenced:
            fail("publish from a never-quarantined node was fenced");
            break;
          case Failed:
            ++rep.transientFailures;
            break;
          case Broken:
            fail("publish failed: " + why);
            break;
        }
        // The failed publish left a STAGED orphan; the restart pass
        // completes or retires it.
        recover(/*nodeDied=*/false, gen);
    }

    /**
     * Rungs 3-5 of the repair ladder: a restore named a frame whose
     * data is gone. Reclaim every checkpoint it damaged and prove the
     * reclaim took: lookup() must stop offering them, degrading the
     * function to a cold start instead of a corrupt restore.
     */
    void
    reclaimLost(const sim::FaultOrigin &origin, cxl::Cid cid, mem::NodeId n)
    {
        ++rep.pagesLost;
        if (origin.frameAddr == 0) {
            fail("poisoned-frame loss carried no frame origin");
            return;
        }
        const uint64_t reclaimed =
            cluster.reclaimDamaged(n, mem::PhysAddr{origin.frameAddr});
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

    /**
     * The soak's one outcome switch for a failed restore or verify
     * read: a poisoned frame is reclaimed, a fabric partition is a cold
     * start, a transient fault is retryable, anything else is a
     * violation.
     */
    void
    settle(rfork::RestoreError e, const sim::FaultOrigin &origin,
           cxl::Cid cid, mem::NodeId n, const char *what)
    {
        switch (e) {
          case rfork::RestoreError::PoisonedFrame:
            reclaimLost(origin, cid, n);
            return;
          case rfork::RestoreError::FabricPartition:
            ++rep.coldStarts;
            return;
          case rfork::RestoreError::TransientFault:
            ++rep.transientFailures;
            return;
          default:
            fail(sim::format("restore failed (%s): %s",
                             rfork::restoreErrorName(e), what));
        }
    }

    /**
     * Restore the published image through the ladder over the live
     * targets, with a fault window on the first target if given (closed
     * before the verify reads), and verify every token.
     * @return the rung that served it, if one did.
     */
    std::optional<LadderRung>
    restore(std::optional<Window> w = std::nullopt)
    {
        const std::optional<Hit> hit = lookupPublished(&rep.coldStarts);
        if (!hit)
            return std::nullopt;
        const std::vector<mem::NodeId> targets = liveTargets();
        if (targets.empty()) {
            // Every restore-capable node is fenced off: an honest
            // degraded state, not a violation.
            ++rep.coldStarts;
            return std::nullopt;
        }
        ++rep.invocations;
        if (w)
            open(*w, targets.front());
        FailoverOutcome fo =
            restoreWithFailover(cluster, *mech, hit->handle, targets);
        close();
        if (!fo.outcome) {
            // A replay runs calm: its one degradation is the ladder
            // exhausted under its armed sever, a cold start.
            if (soak || (w && w->fault == Fault::Sever &&
                         fo.outcome.error ==
                             rfork::RestoreError::FabricPartition)) {
                settle(fo.outcome.error, fo.outcome.origin, hit->cid,
                       fo.node, fo.outcome.message.c_str());
            } else {
                fail(sim::format("restore failed (%s): %s",
                                 rfork::restoreErrorName(fo.outcome.error),
                                 fo.outcome.message.c_str()));
            }
            return std::nullopt;
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

        // Byte-identical or bust. The demand-fault reads ride the
        // fabric too.
        os::NodeOs &target = cluster.node(fo.node);
        uint64_t page = 0;
        try {
            if (beforeVerify)
                beforeVerify(cluster, fo.node);
            if (auto bad = parent.verify(target, *fo.outcome.task,
                                         hit->expected, &page)) {
                fail(sim::format("restored page %llu reads %#llx, want "
                                 "%#llx (silent corruption past rung %s)",
                                 (unsigned long long)bad->page,
                                 (unsigned long long)bad->got,
                                 (unsigned long long)bad->want,
                                 ladderRungName(fo.rung)));
            } else {
                ++rep.restoresOk;
                rep.restoreLatenciesUs.push_back(fo.latency.toUs());
            }
        } catch (const sim::SimError &e) {
            // A replay's reads run calm: any failure is a violation. In
            // a soak, a flap striking a read of a served restore heals
            // on its own: retryable, not a cold start.
            rfork::RestoreError err = rfork::restoreErrorOf(e);
            if (err == rfork::RestoreError::FabricPartition)
                err = rfork::RestoreError::TransientFault;
            if (soak) {
                settle(err, e.origin(), hit->cid, fo.node, e.what());
            } else {
                fail(sim::format("verify read failed at page %llu: %s",
                                 (unsigned long long)page, e.what()));
            }
        }
        target.exitTask(fo.outcome.task);
        return fo.rung;
    }

    /** Post-birth poison strike on one random allocated device frame. */
    void
    strike()
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

    /** Heal every scheduled cut whose time is up. */
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

    /**
     * Probe for quarantined nodes whose links have come back: every
     * failed probe also ticks a flapped link toward its auto-heal, so
     * a node severed by Bernoulli weather always finds its way home.
     * Nodes under a scheduled cut stay out until the schedule heals
     * them.
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
                // The rejoin's own journal recovery rides the same
                // weather: a fresh severance mid-recovery aborts the
                // rejoin (quarantine only clears once recovery
                // finishes) and the node retries next round.
                const NodeRecovery rec = cluster.rejoinNode(n);
                rep.staleRecordsReclaimed += rec.staleEpochReclaimed;
                ++rep.rejoins;
            } catch (const sim::FabricPartitionError &) {
                continue; // still cut off
            } catch (const sim::TransientFaultError &) {
                continue;
            }
            pruneReclaimed();
        }
    }

    /** Scheduled whole-node cut of one restore-side node. */
    void
    scheduleSever(uint64_t round)
    {
        if (!fabricMech() || !rng.chance(s.scheduledSeverProb))
            return;
        const mem::NodeId victim =
            mem::NodeId(1 + rng.index(cluster.numNodes() - 1));
        if (severedUntil.count(victim))
            return;
        link().sever(victim);
        severedUntil[victim] = round + kSeverHealRounds;
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
        const cxl::Cid cidA = store.stage(kUser, s.function, zombieHandle, 0);

        // 2. Cut node 0 off; the heartbeat protocol must quarantine
        //    it within K missed probes (bumping its epoch).
        const uint32_t probes = s.cluster.heartbeatK + 2;
        link().sever(0);
        for (uint32_t p = 0; !cluster.quarantined(0) && p < probes; ++p)
            heartbeat();
        if (!cluster.quarantined(0)) {
            fail(sim::format("severed node 0 escaped quarantine after "
                             "%u heartbeat rounds",
                             probes));
            store.reclaim(cidA);
            link().heal(0);
            return;
        }

        // 3. The survivors move on: node 1 publishes a fresh
        //    checkpoint for the same function.
        harness::TokenHeap survivor{cluster.node(1), s.function, s.heapPages,
                                    s.tokens};
        survivor.fill(0x5b00 + round);
        cxl::Cid cidB = 0;
        try {
            cidB = mech->checkpointPublished(store, {kUser, s.function},
                                             cluster.node(1), *survivor.task)
                       .cid;
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
        const std::optional<cxl::Cid> now = store.lookup(kUser, s.function);
        if (s.epochFencing) {
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

    Report
    finish()
    {
        if (cluster.linkHealth()) {
            // Make the cluster whole so teardown reads don't fight the
            // weather: heal every link AND stop the Bernoulli draws, or
            // a fresh severance could abort the final rejoin and leave
            // stale orphans staged past the census.
            sim::FaultConfig fc = faults.config();
            fc.linkSeverRate = 0.0;
            fc.linkDegradeRate = 0.0;
            faults.setConfig(fc);
            for (mem::NodeId n = 0; n < cluster.numNodes(); ++n)
                link().heal(n);
            severedUntil.clear();
            rejoinProbe();
        }
        rep.framesLeaked = teardown();

        cxl::RasManager &ras = cluster.fabric().ras();
        sim::MetricsRegistry &m = cluster.machine().metrics();
        rep.repairs = ras.repairs();
        rep.peakReplicaBytes = ras.peakReplicaFrames() * mem::kPageSize;
        rep.replicasWritten = m.counter("cxl.ras.replicas_written").value();
        rep.reroutes = m.counter("cxl.partition.reroutes").value();
        rep.severedTxns = m.counter("cxl.partition.severed_txns").value();
        rep.degradedTxns = m.counter("cxl.partition.degraded_txns").value();
        rep.pass = !verdict.failed;
        rep.firstViolation = verdict.detail;
        std::sort(rep.restoreLatenciesUs.begin(),
                  rep.restoreLatenciesUs.end());
        return rep;
    }
};

} // namespace

Report
run(const Scenario &s)
{
    Run r(s, /*soak=*/true);
    cxl::RasManager &ras = r.cluster.fabric().ras();
    auto on = [&](Scenario::Step step) { return (s.steps & step) != 0; };

    for (uint64_t round = 0; round < s.rounds; ++round) {
        ++r.rep.rounds;
        if (on(Scenario::kPartition)) {
            r.healDue(round);
            r.rejoinProbe();
        }
        if (round % kRepublishEvery == 0)
            r.publishStep(round / kRepublishEvery);
        if (on(Scenario::kPartition)) {
            r.scheduleSever(round);
            r.heartbeat();
        }
        if (on(Scenario::kRas))
            r.strike();
        for (uint64_t k = 0; on(Scenario::kRestore) && k < kRestoresPerRound;
             ++k)
            r.restore();
        if (on(Scenario::kRas) && ras.enabled() &&
            (round + 1) % kScrubEvery == 0)
            r.rep.scrubRepairs +=
                ras.scrubStep(r.cluster.node(0).clock()).repaired;
        if (on(Scenario::kSplitBrain) && (round + 1) % kSplitBrainEvery == 0)
            r.splitBrain(round);
    }
    return r.finish();
}

uint64_t
countSites(const Scenario &s, Fault f)
{
    Run r(s, /*soak=*/false);
    if (f == Fault::Crash) {
        r.publish(0, Window{f, std::nullopt});
    } else {
        r.publish(0);
        r.restore(Window{f, std::nullopt});
    }
    return r.sitesSeen;
}

SiteResult
runAtSite(const Scenario &s, Fault f, uint64_t site,
          const BeforeVerify &beforeVerify)
{
    SiteResult res;
    res.site = site;
    Run r(s, /*soak=*/false);
    r.beforeVerify = beforeVerify;
    rfork::CheckpointStore &store = r.cluster.checkpoints();

    if (f == Fault::Crash) {
        r.publish(0, Window{f, site});
        res.fired = r.fired;
        res.framesReclaimed = r.lastRecovery.framesReclaimed;
        res.recoveryTime = r.lastRecovery.recoveryTime;
        // Restorable-or-absent: whatever lookup() returns now must
        // restore on another node and reproduce every page token.
        res.imageAvailable = store.lookup(kUser, s.function).has_value();
        if (!res.fired && !res.imageAvailable)
            r.fail("completed checkpoint was never published");
        res.restored = r.restore().has_value();
    } else {
        r.publish(0);
        const mem::NodeId victim = r.liveTargets().front();
        const std::optional<LadderRung> rung = r.restore(Window{f, site});
        res.fired = r.fired;
        res.restored = rung.has_value();
        res.rung = rung.value_or(LadderRung::ColdStart);
        // The episode over, heal the fabric and prove the fence never
        // misfired: a publish from a node that was never quarantined
        // must go through (the severance alone must not poison epochs).
        r.link().heal(victim);
        res.imageAvailable = store.lookup(kUser, s.function).has_value();
        r.publish(0);
    }

    // Teardown: nothing the episode touched may leak.
    res.framesLeaked = r.teardown();
    res.violation = r.verdict.failed;
    res.detail = r.verdict.detail;
    return res;
}

SweepReport
sweep(const Scenario &s, Fault f)
{
    return harness::sweepSites(
        s.mechanism, countSites(s, f),
        f == Fault::Crash ? "crash" : "severance", &SiteResult::fired,
        [&](uint64_t k) { return runAtSite(s, f, k); });
}

} // namespace cxlfork::porter
