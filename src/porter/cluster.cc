#include "cluster.hh"

#include "sim/error.hh"
#include "sim/log.hh"

namespace cxlfork::porter {

Cluster::Cluster(const ClusterConfig &cfg)
    : cfg_(cfg), machine_(std::make_unique<mem::Machine>(cfg.machine)),
      fabric_(std::make_unique<cxl::CxlFabric>(*machine_, cfg.pageStore,
                                               cfg.ras, cfg.coherence,
                                               cfg.link, cfg.contention)),
      vfs_(std::make_shared<os::Vfs>())
{
    health_.resize(machine_->numNodes());
    // Staged-manifest pins taken during checkpointPublished are real
    // frame references; the journal releases them through the page
    // store so a shared frame's index entry disappears only when its
    // last owner lets go. checkpoints_ is declared after fabric_ and
    // therefore destroyed first, so the capture cannot dangle.
    checkpoints_.setManifestReleaser([this](uint64_t raw) {
        fabric_->pageStore().release(mem::PhysAddr{raw});
    });
    for (uint32_t i = 0; i < machine_->numNodes(); ++i) {
        nodes_.push_back(
            std::make_unique<os::NodeOs>(i, *machine_, vfs_, nsRegistry_));
        containerMgrs_.push_back(
            std::make_unique<faas::ContainerManager>(*nodes_.back()));
    }
}

NodeRecovery
Cluster::recoverNode(mem::NodeId n)
{
    os::NodeOs &self = node(n);
    sim::SimClock &clock = self.clock();
    const sim::CostParams &costs = machine_->costs();
    const sim::SimTime start = clock.now();
    NodeRecovery out;

    const uint64_t usedBefore = machine_->usedFrames();

    sim::SpanScope span = machine_->tracer().span(
        clock, n, "porter.recover_node", "porter.recovery");

    // Under HDM-D, data the dead node stored but never flushed died in
    // its cache: a checkpoint referencing such a line is torn even when
    // structurally complete, and completing it would serve stale bytes
    // forever. Snapshot the torn set *before* the directory's crash
    // cleanup (Pass 4) discards the pending stores that identify it.
    std::vector<mem::PhysAddr> tornLines;
    if (cxl::CoherenceDirectory *dir = fabric_->coherence())
        tornLines = dir->pendingLines(n);
    const auto referencesTornLine =
        [&](const std::shared_ptr<rfork::CheckpointHandle> &h) {
            for (const mem::PhysAddr addr : tornLines) {
                if (h->referencesFrame(addr))
                    return true;
            }
            return false;
        };

    // Pass 1: STAGED orphans this node left behind. Each record costs
    // one fabric transaction to read back; the verifier's verdict is
    // "fully built, not pinned to any node's local DRAM, and not torn
    // by an unflushed store".
    const cxl::RecoveryReport rep = checkpoints_.recoverOrphans(
        n, [&](const std::shared_ptr<rfork::CheckpointHandle> &h) {
            machine_->cxlTransaction(clock, "journal recover", n);
            clock.advance(costs.cxlRead(rfork::kJournalRecordBytes));
            return h->complete() && h->localBytes() == 0 &&
                   !referencesTornLine(h);
        });
    out.orphansScanned = rep.scanned;
    out.orphansCompleted = rep.completed;
    out.orphansReclaimed = rep.reclaimed;
    out.staleEpochReclaimed = rep.staleEpoch;
    clock.advance(costs.cxlWrite(rfork::kJournalRecordBytes) *
                  double(rep.completed + rep.reclaimed));

    // Pass 2: PUBLISHED checkpoints that died with this node — they
    // pin its DRAM (Mitosis shadow copies, LocalFork's live parent) or
    // no longer verify. lookup() must stop returning them.
    std::vector<cxl::Cid> deadPublished;
    checkpoints_.forEachJournal(
        [&](cxl::Cid cid, const cxl::JournalRecord &rec) {
            if (rec.state != cxl::JournalState::Published ||
                rec.ownerNode != n)
                return;
            auto h = checkpoints_.get(cid);
            if (!h || h->localBytes() > 0 || !h->complete() ||
                referencesTornLine(h))
                deadPublished.push_back(cid);
        });
    for (cxl::Cid cid : deadPublished) {
        machine_->cxlTransaction(clock, "journal recover", n);
        clock.advance(costs.cxlRead(rfork::kJournalRecordBytes) +
                      costs.cxlWrite(rfork::kJournalRecordBytes));
        checkpoints_.reclaim(cid);
        ++out.orphansReclaimed;
    }

    // Pass 3: SharedFs frames stranded by writes the crash interrupted.
    out.fsFramesReclaimed = fabric_->sharedFs().reclaimOrphans();

    // Pass 4: coherence directory cleanup. The dead node's unflushed
    // stores are discarded whole and its sharer/ownership entries
    // dropped, so survivors keep observing the last *published* token
    // and never a torn or half-flushed one.
    if (cxl::CoherenceDirectory *dir = fabric_->coherence())
        dir->onNodeCrash(n, clock);

    const uint64_t usedAfter = machine_->usedFrames();
    out.framesReclaimed =
        usedBefore > usedAfter ? usedBefore - usedAfter : 0;
    // Returning a frame updates its allocator free list on the device.
    clock.advance(costs.cxlWrite(64) * double(out.framesReclaimed));

    out.recoveryTime = clock.now() - start;
    span.attr("orphans_scanned", out.orphansScanned)
        .attr("orphans_completed", out.orphansCompleted)
        .attr("orphans_reclaimed", out.orphansReclaimed)
        .attr("frames_reclaimed", out.framesReclaimed);

    sim::MetricsRegistry &m = machine_->metrics();
    m.counter("porter.recovery.passes").inc();
    m.counter("porter.recovery.orphans_completed").inc(out.orphansCompleted);
    m.counter("porter.recovery.orphans_reclaimed").inc(out.orphansReclaimed);
    m.counter("porter.recovery.frames_reclaimed").inc(out.framesReclaimed);
    machine_->faults().noteRecovery(out.orphansReclaimed,
                                    out.orphansCompleted);
    return out;
}

uint64_t
Cluster::reclaimDamaged(mem::NodeId n, mem::PhysAddr lostFrame)
{
    os::NodeOs &self = node(n);
    sim::SimClock &clock = self.clock();
    const sim::CostParams &costs = machine_->costs();

    // The scan asks every live handle whether it pins the dead frame;
    // each journal record read back is a fabric transaction.
    std::vector<cxl::Cid> damaged;
    checkpoints_.forEachJournal(
        [&](cxl::Cid cid, const cxl::JournalRecord &) {
            auto h = checkpoints_.get(cid);
            if (h && h->referencesFrame(lostFrame))
                damaged.push_back(cid);
        });
    for (cxl::Cid cid : damaged) {
        machine_->cxlTransaction(clock, "journal reclaim damaged", n);
        clock.advance(costs.cxlRead(rfork::kJournalRecordBytes) +
                      costs.cxlWrite(rfork::kJournalRecordBytes));
        checkpoints_.reclaim(cid);
    }
    if (!damaged.empty()) {
        machine_->metrics()
            .counter("porter.recovery.damaged_reclaimed")
            .inc(damaged.size());
    }
    return uint64_t(damaged.size());
}

HeartbeatReport
Cluster::heartbeatTick()
{
    HeartbeatReport out;
    for (mem::NodeId n = 0; n < numNodes(); ++n) {
        if (health_[n].quarantined)
            continue;
        sim::SimClock &clock = node(n).clock();
        bool missed = false;
        try {
            // A control-plane probe: null target address, so the link
            // model routes it over the node's domain-0 path. The probe
            // itself is one fabric round trip.
            machine_->cxlTransaction(clock, "heartbeat probe", n);
            clock.advance(machine_->costs().cxlLatency);
        } catch (const sim::FabricPartitionError &) {
            missed = true;
        } catch (const sim::TransientFaultError &) {
            missed = true;
        }
        ++out.probes;
        if (!missed) {
            health_[n].missedProbes = 0;
            continue;
        }
        ++out.misses;
        if (++health_[n].missedProbes >= cfg_.heartbeatK) {
            quarantineNode(n);
            out.newlyQuarantined.push_back(n);
        }
    }
    return out;
}

void
Cluster::quarantineNode(mem::NodeId n)
{
    NodeHealth &h = health_.at(n);
    if (h.quarantined)
        return;
    h.quarantined = true;
    // The fence itself: everything node n staged before the partition
    // now carries a stale epoch, so a zombie publish after the link
    // heals is rejected instead of clobbering what the survivors
    // published in the meantime.
    const uint64_t epoch = checkpoints_.bumpEpoch(n);
    machine_->metrics().counter("cxl.partition.quarantines").inc();
    CXLF_DEBUG("cluster: node %u quarantined (epoch now %llu)", n,
               (unsigned long long)epoch);
}

NodeRecovery
Cluster::rejoinNode(mem::NodeId n)
{
    NodeRecovery rec = recoverNode(n);
    NodeHealth &h = health_.at(n);
    h.missedProbes = 0;
    h.quarantined = false;
    machine_->metrics().counter("cxl.partition.rejoins").inc();
    return rec;
}

} // namespace cxlfork::porter
