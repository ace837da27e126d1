#include "rfork.hh"

#include "sim/error.hh"
#include "sim/log.hh"

namespace cxlfork::rfork {

const char *
restoreErrorName(RestoreError e)
{
    switch (e) {
    case RestoreError::None: return "none";
    case RestoreError::TransientFault: return "transient-fault";
    case RestoreError::CorruptImage: return "corrupt-image";
    case RestoreError::CapacityExhausted: return "capacity-exhausted";
    case RestoreError::ParentNodeFailed: return "parent-node-failed";
    case RestoreError::PoisonedFrame: return "poisoned-frame";
    case RestoreError::MissingFile: return "missing-file";
    case RestoreError::FabricPartition: return "fabric-partition";
    case RestoreError::StaleEpoch: return "stale-epoch";
    case RestoreError::Other: return "other";
    }
    return "?";
}

RestoreError
restoreErrorOf(const sim::SimError &e)
{
    switch (e.errClass()) {
    case sim::ErrClass::TransientCxl: return RestoreError::TransientFault;
    case sim::ErrClass::PoisonedFrame: return RestoreError::PoisonedFrame;
    case sim::ErrClass::CapacityExhausted:
        return RestoreError::CapacityExhausted;
    case sim::ErrClass::CorruptImage: return RestoreError::CorruptImage;
    case sim::ErrClass::NodeFailed: return RestoreError::ParentNodeFailed;
    // A crash of the restoring node itself is never retryable on that
    // node; the caller must pick another node (or recover this one).
    case sim::ErrClass::NodeCrashed: return RestoreError::Other;
    case sim::ErrClass::FabricPartition:
        return RestoreError::FabricPartition;
    case sim::ErrClass::StaleEpoch: return RestoreError::StaleEpoch;
    }
    return RestoreError::Other;
}

MechanismMetrics::MechanismMetrics(sim::MetricsRegistry &m,
                                   const std::string &key)
    : checkpoints(&m.counter("rfork." + key + ".checkpoints")),
      checkpointNs(&m.latency("rfork." + key + ".checkpoint_ns")),
      restores(&m.counter("rfork." + key + ".restores")),
      restoreFailed(&m.counter("rfork." + key + ".restore_failed")),
      restoreNs(&m.latency("rfork." + key + ".restore_ns"))
{}

void
RemoteForkMechanism::stageHandle(
    const std::shared_ptr<CheckpointHandle> &handle, os::NodeOs &node)
{
    if (!pubCtx_)
        return; // plain checkpoint(): no store, no cost, no crash sites
    CXLF_ASSERT(pubCtx_->stagedCid == 0);
    mem::Machine &machine = node.machine();
    // Writing the STAGED journal record is itself a fabric transaction
    // (and therefore a crash site); a crash before it commits leaves
    // nothing behind, a crash after it leaves a discoverable orphan.
    machine.faults().crashPoint("journal.stage");
    machine.cxlTransaction(node.clock(), "journal stage", node.id());
    node.clock().advance(machine.costs().cxlWrite(kJournalRecordBytes));
    pubCtx_->stagedCid = pubCtx_->store->stage(
        pubCtx_->id->user, pubCtx_->id->function, handle, node.id());
    if (pubCtx_->policy == PublishPolicy::DirectPutUnsafe) {
        // Legacy put(): visible to lookup() before a single page was
        // copied. The crash harness proves why this is wrong.
        pubCtx_->store->publish(pubCtx_->stagedCid);
    }
    machine.faults().crashPoint("journal.staged");
}

void
RemoteForkMechanism::manifestPage(os::NodeOs &node, mem::PhysAddr addr)
{
    if (!pubCtx_ || pubCtx_->stagedCid == 0)
        return; // plain checkpoint(): images own their frames outright
    // appendManifest() refuses for PUBLISHED records (DirectPutUnsafe
    // published at stage time) and journals without a releaser; a pin
    // is taken only when its release is guaranteed.
    if (pubCtx_->store->appendManifest(pubCtx_->stagedCid, addr.raw))
        node.machine().cxl().incRef(addr);
}

PublishedCheckpoint
RemoteForkMechanism::checkpointPublished(
    CheckpointStore &store, const PublishIdentity &id, os::NodeOs &node,
    os::Task &parent, CheckpointStats *stats, PublishPolicy policy)
{
    CXLF_ASSERT(pubCtx_ == nullptr);
    PublishContext ctx;
    ctx.store = &store;
    ctx.id = &id;
    ctx.policy = policy;
    pubCtx_ = &ctx;

    PublishedCheckpoint out;
    try {
        out.handle = checkpoint(node, parent, stats);
    } catch (...) {
        pubCtx_ = nullptr;
        throw;
    }
    pubCtx_ = nullptr;
    if (ctx.stagedCid == 0) {
        // The mechanism never staged (a mechanism added without a
        // stageHandle call): fall back to an atomic put so the image
        // is at least never half-published.
        ctx.stagedCid = store.put(id.user, id.function, out.handle,
                                  node.id());
        out.cid = ctx.stagedCid;
        return out;
    }

    if (policy == PublishPolicy::TwoPhase) {
        mem::Machine &machine = node.machine();
        // The publish step: one more journal write flips the tuple's
        // lookup entry. Crash before it -> STAGED orphan (recovery
        // completes or reclaims it); crash after it -> the published,
        // fully-built image survives the node.
        machine.faults().crashPoint("journal.publish");
        machine.cxlTransaction(node.clock(), "journal publish", node.id());
        node.clock().advance(machine.costs().cxlWrite(kJournalRecordBytes));
        const cxl::PublishResult pr = store.publish(ctx.stagedCid);
        if (pr == cxl::PublishResult::StaleEpoch) {
            // The epoch fence refused: this node was quarantined (and
            // possibly returned) after staging. The record stays
            // STAGED for recovery to reclaim; surface the refusal as a
            // typed error so the caller rejoins instead of retrying.
            sim::FaultOrigin origin;
            origin.node = node.id();
            origin.cid = ctx.stagedCid;
            throw sim::StaleEpochError(
                sim::format("publish of cid %llu fenced off: node %u "
                            "staged at epoch %llu but the fence is at "
                            "%llu (node was quarantined)",
                            (unsigned long long)ctx.stagedCid, node.id(),
                            (unsigned long long)store
                                .journalRecord(ctx.stagedCid)
                                ->epoch,
                            (unsigned long long)store.epochOf(node.id())),
                origin);
        }
        machine.faults().crashPoint("journal.published");
    }
    out.cid = ctx.stagedCid;
    return out;
}

RestoreOutcome
RemoteForkMechanism::tryRestore(
    const std::shared_ptr<CheckpointHandle> &handle, os::NodeOs &target,
    const RestoreOptions &opts, const RestoreRetryPolicy &policy,
    RestoreStats *stats)
{
    RestoreOutcome out;
    if (!handle) {
        out.error = RestoreError::MissingFile;
        out.message = "null checkpoint handle";
        return out;
    }

    sim::SimTime backoff = policy.backoff;
    sim::BackoffSchedule partitionSched(policy.partition);
    for (uint32_t attempt = 0;; ++attempt) {
        try {
            // Fetching the handle's journal record is itself a fabric
            // read, so with a link stage installed every attempt is
            // exposed to partition weather before mechanism-specific
            // work starts. Without a link stage the charge stays
            // folded into the mechanism's own costs.
            if (target.machine().stage(mem::StageKind::Link))
                target.machine().cxlTransaction(
                    target.clock(), "restore attach", target.id());
            out.task = restore(handle, target, opts, stats);
            out.error = RestoreError::None;
            return out;
        } catch (const sim::SimError &e) {
            out.error = restoreErrorOf(e);
            out.message = e.what();
            out.origin = e.origin();
            if (out.error == RestoreError::FabricPartition) {
                // The partition rung: a flapped link may heal, so the
                // restore is re-attempted on the partition backoff
                // schedule (count- and budget-bounded). Exhaustion
                // hands the typed outcome to the caller's next rungs
                // (failover to a warm node, then cold start).
                const std::optional<sim::SimTime> delay =
                    partitionSched.next(
                        &target.machine().faults().backoffRng());
                if (!delay)
                    return out;
                target.clock().advance(*delay);
                ++out.retries;
                CXLF_DEBUG("%s: restore partitioned (%s), retry %u "
                           "after backoff",
                           name(), e.what(), partitionSched.retries());
                continue;
            }
            // Only transients are worth re-running the same restore on
            // the same node; everything else needs a different
            // checkpoint or a different node, which is the caller's
            // (e.g. the autoscaler's) decision.
            if (out.error != RestoreError::TransientFault ||
                attempt >= policy.maxRetries)
                return out;
            target.clock().advance(backoff);
            backoff = backoff * policy.backoffMultiplier;
            ++out.retries;
            CXLF_DEBUG("%s: restore attempt %u failed (%s), retrying",
                       name(), attempt + 1, e.what());
        }
    }
}

} // namespace cxlfork::rfork
