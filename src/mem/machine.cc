#include "machine.hh"

#include "sim/error.hh"
#include "sim/log.hh"

namespace cxlfork::mem {

Machine::Machine(const MachineConfig &cfg)
    : costs_(cfg.costs), injector_(cfg.faults)
{
    if (cfg.numNodes == 0)
        sim::fatal("machine needs at least one node");
    if (cfg.dramPerNodeBytes > kNodeStride)
        sim::fatal("per-node DRAM exceeds the address window");
    if (cfg.cxlCapacityBytes > kCxlBase)
        sim::fatal("CXL capacity exceeds the address window");
    for (uint32_t i = 0; i < cfg.numNodes; ++i) {
        nodeDram_.push_back(std::make_unique<FrameAllocator>(
            sim::format("node%u-dram", i), Tier::LocalDram,
            PhysAddr{(uint64_t(i) + 1) * kNodeStride}, cfg.dramPerNodeBytes));
        llc_.emplace_back(cfg.llcBytes);
    }
    cxl_ = std::make_unique<FrameAllocator>(
        "cxl-device", Tier::Cxl, PhysAddr{kCxlBase}, cfg.cxlCapacityBytes);
    cxl_->setFaultInjector(&injector_);
    // DRAM tiers see the injector too: not for poison draws (those are
    // CXL-only), but so every frame allocation is a crash site for the
    // deterministic enumeration harness.
    for (auto &dram : nodeDram_)
        dram->setFaultInjector(&injector_);
    cxlCapacity_ = cfg.cxlCapacityBytes;
    injector_.attachMetrics(&metrics_);

    cxlTxnCounter_ = &metrics_.counter("mem.cxl.transactions");
    cxlRetryCounter_ = &metrics_.counter("mem.cxl.transient_retries");
    cxlEscalatedCounter_ = &metrics_.counter("mem.cxl.transients_escalated");
    cxlFrameReadCounter_ = &metrics_.counter("mem.cxl.frame_reads");
    dramFrameReadCounter_ = &metrics_.counter("mem.dram.frame_reads");
}

void
Machine::setFaultConfig(const sim::FaultConfig &cfg)
{
    injector_.setConfig(cfg);
}

void
Machine::setCoherence(CoherenceModel *c)
{
    coherence_ = c;
    // The allocator tells the directory about frees directly so a
    // reused CXL frame can never serve the previous tenant's tokens.
    cxl_->setCoherence(c);
}

void
Machine::setPageCodec(PageCodec *c)
{
    codec_ = c;
    // The allocator tells the codec about frees directly so a reused
    // CXL frame can never inherit a previous tenant's codec metadata.
    cxl_->setCodec(c);
}

void
Machine::cxlTransaction(sim::SimClock &clock, const char *site,
                        NodeId node, PhysAddr target, bool isRead)
{
    cxlTxnCounter_->inc();
    // Every fabric transaction is a crash site: the issuing node can
    // die before the transaction commits. Free when crash mode is off.
    injector_.crashPoint(site);
    // Link health before the transient ladder: a severed path cannot
    // carry the transaction at all, so transient retries over it would
    // be fiction. Only node-attributed traffic crosses a node's link.
    if (link_ && node != kInvalidNode)
        link_->onTransaction(node, target, isRead, clock, site);
    // Queue behind the link model: a transaction a severed link cannot
    // carry never occupies the device port, and a degraded link's extra
    // wire latency is charged before the port sees the arrival. Null
    // targets are control-plane messages (cacheline-sized); addressed
    // traffic moves a page.
    if (queue_) {
        queue_->onTransaction(node, target, isRead,
                              target.isNull() ? costs_.cachelineSize
                                              : costs_.pageSize,
                              clock, site);
    }
    if (!injector_.armed())
        return;
    // The generic retry policy: bounded attempts with exponential
    // backoff, optional seeded jitter, optional per-op time budget.
    // With jitter and budget at their zero defaults the schedule draws
    // nothing extra and charges the exact pre-policy delay sequence.
    sim::BackoffSchedule sched(injector_.config().retryPolicy());
    while (injector_.drawTransient()) {
        const std::optional<sim::SimTime> delay =
            sched.next(&injector_.backoffRng());
        if (!delay) {
            injector_.noteTransientEscalated();
            cxlEscalatedCounter_->inc();
            if (sched.budgetExhausted()) {
                throw sim::TransientFaultError(sim::format(
                    "CXL transaction at %s failed %u times; op budget "
                    "%s exhausted after %s of backoff",
                    site, sched.retries() + 1,
                    injector_.config().opBudget.toString().c_str(),
                    sched.spent().toString().c_str()));
            }
            throw sim::TransientFaultError(sim::format(
                "CXL transaction at %s failed %u times (budget %u)", site,
                sched.retries() + 1, injector_.config().maxRetries));
        }
        // Retry after backoff, in simulated time; the next draw decides
        // whether the retry itself fails.
        clock.advance(*delay);
        injector_.noteTransientRetried();
        cxlRetryCounter_->inc();
    }
}

uint64_t
Machine::readFrameChecked(PhysAddr addr, sim::SimClock &clock,
                          const char *site, NodeId node)
{
    const Frame &f = frame(addr);
    if (f.poisoned) {
        // The repair ladder's first rung: a RAS manager, when
        // installed, gets one chance to rebuild the frame from a
        // replica before the loss escalates.
        if (!repairer_ || !repairer_->repairPoisoned(addr, clock, site)) {
            throw sim::PoisonedFrameError(
                sim::format("poisoned frame %#llx read at %s (data lost)",
                            (unsigned long long)addr.raw, site),
                originOf(addr));
        }
        CXLF_ASSERT(!f.poisoned);
    }
    if (tierOf(addr) == Tier::Cxl) {
        cxlFrameReadCounter_->inc();
        cxlTransaction(clock, site, node, addr, /*isRead=*/true);
        if (codec_)
            codec_->onMaterialize(addr, clock);
    } else {
        dramFrameReadCounter_->inc();
    }
    return f.content;
}

void
Machine::noOwner(PhysAddr addr)
{
    sim::panic("physical address %#llx belongs to no tier",
               (unsigned long long)addr.raw);
}

} // namespace cxlfork::mem
