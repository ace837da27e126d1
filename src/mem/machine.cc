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
Machine::setFaultDomains(uint32_t domains)
{
    if (domains == 0)
        sim::fatal("the CXL device needs at least one fault domain");
    // A built repair, link or queue stage has sized its tables by the
    // count it read.
    CXLF_ASSERT(domains == striping_.domains() ||
                (!stages_[size_t(StageKind::Repair)] &&
                 !stages_[size_t(StageKind::Link)] &&
                 !stages_[size_t(StageKind::Queue)]));
    striping_ = DomainStriping(domains);
}

void
Machine::installStage(StageKind kind, FabricStage *stage)
{
    stages_[size_t(kind)] = stage;
    // The transaction list, in pipeline order. A severed link never
    // reaches the device port, and a degraded link's extra wire latency
    // is charged before the port sees the arrival.
    txnStages_ = 0;
    for (StageKind k : {StageKind::Link, StageKind::Queue}) {
        if (FabricStage *s = stages_[size_t(k)])
            txnList_[txnStages_++] = s;
    }
    // The allocator tells the codec about frees directly so a reused
    // CXL frame can never inherit a previous tenant's codec metadata.
    cxl_->setFreeHooks(coherence_, stages_[size_t(StageKind::Codec)]);
}

void
Machine::installCoherence(CoherenceModel *c)
{
    coherence_ = c;
    // The allocator tells the directory about frees directly so a
    // reused CXL frame can never serve the previous tenant's tokens.
    cxl_->setFreeHooks(coherence_, stages_[size_t(StageKind::Codec)]);
}

void
Machine::runTransaction(Txn &t)
{
    for (uint32_t i = 0; i < txnStages_; ++i)
        txnList_[i]->onTxn(t);
    if (!injector_.armed())
        return;
    fabricWork_.retryDraws += injector_.config().cxlTransientRate > 0.0;
    if (injector_.drawTransient()) [[unlikely]]
        retryLadder(t);
}

void
Machine::retryLadder(Txn &t)
{
    // The generic retry policy: bounded attempts with exponential
    // backoff, optional seeded jitter, optional per-op time budget.
    // With jitter and budget at their zero defaults the schedule draws
    // nothing extra and charges the exact pre-policy delay sequence.
    sim::BackoffSchedule sched(injector_.config().retryPolicy());
    do {
        const std::optional<sim::SimTime> delay =
            sched.next(&injector_.backoffRng());
        if (!delay) {
            injector_.noteTransientEscalated();
            cxlEscalatedCounter_->inc();
            if (sched.budgetExhausted()) {
                throw sim::TransientFaultError(sim::format(
                    "CXL transaction at %s failed %u times; op budget "
                    "%s exhausted after %s of backoff",
                    t.site, sched.retries() + 1,
                    injector_.config().opBudget.toString().c_str(),
                    sched.spent().toString().c_str()));
            }
            throw sim::TransientFaultError(sim::format(
                "CXL transaction at %s failed %u times (budget %u)",
                t.site, sched.retries() + 1,
                injector_.config().maxRetries));
        }
        // Retry after backoff, in simulated time; the next draw decides
        // whether the retry itself fails.
        t.clock.advance(*delay);
        injector_.noteTransientRetried();
        cxlRetryCounter_->inc();
        ++fabricWork_.retryDraws;
    } while (injector_.drawTransient());
}

void
Machine::repairOrThrow(Txn &t, const Frame &f)
{
    // The repair ladder's first rung: a repair stage, when installed,
    // gets one chance to rebuild a CXL frame from a replica before the
    // loss escalates. DRAM frames are outside the RAS domain.
    FabricStage *repair = stages_[size_t(StageKind::Repair)];
    if (repair && tierOf(t.target) == Tier::Cxl)
        repair->onTxn(t);
    if (f.poisoned) {
        throw sim::PoisonedFrameError(
            sim::format("poisoned frame %#llx read at %s (data lost)",
                        (unsigned long long)t.target.raw, t.site),
            originOf(t.target));
    }
}

uint64_t
Machine::readFrameChecked(PhysAddr addr, sim::SimClock &clock,
                          const char *site, NodeId node)
{
    const Frame &f = frame(addr);
    if (f.poisoned) [[unlikely]] {
        Txn t = makeTxn(clock, site, node, addr, /*isRead=*/true, true);
        repairOrThrow(t, f);
    }
    if (tierOf(addr) != Tier::Cxl) {
        dramFrameReadCounter_->inc();
        return f.content;
    }
    cxlFrameReadCounter_->inc();
    cxlTxnCounter_->inc();
    injector_.crashPoint(site);
    FabricStage *codec = stages_[size_t(StageKind::Codec)];
    const bool transact = txnStages_ != 0 || injector_.armed();
    if (transact || codec) {
        Txn t = makeTxn(clock, site, node, addr, /*isRead=*/true, true);
        if (transact)
            runTransaction(t);
        if (codec)
            codec->onTxn(t);
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
