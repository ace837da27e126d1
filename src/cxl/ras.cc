#include "ras.hh"

#include <algorithm>
#include <bit>

#include "page_store.hh"
#include "sim/crc32.hh"
#include "sim/log.hh"

namespace cxlfork::cxl {

using mem::kPageSize;

RasManager::RasManager(mem::Machine &machine, PageStore &store,
                       const FabricTopology &topology, RasConfig cfg)
    : machine_(machine), store_(store), topology_(topology), cfg_(cfg)
{
    if (!cfg_.enabled)
        return;
    // The domains holding a page's copies are tracked as one mask.
    if (topology_.domains() > 64)
        sim::fatal("RasManager: at most 64 fault domains (got %u)",
                   topology_.domains());
    // Counters exist only when the layer is on: a disabled manager
    // leaves the metrics export byte-identical to a pre-RAS tree.
    sim::MetricsRegistry &m = machine_.metrics();
    replicasWrittenCounter_ = &m.counter("cxl.ras.replicas_written");
    repairsCounter_ = &m.counter("cxl.ras.repairs");
    rereplicationsCounter_ = &m.counter("cxl.ras.rereplications");
    lostCounter_ = &m.counter("cxl.ras.pages_lost");
    scrubbedCounter_ = &m.counter("cxl.ras.pages_scrubbed");
    writeVerifyCounter_ = &m.counter("cxl.ras.write_verify_failures");
    machine_.installStage(mem::StageKind::Repair, this);
}

RasManager::~RasManager()
{
    for (auto &[raw, rec] : tracked_) {
        for (mem::PhysAddr r : rec.replicas) {
            machine_.cxl().decRef(r);
            --replicaFrames_;
        }
        rec.replicas.clear();
    }
    if (machine_.stage(mem::StageKind::Repair) == this)
        machine_.installStage(mem::StageKind::Repair, nullptr);
}

mem::PhysAddr
RasManager::verifiedAlloc(mem::PhysAddr addr, mem::FrameUse use,
                          uint64_t content, sim::SimClock &clock)
{
    if (!cfg_.enabled)
        return addr;
    const sim::CostParams &costs = machine_.costs();
    mem::FrameAllocator &cxl = machine_.cxl();
    for (uint32_t attempt = 0; attempt < cfg_.writeVerifyRetries; ++attempt) {
        // The post-write verify read of the just-stored page.
        clock.advance(costs.cxlRead(kPageSize));
        if (!cxl.frame(addr).poisoned)
            return addr;
        if (writeVerifyCounter_)
            writeVerifyCounter_->inc();
        // The device latched poison on the store: return the dud and
        // rewrite. The freed frame is retried first (LIFO reuse) with
        // a fresh poison draw, modelling a rewrite of the same line.
        cxl.decRef(addr);
        addr = cxl.alloc(use, content);
        try {
            machine_.cxlTransaction(clock, "ras write-verify rewrite");
        } catch (...) {
            // A crash or escalated transient mid-rewrite aborts the
            // whole intern: release the in-flight frame so the
            // allocator census stays balanced through the unwind.
            cxl.decRef(addr);
            throw;
        }
        clock.advance(costs.cxlWrite(kPageSize));
    }
    return addr; // still poisoned: give up; scrubber/ladder take over
}

void
RasManager::noteInterned(mem::PhysAddr addr, sim::SimClock &clock)
{
    noteShared(addr, clock);
}

void
RasManager::noteShared(mem::PhysAddr addr, sim::SimClock &clock)
{
    if (!cfg_.enabled || cfg_.replicas == 0)
        return;
    if (isTracked(addr)) {
        // Already protected: opportunistically top back up to K (a
        // replica may have died since).
        ensureReplicas(addr, tracked_.at(addr.raw), clock);
        return;
    }
    const mem::Frame &f = machine_.cxl().frame(addr);
    if (f.refcount < cfg_.replicaThreshold)
        return;
    if (f.poisoned)
        return; // nothing healthy to copy; the scrubber will flag it
    ReplicaSet rec;
    rec.content = f.content;
    rec.crc = sim::crc32(&rec.content, sizeof(rec.content));
    // Record first, replicate second: if the replica write crashes
    // mid-transaction, the partially placed replicas are already owned
    // by the tracked record instead of dying with a local temporary.
    auto [slot, inserted] = tracked_.emplace(addr.raw, std::move(rec));
    CXLF_ASSERT(inserted);
    setTracked(addr, true);
    ensureReplicas(addr, slot->second, clock);
}

void
RasManager::notePrimaryFreed(mem::PhysAddr addr)
{
    if (!lost_.empty())
        lost_.erase(addr.raw);
    if (!isTracked(addr))
        return;
    auto it = tracked_.find(addr.raw);
    for (mem::PhysAddr r : it->second.replicas)
        dropReplica(r);
    tracked_.erase(it);
    setTracked(addr, false);
}

bool
RasManager::isTracked(mem::PhysAddr addr) const
{
    const uint64_t i = machine_.cxl().frameNumber(addr);
    return i / 64 < trackedBits_.size() &&
           (trackedBits_[i / 64] >> i % 64 & 1);
}

void
RasManager::setTracked(mem::PhysAddr addr, bool on)
{
    const uint64_t i = machine_.cxl().frameNumber(addr);
    if (i / 64 >= trackedBits_.size())
        trackedBits_.resize(i / 64 + 1, 0);
    const uint64_t bit = uint64_t(1) << i % 64;
    trackedBits_[i / 64] = on ? trackedBits_[i / 64] | bit
                              : trackedBits_[i / 64] & ~bit;
}

uint64_t
RasManager::ensureReplicas(mem::PhysAddr primary, ReplicaSet &rec,
                           sim::SimClock &clock)
{
    const sim::CostParams &costs = machine_.costs();
    mem::FrameAllocator &cxl = machine_.cxl();

    // Drop replicas that died: a poisoned replica protects nothing.
    // Domains holding a live copy are bits of a mask (the topology has
    // at most 64).
    auto bit = [&](mem::PhysAddr a) { return uint64_t(1) << domainOf(a); };
    uint64_t usedDomains = bit(primary);
    size_t kept = 0;
    for (mem::PhysAddr r : rec.replicas) {
        if (cxl.frame(r).poisoned) {
            dropReplica(r);
        } else {
            usedDomains |= bit(r);
            rec.replicas[kept++] = r;
        }
    }
    rec.replicas.resize(kept);

    // Place replacements on domains distinct from every live copy.
    // Candidates on an already-used domain are parked (so the
    // allocator cannot hand them straight back) and returned at the
    // end; once every domain holds a copy the distinctness constraint
    // is provably unsatisfiable and placement falls back to any
    // domain rather than spinning.
    uint64_t written = 0;
    std::vector<mem::PhysAddr> rejects;
    const uint32_t domains = topology_.domains();
    const uint32_t maxCandidates = domains * (cfg_.replicas + 2) + 4;
    uint32_t tried = 0;
    try {
        while (rec.replicas.size() < cfg_.replicas &&
               tried < maxCandidates && cxl.canAlloc(1)) {
            const mem::PhysAddr cand =
                cxl.alloc(mem::FrameUse::Replica, rec.content);
            ++tried;
            const bool domainOk =
                !(usedDomains & bit(cand)) ||
                uint32_t(std::popcount(usedDomains)) >= domains;
            if (!domainOk || cxl.frame(cand).poisoned) {
                rejects.push_back(cand);
                continue;
            }
            // The replica write is a real fabric transaction plus a
            // page of non-temporal stores, charged to the acting
            // clock. A crash or escalated transient here aborts the
            // candidate atomically: it is released on the unwind and
            // every replica already pushed stays owned by `rec`.
            try {
                machine_.cxlTransaction(clock, "ras replicate");
            } catch (...) {
                cxl.decRef(cand);
                throw;
            }
            clock.advance(costs.cxlWrite(kPageSize));
            usedDomains |= bit(cand);
            rec.replicas.push_back(cand);
            ++replicaFrames_;
            peakReplicaFrames_ =
                std::max(peakReplicaFrames_, replicaFrames_);
            ++written;
            if (replicasWrittenCounter_)
                replicasWrittenCounter_->inc();
        }
    } catch (...) {
        for (mem::PhysAddr r : rejects)
            cxl.decRef(r);
        throw;
    }
    for (mem::PhysAddr r : rejects)
        cxl.decRef(r);
    return written;
}

void
RasManager::dropReplica(mem::PhysAddr replica)
{
    machine_.cxl().decRef(replica);
    CXLF_ASSERT(replicaFrames_ > 0);
    --replicaFrames_;
}

void
RasManager::markLost(mem::PhysAddr addr)
{
    if (lost_.insert(addr.raw).second && lostCounter_)
        lostCounter_->inc();
}

bool
RasManager::repairPoisoned(mem::PhysAddr addr, sim::SimClock &clock,
                           const char *site)
{
    (void)site;
    if (!cfg_.enabled)
        return false;
    if (!machine_.cxl().contains(addr))
        return false; // DRAM frames are outside the RAS domain
    auto it = tracked_.find(addr.raw);
    if (it == tracked_.end()) {
        // Unprotected page (below threshold, K == 0, or a metadata
        // frame): nothing to repair from. Record the loss so the
        // cluster can reclaim referencing checkpoints.
        markLost(addr);
        return false;
    }
    ReplicaSet &rec = it->second;
    mem::PhysAddr source{0};
    for (mem::PhysAddr r : rec.replicas) {
        if (!machine_.cxl().frame(r).poisoned) {
            source = r;
            break;
        }
    }
    if (source.raw == 0) {
        markLost(addr);
        return false;
    }

    // Rung 1: rebuild the primary in place from the healthy replica —
    // one fabric transaction moving a page device-to-device.
    const sim::CostParams &costs = machine_.costs();
    machine_.cxlTransaction(clock, "ras repair");
    clock.advance(costs.cxlRead(kPageSize) + costs.cxlWrite(kPageSize));
    machine_.cxl().clearPoison(addr);
    machine_.cxl().frame(addr).content = rec.content;
    ++repairs_;
    if (repairsCounter_)
        repairsCounter_->inc();
    lost_.erase(addr.raw);

    // Rung 2: re-replicate — the poison event may have taken replicas
    // with it, and a repair that leaves the page under-protected just
    // defers the next loss.
    const uint64_t rewritten = ensureReplicas(addr, rec, clock);
    if (rewritten && rereplicationsCounter_)
        rereplicationsCounter_->inc(rewritten);
    return true;
}

ScrubReport
RasManager::scrubStep(sim::SimClock &clock, uint64_t maxPages)
{
    ScrubReport rep;
    if (!cfg_.enabled || tracked_.empty())
        return rep;
    const sim::CostParams &costs = machine_.costs();
    const uint64_t budget =
        std::min<uint64_t>(maxPages ? maxPages : cfg_.scrubBatchPages,
                           tracked_.size());
    auto it = tracked_.lower_bound(scrubCursor_);
    for (uint64_t n = 0; n < budget; ++n) {
        if (it == tracked_.end())
            it = tracked_.begin();
        const mem::PhysAddr primary{it->first};
        ReplicaSet &rec = it->second;
        ++rep.scanned;
        if (scrubbedCounter_)
            scrubbedCounter_->inc();
        // The scrub read of the primary.
        clock.advance(costs.cxlRead(kPageSize));
        mem::Frame &f = machine_.cxl().frame(primary);
        const bool crcBad =
            sim::crc32(&f.content, sizeof(f.content)) != rec.crc;
        if (f.poisoned || crcBad) {
            mem::PhysAddr source{0};
            for (mem::PhysAddr r : rec.replicas) {
                if (!machine_.cxl().frame(r).poisoned) {
                    source = r;
                    break;
                }
            }
            if (source.raw == 0) {
                if (lost_.count(primary.raw) == 0)
                    ++rep.lost;
                markLost(primary);
            } else {
                machine_.cxlTransaction(clock, "ras scrub repair");
                clock.advance(costs.cxlRead(kPageSize) +
                              costs.cxlWrite(kPageSize));
                machine_.cxl().clearPoison(primary);
                f.content = rec.content;
                ++repairs_;
                ++rep.repaired;
                if (repairsCounter_)
                    repairsCounter_->inc();
                lost_.erase(primary.raw);
            }
        }
        // Replica health: every scrubbed page leaves the pass with K
        // healthy copies again (when capacity and domains allow).
        const uint64_t rewritten = ensureReplicas(primary, rec, clock);
        rep.rereplicated += rewritten;
        if (rewritten && rereplicationsCounter_)
            rereplicationsCounter_->inc(rewritten);
        ++it;
    }
    scrubCursor_ = it == tracked_.end() ? 0 : it->first;
    return rep;
}

ScrubReport
RasManager::scrubAll(sim::SimClock &clock)
{
    scrubCursor_ = 0;
    return scrubStep(clock, tracked_.size());
}

RasAudit
RasManager::audit() const
{
    RasAudit out;
    out.protectedPages = tracked_.size();
    auto fail = [&](std::string why) {
        if (out.consistent) {
            out.consistent = false;
            out.detail = "ras: " + why;
        }
    };
    const mem::FrameAllocator &cxl = machine_.cxl();
    uint64_t replicaCount = 0;
    for (const auto &[raw, rec] : tracked_) {
        const mem::PhysAddr primary{raw};
        if (!cxl.contains(primary)) {
            fail(sim::format("protected frame %#llx outside the device",
                             (unsigned long long)raw));
            continue;
        }
        const mem::Frame &pf = cxl.frame(primary);
        if (!pf.allocated() || pf.refcount == 0)
            fail(sim::format("protected frame %#llx is not live",
                             (unsigned long long)raw));
        if (rec.replicas.size() > cfg_.replicas)
            fail(sim::format("frame %#llx holds %zu replicas, K=%u",
                             (unsigned long long)raw, rec.replicas.size(),
                             cfg_.replicas));
        std::set<uint32_t> domains{domainOf(primary)};
        for (mem::PhysAddr r : rec.replicas) {
            ++replicaCount;
            const mem::Frame &rf = cxl.frame(r);
            if (rf.use != mem::FrameUse::Replica)
                fail(sim::format("replica %#llx has use %u",
                                 (unsigned long long)r.raw,
                                 unsigned(rf.use)));
            if (rf.refcount != 1)
                fail(sim::format("replica %#llx has refcount %u, want 1",
                                 (unsigned long long)r.raw, rf.refcount));
            if (!rf.poisoned && rf.content != rec.content)
                fail(sim::format("replica %#llx content diverged",
                                 (unsigned long long)r.raw));
            // Distinctness is only provable while domains outnumber
            // copies; past that the placer legitimately doubles up.
            if (domains.size() < topology_.domains() &&
                !domains.insert(domainOf(r)).second) {
                fail(sim::format("replica %#llx shares a fault domain",
                                 (unsigned long long)r.raw));
            }
        }
    }
    if (replicaCount != replicaFrames_) {
        fail(sim::format("replica census %llu != tracked count %llu",
                         (unsigned long long)replicaCount,
                         (unsigned long long)replicaFrames_));
    }
    return out;
}

} // namespace cxlfork::cxl
