/**
 * @file
 * The simulated machine: N compute nodes, each with private DRAM and an
 * LLC, all attached to one shared CXL memory device.
 *
 * This models the paper's platform (two VMs on a dual-socket Sapphire
 * Rapids host sharing an Agilex FPGA CXL device), generalized to N
 * nodes. Physical tiers occupy disjoint ranges of a flat 64-bit
 * address space, so any PhysAddr resolves to its tier.
 */

#pragma once

#include <memory>
#include <vector>

#include "cache.hh"
#include "fabric_stage.hh"
#include "frame_allocator.hh"
#include "sim/clock.hh"
#include "sim/cost_model.hh"
#include "sim/error.hh"
#include "sim/fault_injector.hh"
#include "sim/log.hh"
#include "sim/metrics.hh"
#include "sim/trace.hh"
#include "types.hh"

namespace cxlfork::mem {

/**
 * Fabric coherence hook. When installed (by the CXL fabric's
 * CoherenceDirectory) every CXL-tier frame access routed through
 * Machine::readFrame/writeFrame consults the directory, which tracks
 * per-line MESI state, charges coherence traffic to the accessing
 * node's clock, and — in software-coherency (HDM-D) mode — decides
 * which content token the reader actually observes. Defined here — not
 * in cxl — because mem cannot depend on the cxl layer. Unlike the
 * pipeline's stages (fabric_stage.hh) the directory is consulted by
 * node reads and writes, not by transactions, so it keeps its own
 * interface.
 *
 * Null by default: with no model installed the fabric is magically
 * coherent and every access behaves exactly as before this hook
 * existed (no extra time, no extra counters).
 */
class CoherenceModel
{
  public:
    virtual ~CoherenceModel() = default;

    /**
     * Node `n` reads the line at `addr` whose device copy currently
     * holds `deviceContent`. @return the content token the node
     * observes — `deviceContent` under hardware coherence, possibly a
     * stale token under software coherence.
     */
    virtual uint64_t read(PhysAddr addr, NodeId n, uint64_t deviceContent,
                          sim::SimClock &clock, const char *site) = 0;

    /**
     * Node `n` stored `newContent` over a line that previously held
     * `oldContent` (the device copy is already updated by the caller).
     */
    virtual void write(PhysAddr addr, NodeId n, uint64_t newContent,
                       uint64_t oldContent, sim::SimClock &clock) = 0;

    /** Node `n` flushes its dirty data for the line to the device. */
    virtual void flush(PhysAddr addr, NodeId n, sim::SimClock &clock) = 0;

    /** Node `n` invalidates its cached copy (next read refetches). */
    virtual void invalidate(PhysAddr addr, NodeId n,
                            sim::SimClock &clock) = 0;

    /**
     * Node `n` dropped its mapping of the line (unmap / CoW break /
     * migration): leave the sharer set, discarding any unflushed data.
     */
    virtual void evict(PhysAddr addr, NodeId n, sim::SimClock &clock) = 0;

    /**
     * The frame was freed (refcount hit zero). The directory resets
     * the line so a reused frame can never serve a previous tenant's
     * tokens — the shootdown-before-reuse guarantee.
     */
    virtual void lineFreed(PhysAddr addr) = 0;
};

/** Machine construction parameters. */
struct MachineConfig
{
    uint32_t numNodes = 2;
    uint64_t dramPerNodeBytes = gib(8);
    uint64_t cxlCapacityBytes = gib(16);  ///< Paper: 16 GB DDR4 DIMM.
    uint64_t llcBytes = mib(64);          ///< Paper: 64 MB L3 per socket.
    sim::CostParams costs;
    sim::FaultConfig faults;              ///< All rates zero by default.
};

/** The N-node CXL-interconnected machine. */
class Machine
{
  public:
    /**
     * Disjoint, page-aligned physical windows. Node i's DRAM begins at
     * (i + 1) * 256 GB; the CXL device sits at 16 TB. Address 0 is
     * never handed out, so PhysAddr{0} can mean "null". The fixed
     * stride makes address→owner resolution pure arithmetic.
     */
    static constexpr uint64_t kNodeStride = 1ull << 38;
    static constexpr uint64_t kCxlBase = 1ull << 44;

    explicit Machine(const MachineConfig &cfg);

    Machine(const Machine &) = delete;
    Machine &operator=(const Machine &) = delete;

    uint32_t numNodes() const { return uint32_t(nodeDram_.size()); }

    FrameAllocator &nodeDram(NodeId n) { return *nodeDram_.at(n); }
    const FrameAllocator &nodeDram(NodeId n) const { return *nodeDram_.at(n); }

    FrameAllocator &cxl() { return *cxl_; }
    const FrameAllocator &cxl() const { return *cxl_; }

    /** Frames in use on the CXL device plus every node's DRAM. */
    uint64_t
    usedFrames() const
    {
        uint64_t used = cxl_->usedFrames();
        for (const auto &dram : nodeDram_)
            used += dram->usedFrames();
        return used;
    }

    CacheModel &llc(NodeId n) { return llc_.at(n); }
    const CacheModel &llc(NodeId n) const { return llc_.at(n); }

    const sim::CostParams &costs() const { return costs_; }

    /** The machine-wide fault injector (device-level failure model). */
    sim::FaultInjector &faults() { return injector_; }
    const sim::FaultInjector &faults() const { return injector_; }

    /**
     * The machine-wide span tracer, disabled by default. Mutable
     * through const Machine references: observation is not machine
     * state, and most instrumentation sites only hold const access.
     */
    sim::Tracer &tracer() const { return tracer_; }

    /** The machine-wide metrics registry (same const-ness rationale). */
    sim::MetricsRegistry &metrics() const { return metrics_; }

    /** Host work tallies of the fabric layers (same rationale). */
    FabricWork &fabricWork() const { return fabricWork_; }

    /** Reconfigure injection; re-arms the CXL allocator's poison hook. */
    void setFaultConfig(const sim::FaultConfig &cfg);

    /**
     * Stripe the CXL device over `domains` fault domains (one until
     * set): frame i lives in domain i mod domains. The machine computes
     * each transaction's domain from this once, and the fabric
     * topology the layers read is a view of it, so it is set before
     * any stage that reads domains (repair, link, queue) is built.
     */
    void setFaultDomains(uint32_t domains);
    uint32_t faultDomains() const { return striping_.domains(); }

    /** Fault domain of a CXL frame number. */
    uint32_t domainOfFrame(uint32_t frame) const
    {
        return striping_.domainOf(frame);
    }

    /**
     * Arm (or, with nullptr, disarm) the pipeline stage of one kind and
     * rebuild the stage lists (fabric_stage.hh). Nothing is installed
     * by default: the lists are empty and every path is bit-identical
     * to a machine without fabric layers.
     */
    void installStage(StageKind kind, FabricStage *stage);
    FabricStage *stage(StageKind kind) const
    {
        return stages_[size_t(kind)];
    }

    /**
     * Install (or clear, with nullptr) the fabric coherence model that
     * readFrame/writeFrame consult on CXL-tier accesses. Null by
     * default: the fabric stays magically coherent and every access
     * path is bit-identical to the pre-coherence tree.
     */
    void installCoherence(CoherenceModel *c);
    CoherenceModel *coherence() const { return coherence_; }

    /**
     * Node-attributed read of a frame's content token: the failure
     * model of readFrameChecked plus, when a coherence model is
     * installed and the frame is on the CXL tier, the directory's view
     * of what node `n` observes (which may be stale under HDM-D).
     */
    uint64_t
    readFrame(PhysAddr addr, NodeId n, sim::SimClock &clock,
              const char *site)
    {
        uint64_t content = readFrameChecked(addr, clock, site, n);
        if (coherence_ && tierOf(addr) == Tier::Cxl)
            content = coherence_->read(addr, n, content, clock, site);
        return content;
    }

    /**
     * Coherence-only observation of a CXL frame: what node `n` sees
     * through the directory, without the checked-read fabric
     * accounting. For access paths that exist *only because* the
     * directory is armed (leaf attach walks, one-shot image scans) —
     * they must move nothing but simulated time and the
     * cxl.coherence.* counters, or the directory-on counter stream
     * diverges from the directory-off baseline the oracle compares
     * against. Returns the device token when no model is installed.
     */
    uint64_t
    touchFrame(PhysAddr addr, NodeId n, sim::SimClock &clock,
               const char *site)
    {
        uint64_t content = frame(addr).content;
        if (coherence_ && tierOf(addr) == Tier::Cxl)
            content = coherence_->read(addr, n, content, clock, site);
        return content;
    }

    /**
     * Node-attributed store of a frame's content token. The device
     * copy always takes the new token (Frame::content stays the source
     * of truth for dedup and checksums); the directory decides what
     * *other* nodes observe and charges back-invalidations.
     */
    void
    writeFrame(PhysAddr addr, NodeId n, uint64_t content,
               sim::SimClock &clock)
    {
        Frame &f = frame(addr);
        const uint64_t old = f.content;
        f.content = content;
        if (coherence_ && tierOf(addr) == Tier::Cxl)
            coherence_->write(addr, n, content, old, clock);
    }

    /**
     * Publish a freshly written CXL frame: models the checkpoint
     * paths' non-temporal store stream plus the trailing fence. The
     * stale value for an unpublished fresh frame is the zero token (a
     * frame starts life zeroed), so under HDM-D an elided publish is
     * observable as reads of 0. No-op without a coherence model.
     */
    void
    publishFrame(PhysAddr addr, NodeId n, sim::SimClock &clock)
    {
        if (coherence_ && tierOf(addr) == Tier::Cxl) {
            coherence_->write(addr, n, frame(addr).content, 0, clock);
            coherence_->flush(addr, n, clock);
        }
    }

    /** Software flush of node `n`'s dirty data for a CXL line. */
    void
    flushFrame(PhysAddr addr, NodeId n, sim::SimClock &clock)
    {
        if (coherence_ && tierOf(addr) == Tier::Cxl)
            coherence_->flush(addr, n, clock);
    }

    /** Software invalidate of node `n`'s cached copy of a CXL line. */
    void
    invalidateFrame(PhysAddr addr, NodeId n, sim::SimClock &clock)
    {
        if (coherence_ && tierOf(addr) == Tier::Cxl)
            coherence_->invalidate(addr, n, clock);
    }

    /** Node `n` dropped its mapping of a CXL line (unmap/CoW/migrate). */
    void
    evictFrame(PhysAddr addr, NodeId n, sim::SimClock &clock)
    {
        if (coherence_ && tierOf(addr) == Tier::Cxl)
            coherence_->evict(addr, n, clock);
    }

    /**
     * The FaultOrigin for a frame address: the address itself plus the
     * owning node derived from the window layout (kCxlDevice for the
     * shared device). Used by throw sites and by RAS diagnostics.
     */
    sim::FaultOrigin
    originOf(PhysAddr addr) const
    {
        sim::FaultOrigin o;
        o.frameAddr = addr.raw;
        o.node = tierOf(addr) == Tier::Cxl
                     ? sim::FaultOrigin::kCxlDevice
                     : uint32_t(addr.raw / kNodeStride - 1);
        return o;
    }

    /**
     * Model one CXL transaction (a page copy or bulk store): mint a
     * crash site, then run the pipeline's transaction list: link ->
     * queue -> retry. The link stage applies node `node`'s link state
     * (degraded latency, severed -> sim::FabricPartitionError);
     * kInvalidNode bypasses it, as device-internal traffic crosses no
     * node's link. The queue charges the port's queueing delay. The
     * retry ladder, whenever injection is armed, retries transient
     * errors with exponential backoff charged to `clock` and throws
     * sim::TransientFaultError once the budget is exhausted. `target`
     * names the device address the transaction is headed for: it
     * selects the fault domain, and for reads (`isRead`) it enables
     * the link's replica-reroute rung; a null target is control-plane
     * traffic on domain 0. With no stage installed and injection
     * disarmed, nothing but the crash site and the count happens.
     */
    void
    cxlTransaction(sim::SimClock &clock, const char *site,
                   NodeId node = kInvalidNode, PhysAddr target = PhysAddr{},
                   bool isRead = false)
    {
        cxlTxnCounter_->inc();
        injector_.crashPoint(site);
        if (txnStages_ != 0 || injector_.armed()) {
            Txn t = makeTxn(clock, site, node, target, isRead, true);
            runTransaction(t);
        }
    }

    /**
     * Charge one transaction's port occupancy and nothing else: the
     * pipeline's port list (the queue stage) runs with no crash site,
     * no link check and no transient draw. For traffic already counted
     * by another path that still occupies the device port: the
     * coherence directory's control messages, the CRIU bulk image read
     * and a checkpoint page migration. A no-op without a queue.
     */
    void
    chargePort(sim::SimClock &clock, const char *site, NodeId node,
               PhysAddr target, bool isRead, uint64_t bytes)
    {
        if (FabricStage *q = stages_[size_t(StageKind::Queue)]) {
            Txn t = makeTxn(clock, site, node, target, isRead, false);
            t.bytes = uint32_t(bytes);
            q->onTxn(t);
        }
    }

    /**
     * Read a frame's content token through the failure model, as the
     * pipeline's checked-read list: repair -> transaction -> codec. A
     * poisoned frame gets the repair stage's one chance to be rebuilt,
     * then machine-checks (sim::PoisonedFrameError) if still poisoned;
     * a CXL-tier read is a transaction, node-attributed when the
     * caller knows the issuing node, and then lets the codec charge a
     * pending decompress.
     */
    uint64_t readFrameChecked(PhysAddr addr, sim::SimClock &clock,
                              const char *site,
                              NodeId node = kInvalidNode);

    /**
     * Which tier an address lives on. Pure window arithmetic: anything
     * inside the CXL window is Tier::Cxl, everything else reads as
     * LocalDram (including unallocated addresses, which some callers
     * probe speculatively).
     */
    Tier
    tierOf(PhysAddr addr) const
    {
        return addr.raw - kCxlBase < cxlCapacity_ ? Tier::Cxl
                                                  : Tier::LocalDram;
    }

    /**
     * The allocator owning an address, derived in O(1) from the window
     * layout. Panics on addresses outside every window.
     */
    FrameAllocator &
    ownerOf(PhysAddr addr)
    {
        if (tierOf(addr) == Tier::Cxl)
            return *cxl_;
        // Node i's DRAM window starts at (i + 1) * kNodeStride, so the
        // owning node index falls straight out of a divide; contains()
        // still guards the capacity edge within the window.
        const uint64_t slot = addr.raw / kNodeStride;
        if (slot >= 1 && slot <= nodeDram_.size()) {
            FrameAllocator &dram = *nodeDram_[slot - 1];
            if (dram.contains(addr))
                return dram;
        }
        noOwner(addr);
    }

    /** Frame metadata for any allocated address. */
    Frame &frame(PhysAddr addr) { return ownerOf(addr).frame(addr); }

    /** Raw access round-trip latency from any node to an address. */
    sim::SimTime
    accessLatency(PhysAddr addr) const
    {
        return tierOf(addr) == Tier::Cxl ? costs_.cxlLatency
                                         : costs_.dramLatency;
    }

    /** CXL device-relative offset for rebasing (paper Sec. 4.1 step 7). */
    uint64_t
    cxlOffsetOf(PhysAddr addr) const
    {
        CXLF_ASSERT(cxl_->contains(addr));
        return addr.raw - cxl_->base().raw;
    }

    PhysAddr
    cxlAddrOf(uint64_t offset) const
    {
        CXLF_ASSERT(offset < cxl_->capacityBytes());
        return PhysAddr{cxl_->base().raw + offset};
    }

    /** Drop a reference on any frame, local or CXL. */
    void putFrame(PhysAddr addr) { ownerOf(addr).decRef(addr); }

    /** Add a reference on any frame. */
    void getFrame(PhysAddr addr) { ownerOf(addr).incRef(addr); }

  private:
    /** ownerOf's panic for an address in no tier's window. */
    [[noreturn]] static void noOwner(PhysAddr addr);

    /** CXL frame number of a device address (no range check). */
    static uint32_t
    cxlFrameOf(PhysAddr addr)
    {
        return uint32_t((addr.raw - kCxlBase) / kPageSize);
    }

    /** The record every stage of one transaction sees. */
    Txn
    makeTxn(sim::SimClock &clock, const char *site, NodeId node,
            PhysAddr target, bool isRead, bool mayCrash) const
    {
        const bool addressed = !target.isNull();
        const uint32_t frame = addressed ? cxlFrameOf(target) : 0;
        return Txn{clock,
                   site,
                   target,
                   frame,
                   addressed ? striping_.domainOf(frame) : 0,
                   node,
                   uint32_t(addressed ? costs_.pageSize
                                      : costs_.cachelineSize),
                   isRead,
                   mayCrash};
    }

    /** The transaction list past the crash site: stages, then retry. */
    void runTransaction(Txn &t);

    /** The retry ladder past a first transient: backoff and redraw
     *  until a draw succeeds or the budget is exhausted. */
    void retryLadder(Txn &t);

    /** A poisoned checked read: the repair stage's chance, or throw. */
    void repairOrThrow(Txn &t, const Frame &f);

    sim::CostParams costs_;
    sim::FaultInjector injector_;
    mutable sim::Tracer tracer_;
    mutable sim::MetricsRegistry metrics_;
    mutable FabricWork fabricWork_;
    std::vector<std::unique_ptr<FrameAllocator>> nodeDram_;
    std::unique_ptr<FrameAllocator> cxl_;
    std::vector<CacheModel> llc_;
    uint64_t cxlCapacity_ = 0;
    CoherenceModel *coherence_ = nullptr;
    /** Installed stages by kind; the lists below are built from them. */
    FabricStage *stages_[kStageKinds] = {};
    /** The transaction list: link, then queue, whichever are armed. */
    FabricStage *txnList_[2] = {};
    uint32_t txnStages_ = 0;
    /** The device's fault domains: the one copy of their count. */
    DomainStriping striping_;

    // Hot-path metric handles, resolved once at construction so the
    // per-transaction cost is a pointer bump instead of a string-keyed
    // map lookup. The registry's std::map storage keeps them stable.
    sim::Counter *cxlTxnCounter_ = nullptr;
    sim::Counter *cxlRetryCounter_ = nullptr;
    sim::Counter *cxlEscalatedCounter_ = nullptr;
    sim::Counter *cxlFrameReadCounter_ = nullptr;
    sim::Counter *dramFrameReadCounter_ = nullptr;
};

} // namespace cxlfork::mem
