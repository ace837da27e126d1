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
 * Restore-time poison repair hook. The machine's readFrameChecked is
 * the single chokepoint every mechanism's fault and prefetch paths
 * read checkpoint frames through; when a repairer is installed (by the
 * CXL fabric's RAS manager) a poisoned read gets one chance to be
 * repaired in place before the PoisonedFrameError escalates. Defined
 * here — not in cxl — because mem cannot depend on the cxl layer.
 */
class PoisonRepairer
{
  public:
    virtual ~PoisonRepairer() = default;

    /**
     * Try to repair the poisoned frame at `addr` in place, charging
     * repair traffic to `clock`. @return true when the frame is clean
     * and the read may proceed; false when the data is truly lost.
     */
    virtual bool repairPoisoned(PhysAddr addr, sim::SimClock &clock,
                                const char *site) = 0;
};

/**
 * Fabric coherence hook. When installed (by the CXL fabric's
 * CoherenceDirectory) every CXL-tier frame access routed through
 * Machine::readFrame/writeFrame consults the directory, which tracks
 * per-line MESI state, charges coherence traffic to the accessing
 * node's clock, and — in software-coherency (HDM-D) mode — decides
 * which content token the reader actually observes. Defined here — not
 * in cxl — because mem cannot depend on the cxl layer (the same
 * pattern as PoisonRepairer above).
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

/**
 * Compressed-page codec hook. When installed (by the CXL fabric's
 * PageStore with its codec pipeline armed) every checked read of a
 * CXL-tier frame gives the codec a chance to charge the one-time
 * decompress cost of a compressed checkpoint page ("decompress on
 * first materialization"), and the CXL allocator notifies it when a
 * frame frees so codec metadata never outlives the frame. Defined here
 * — not in cxl — because mem cannot depend on the cxl layer (the same
 * pattern as PoisonRepairer above).
 *
 * Null by default: with no codec installed every read path is
 * bit-identical to the uncompressed tree.
 */
class PageCodec
{
  public:
    virtual ~PageCodec() = default;

    /**
     * A checked read is materializing the frame at `addr`; charge any
     * pending decompress latency to `clock`.
     */
    virtual void onMaterialize(PhysAddr addr, sim::SimClock &clock) = 0;

    /** The frame was freed; drop any codec metadata for it. */
    virtual void frameFreed(PhysAddr addr) = 0;
};

/**
 * Fabric link-health hook. When installed (by the CXL fabric's
 * LinkHealth manager) every *node-attributed* fabric transaction routed
 * through Machine::cxlTransaction consults the model, which tracks the
 * per-(node, fault-domain) link state: a degraded link charges extra
 * latency to the issuing node's clock, and a severed link either
 * reroutes the access to a RAS replica on a reachable domain (reads
 * only — the page content is replicated byte-identically) or raises
 * sim::FabricPartitionError. Defined here — not in cxl — because mem
 * cannot depend on the cxl layer (the same pattern as PoisonRepairer).
 *
 * Null by default: with no model installed the fabric is always
 * reachable and every path is bit-identical to the pre-partition tree.
 * Transactions with no issuing node (kInvalidNode — device-internal RAS
 * traffic, tests poking the machine directly) bypass the model: only
 * node-attributed traffic crosses a node's link.
 */
class FabricLinkModel
{
  public:
    virtual ~FabricLinkModel() = default;

    /**
     * Node `n` issues one fabric transaction toward the device domain
     * holding `addr` (a null addr is control-plane traffic — journal
     * records, heartbeat probes — which rides domain 0). Charges
     * degraded-link latency to `clock`; throws
     * sim::FabricPartitionError when the path is severed and, for
     * addressed reads, no replica on a reachable domain can serve it.
     * `isRead` gates the replica-reroute rung: a write through a
     * severed path can never be silently redirected.
     */
    virtual void onTransaction(NodeId n, PhysAddr addr, bool isRead,
                               sim::SimClock &clock, const char *site) = 0;
};

/**
 * Fabric queuing hook. When installed (by the CXL fabric's
 * FabricQueueModel) every transaction routed through
 * Machine::cxlTransaction — and the coherence directory's own control
 * traffic — is enqueued on a simulated-time device-port queue, which
 * charges the issuing clock whatever queueing delay the port's current
 * occupancy implies. Defined here — not in cxl — because mem cannot
 * depend on the cxl layer (the same pattern as PoisonRepairer above).
 *
 * Unlike FabricLinkModel this hook also sees transactions with no
 * issuing node (kInvalidNode): device-internal traffic occupies the
 * shared port like anyone else's, it just rides a distinct issuer so
 * the cross-stream interference accounting stays honest.
 *
 * Null by default: with no queue installed the fabric port has
 * infinite service capacity and every path is bit-identical to the
 * pre-contention tree.
 */
class FabricQueue
{
  public:
    virtual ~FabricQueue() = default;

    /**
     * One fabric transaction of `bytes` payload from node `n` (or
     * kInvalidNode for device-internal traffic) toward `addr` (null =
     * control-plane, domain 0). Charges any queueing delay to `clock`;
     * never throws — a queued transaction is merely late, not lost.
     */
    virtual void onTransaction(NodeId n, PhysAddr addr, bool isRead,
                               uint64_t bytes, sim::SimClock &clock,
                               const char *site) = 0;
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
    sim::CostParams &mutableCosts() { return costs_; }

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

    /** Reconfigure injection; re-arms the CXL allocator's poison hook. */
    void setFaultConfig(const sim::FaultConfig &cfg);

    /**
     * Install (or clear, with nullptr) the poison repair hook that
     * readFrameChecked consults before escalating a poisoned read.
     * Null by default: without a repairer the poisoned path throws
     * exactly as before the RAS layer existed.
     */
    void setPoisonRepairer(PoisonRepairer *r) { repairer_ = r; }
    PoisonRepairer *poisonRepairer() const { return repairer_; }

    /**
     * Install (or clear, with nullptr) the fabric coherence model that
     * readFrame/writeFrame consult on CXL-tier accesses. Also arms the
     * CXL allocator's free-notification hook so frame reuse resets
     * directory lines. Null by default: the fabric stays magically
     * coherent and every access path is bit-identical to the pre-
     * coherence tree.
     */
    void setCoherence(CoherenceModel *c);
    CoherenceModel *coherence() const { return coherence_; }

    /**
     * Install (or clear, with nullptr) the compressed-page codec that
     * readFrameChecked consults on CXL-tier reads. Also arms the CXL
     * allocator's free notification so codec metadata is dropped on
     * frame reuse. Null by default: reads stay bit-identical to the
     * uncompressed tree.
     */
    void setPageCodec(PageCodec *c);
    PageCodec *pageCodec() const { return codec_; }

    /**
     * Install (or clear, with nullptr) the fabric link-health model
     * that node-attributed cxlTransaction calls consult. Null by
     * default: every link is permanently Up and each path is
     * bit-identical to the pre-partition tree.
     */
    void setLinkModel(FabricLinkModel *m) { link_ = m; }
    FabricLinkModel *linkModel() const { return link_; }

    /**
     * Install (or clear, with nullptr) the fabric queuing model that
     * cxlTransaction consults after the link model (a severed path
     * never reaches the device port) and before the transient retry
     * ladder. Null by default: infinite service capacity, every path
     * bit-identical to the pre-contention tree.
     */
    void setFabricQueue(FabricQueue *q) { queue_ = q; }
    FabricQueue *fabricQueue() const { return queue_; }

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
     * Model one CXL transaction (a page copy or bulk store) under
     * injection: transient errors are retried up to the configured
     * budget with exponential backoff charged to `clock`. Throws
     * sim::TransientFaultError once the budget is exhausted. A no-op
     * when injection is disarmed.
     *
     * `node` attributes the transaction to the issuing node so an
     * installed FabricLinkModel can apply that node's link state
     * (degraded latency, severed → sim::FabricPartitionError); the
     * default kInvalidNode bypasses the link model (device-internal
     * traffic never crosses a node's link). `target` names the device
     * address the transaction is headed for — it selects the fault
     * domain, and for reads (`isRead`) it enables the replica-reroute
     * rung; a null target is control-plane traffic on domain 0.
     */
    void cxlTransaction(sim::SimClock &clock, const char *site,
                        NodeId node = kInvalidNode,
                        PhysAddr target = PhysAddr{},
                        bool isRead = false);

    /**
     * Read a frame's content token through the failure model: poisoned
     * frames machine-check (sim::PoisonedFrameError); CXL-tier reads
     * additionally pass through cxlTransaction, node-attributed when
     * the caller knows the issuing node.
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

    sim::CostParams costs_;
    sim::FaultInjector injector_;
    mutable sim::Tracer tracer_;
    mutable sim::MetricsRegistry metrics_;
    std::vector<std::unique_ptr<FrameAllocator>> nodeDram_;
    std::unique_ptr<FrameAllocator> cxl_;
    std::vector<CacheModel> llc_;
    uint64_t cxlCapacity_ = 0;
    PoisonRepairer *repairer_ = nullptr;
    CoherenceModel *coherence_ = nullptr;
    PageCodec *codec_ = nullptr;
    FabricLinkModel *link_ = nullptr;
    FabricQueue *queue_ = nullptr;

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
