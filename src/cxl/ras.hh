/**
 * @file
 * RAS (reliability/availability/serviceability) for the checkpoint
 * tier: refcount-aware replication, a background scrubber, and the
 * restore-time poison repair ladder.
 *
 * The dedup tier concentrates risk — one poisoned interned page damages
 * every checkpoint that references it — so the RAS manager spends
 * memory where sharing concentrates value: pages whose intern refcount
 * crosses a sweepable threshold get K replicas placed on distinct
 * simulated fault domains, charged honestly through CostParams. When a
 * read machine-checks, the repair ladder runs: repair the primary from
 * a healthy replica, re-replicate anything the repair consumed, and
 * only when no healthy copy exists mark the page lost — at which point
 * porter::Cluster::reclaimDamaged walks the journal and reclaims every
 * checkpoint referencing the dead frame, degrading those functions to
 * a cold start instead of serving corrupt restores.
 *
 * Everything is off by default (RasConfig::enabled == false): a
 * disabled manager registers no counters, installs no stage, and every
 * bench stays bit-identical to a tree without the RAS layer.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "mem/machine.hh"
#include "sim/clock.hh"
#include "topology.hh"

namespace cxlfork::cxl {

class PageStore;

/** RAS tunables, CostParams-style: plain values, disabled by default. */
struct RasConfig
{
    /** Master switch. Off: no hooks, no counters, no behavior change. */
    bool enabled = false;

    /** Replicas per protected page (K). Zero protects nothing. */
    uint32_t replicas = 0;

    /**
     * A page is protected once its frame refcount reaches this value.
     * 1 replicates every interned page at birth; higher values spend
     * replica memory only where dedup concentrated sharing.
     */
    uint64_t replicaThreshold = 2;

    /**
     * Simulated fault domains the device is striped over (frame index
     * modulo domains): the fabric topology's domain count, which link
     * health and the port queue read too. Replicas are placed on
     * domains distinct from the primary's and each other's, so one
     * domain failure never takes out every copy.
     */
    uint32_t faultDomains = 4;
};

/** What one scrub pass found and did. */
struct ScrubReport
{
    uint64_t scanned = 0;       ///< Protected pages visited.
    uint64_t repaired = 0;      ///< Primaries rebuilt from a replica.
    uint64_t rereplicated = 0;  ///< Replacement replicas written.
    uint64_t lost = 0;          ///< Pages newly marked lost.
};

/** Bookkeeping cross-check, in the style of FrameAllocator::auditLive. */
struct RasAudit
{
    uint64_t protectedPages = 0;
    uint64_t replicaFrames = 0;
    bool consistent = true;
    std::string detail;
};

/** The per-fabric RAS manager: the pipeline's repair stage. */
class RasManager : public mem::FabricStage
{
  public:
    RasManager(mem::Machine &machine, PageStore &store,
               const FabricTopology &topology, RasConfig cfg);
    ~RasManager() override;

    RasManager(const RasManager &) = delete;
    RasManager &operator=(const RasManager &) = delete;

    bool enabled() const { return cfg_.enabled; }
    const RasConfig &config() const { return cfg_; }

    /** Fault domain of a device frame (the topology's striping). */
    uint32_t domainOf(mem::PhysAddr addr) const
    {
        return topology_.domainOf(addr);
    }

    // --- PageStore hooks (no-ops unless enabled).

    /**
     * Post-write verify for a freshly interned frame: if the device
     * latched poison on the store, re-allocate and re-write (charged
     * per attempt) up to the configured retry count. @return the frame
     * actually holding the page — usually `addr`, a replacement after
     * a verify failure.
     */
    mem::PhysAddr verifiedAlloc(mem::PhysAddr addr, mem::FrameUse use,
                                uint64_t content, sim::SimClock &clock);

    /** A page was interned fresh (refcount 1). */
    void noteInterned(mem::PhysAddr addr, sim::SimClock &clock);

    /** A page gained a sharer; replicate once it crosses the threshold. */
    void noteShared(mem::PhysAddr addr, sim::SimClock &clock);

    /** A store-owned page was freed; drop its replicas and records. */
    void notePrimaryFreed(mem::PhysAddr addr);

    // --- The repair ladder (the repair stage).

    /**
     * Rung 1-2: rebuild the poisoned primary from a healthy replica
     * and re-replicate. @return false when every copy is gone — the
     * page is then recorded lost and the caller escalates (rung 3-5:
     * reclaim referencing checkpoints, degrade to cold start).
     */
    bool repairPoisoned(mem::PhysAddr addr, sim::SimClock &clock,
                        const char *site);

    /** A checked read found t.target poisoned: try the ladder. */
    void
    onTxn(mem::Txn &t) override
    {
        repairPoisoned(t.target, t.clock, t.site);
    }

    // --- The background scrubber.

    /**
     * Scrub up to `maxPages` protected pages (0 = the configured
     * batch), resuming round-robin where the last step stopped. Walks
     * in deterministic address order; verifies the recorded CRC-32 of
     * every copy, repairs poisoned or corrupt primaries from replicas,
     * replaces bad replicas, and marks pages with no surviving copy
     * lost. Costs are charged to `clock` per page read and per repair
     * write.
     */
    ScrubReport scrubStep(sim::SimClock &clock, uint64_t maxPages = 0);

    /** Scrub every protected page once. */
    ScrubReport scrubAll(sim::SimClock &clock);

    // --- Introspection.

    /**
     * The reroute rung of the partition ladder: a healthy replica of
     * `primary` whose fault domain satisfies `reachable` (the link-
     * health model's view from the partitioned node), or null when the
     * page is unprotected or no reachable healthy copy exists. Pure
     * lookup — the caller charges the reroute read.
     */
    mem::PhysAddr
    findReplicaOn(mem::PhysAddr primary,
                  const std::function<bool(uint32_t)> &reachable) const
    {
        auto it = tracked_.find(primary.raw);
        if (it == tracked_.end())
            return mem::PhysAddr{};
        for (mem::PhysAddr r : it->second.replicas) {
            if (!machine_.cxl().frame(r).poisoned &&
                reachable(domainOf(r))) {
                return r;
            }
        }
        return mem::PhysAddr{};
    }

    bool isLost(mem::PhysAddr addr) const
    {
        return lost_.count(addr.raw) != 0;
    }

    uint64_t protectedPages() const { return tracked_.size(); }
    uint64_t replicaFrames() const { return replicaFrames_; }
    uint64_t peakReplicaFrames() const { return peakReplicaFrames_; }
    uint64_t pagesLost() const { return lost_.size(); }
    uint64_t repairs() const { return repairs_; }

    /** Cross-check replica records against the frame allocator. */
    RasAudit audit() const;

  private:
    struct ReplicaSet
    {
        uint64_t content = 0;  ///< Token the page held when protected.
        uint32_t crc = 0;      ///< CRC-32 over the token (PR 1 style).
        std::vector<mem::PhysAddr> replicas;
    };

    /** Top up `rec` to K healthy replicas on distinct domains. */
    uint64_t ensureReplicas(mem::PhysAddr primary, ReplicaSet &rec,
                            sim::SimClock &clock);

    /** Release one replica frame back to the device. */
    void dropReplica(mem::PhysAddr replica);

    void markLost(mem::PhysAddr addr);

    mem::Machine &machine_;
    PageStore &store_;
    const FabricTopology &topology_;
    RasConfig cfg_;

    /** Is there a tracked_ record for this primary? */
    bool isTracked(mem::PhysAddr addr) const;
    void setTracked(mem::PhysAddr addr, bool on);

    /** Primary frame -> its replica set; std::map for deterministic
     *  scrub order. */
    std::map<uint64_t, ReplicaSet> tracked_;
    /** A bit per device frame, set while tracked_ holds its record, so
     *  frees and shares of unprotected pages skip the map. */
    std::vector<uint64_t> trackedBits_;
    std::set<uint64_t> lost_;
    uint64_t scrubCursor_ = 0; ///< Resume key for scrubStep.
    uint64_t replicaFrames_ = 0;
    uint64_t peakReplicaFrames_ = 0;
    uint64_t repairs_ = 0;

    // Counters are registered only when enabled, so a disabled manager
    // leaves the metrics export byte-identical to a pre-RAS tree.
    sim::Counter *replicasWrittenCounter_ = nullptr;
    sim::Counter *repairsCounter_ = nullptr;
    sim::Counter *rereplicationsCounter_ = nullptr;
    sim::Counter *lostCounter_ = nullptr;
    sim::Counter *scrubbedCounter_ = nullptr;
    sim::Counter *writeVerifyCounter_ = nullptr;
};

} // namespace cxlfork::cxl
