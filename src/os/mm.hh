/**
 * @file
 * The memory descriptor (Linux mm_struct analogue): VMA tree + page
 * table + the hooks CXLfork restore installs (checkpoint backing and
 * the tiering policy that drives CXL fault handling).
 */

#pragma once

#include <cstdint>
#include <memory>

#include "page_table.hh"
#include "vma.hh"

namespace cxlfork::os {

/**
 * Tiering policy for checkpoint-backed pages (paper Sec. 4.3).
 */
enum class TieringPolicy : uint8_t {
    MigrateOnWrite,  ///< Default: attach leaves; copy locally on store.
    MigrateOnAccess, ///< No attach; copy locally on first touch.
    Hybrid,          ///< No attach; A-bit decides copy vs. map-in-place.
};

const char *tieringPolicyName(TieringPolicy p);

/**
 * What the fault handler needs to know about the checkpoint a restored
 * process is backed by. Implemented by rfork::CheckpointImage; declared
 * here so the OS layer stays independent of the rfork layer.
 */
class CheckpointBacking
{
  public:
    virtual ~CheckpointBacking() = default;

    /**
     * The checkpointed PTE for a virtual address, or a zero (not
     * present) Pte when the checkpoint does not map it. Frame addresses
     * are on the CXL device; A/D bits are the parent's access pattern
     * (paper Sec. 4.1). A plain Pte, not an optional: the fault path
     * reads it in registers, where an optional's flag byte is stored
     * and reloaded wider, a store-forwarding stall on every lazy fault.
     */
    virtual Pte checkpointPte(mem::VirtAddr va) const = 0;

    /**
     * Cost of migrating one checkpointed page into local memory. The
     * default is a CXL-device read; Mitosis-style images override it
     * (their pages cross the fabric twice: parent store + child fetch).
     */
    virtual sim::SimTime
    migrateCost(const sim::CostParams &c) const
    {
        return c.cxlAccessFault();
    }

    /**
     * Cost of speculatively pre-copying one checkpointed page in a
     * batched prefetch: bandwidth only — the batch pays trap/setup
     * once and amortizes fabric latency over the miss stream, which
     * is the honest win over demand faulting. Mitosis-style images
     * override it (their pages cross the fabric twice).
     */
    virtual sim::SimTime
    prefetchPageCost(const sim::CostParams &c) const
    {
        return c.cxlRead(c.pageSize);
    }
};

/** Per-process memory state. */
class MemoryDescriptor
{
  public:
    MemoryDescriptor(mem::Machine &machine, mem::FrameAllocator &localDram,
                     sim::SimClock &clock, WorkCounters &work)
        : machine_(machine), localDram_(localDram), vmas_(&work),
          pageTable_(machine, localDram, clock, &work)
    {}

    VmaTree &vmas() { return vmas_; }
    const VmaTree &vmas() const { return vmas_; }

    PageTable &pageTable() { return pageTable_; }
    const PageTable &pageTable() const { return pageTable_; }

    mem::FrameAllocator &localDram() { return localDram_; }

    /** Restore hooks. */
    void
    setBacking(std::shared_ptr<const CheckpointBacking> b, TieringPolicy p)
    {
        backing_ = std::move(b);
        policy_ = p;
    }

    const CheckpointBacking *backing() const { return backing_.get(); }

    std::shared_ptr<const CheckpointBacking> backingPtr() const
    {
        return backing_;
    }
    TieringPolicy policy() const { return policy_; }
    void setPolicy(TieringPolicy p) { policy_ = p; }

    /** Anonymous mmap-style address-space cursor. */
    mem::VirtAddr
    allocRange(uint64_t bytes)
    {
        const mem::VirtAddr base = cursor_;
        cursor_ = cursor_.plus((bytes + mem::kPageSize - 1) &
                               ~(mem::kPageSize - 1));
        return base;
    }

    /**
     * Local memory this address space consumes on its node: resident
     * local data pages plus the table pages the process itself owns.
     */
    uint64_t
    localFootprintBytes() const
    {
        const auto r = pageTable_.residency();
        return (r.localPages + pageTable_.ownedTablePages()) * mem::kPageSize;
    }

    /** Pages mapped directly from the CXL tier (deduplicated state). */
    uint64_t
    cxlMappedBytes() const
    {
        return pageTable_.residency().cxlPages * mem::kPageSize;
    }

  private:
    mem::Machine &machine_;
    mem::FrameAllocator &localDram_;
    VmaTree vmas_;
    PageTable pageTable_;
    std::shared_ptr<const CheckpointBacking> backing_;
    TieringPolicy policy_ = TieringPolicy::MigrateOnWrite;
    mem::VirtAddr cursor_{0x5555'0000'0000ull};
};

} // namespace cxlfork::os
