/**
 * @file
 * A frame allocator over one contiguous physical range (one tier
 * instance): a node's DRAM or the shared CXL device.
 */

#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "frame.hh"
#include "sim/fault_injector.hh"
#include "sim/log.hh"
#include "types.hh"

namespace cxlfork::mem {

class CoherenceModel;
class FabricStage;

/**
 * Result of FrameAllocator::auditLive(): bookkeeping cross-check used
 * by the crash-enumeration harness ("zero leaked frames" must mean the
 * allocator's internal state agrees with itself, not just that a
 * counter returned to its baseline).
 */
struct FrameAudit
{
    uint64_t liveFrames = 0;  ///< Allocated frames found by the walk.
    uint64_t freeFrames = 0;  ///< Materialized free frames found.
    uint64_t liveRefs = 0;    ///< Sum of refcounts over live frames.
    bool consistent = true;   ///< All invariants held.
    std::string detail;       ///< First violated invariant, if any.
};

/**
 * Allocates page frames from [base, base + capacity) and tracks their
 * metadata and reference counts.
 */
class FrameAllocator
{
  public:
    /**
     * @param name Human-readable tier name for diagnostics.
     * @param tier Which tier this range models.
     * @param base First physical address of the range (page aligned).
     * @param capacityBytes Size of the range (page multiple).
     */
    FrameAllocator(std::string name, Tier tier, PhysAddr base,
                   uint64_t capacityBytes);

    /**
     * Allocate one frame. Deterministic order: the most recently freed
     * frame is reused first; otherwise the lowest never-used address.
     * @return the frame's physical address, refcount 1.
     * @throws sim::CapacityError (a sim::FatalError) if the tier is
     *         exhausted; the allocator state is untouched, so callers
     *         may free memory and retry.
     *
     * Inline, so a bulk install that allocates a frame per page in a
     * loop (the CRIU restore) pays no call per frame.
     */
    PhysAddr
    alloc(FrameUse use, uint64_t content = 0)
    {
        if (use == FrameUse::Free) [[unlikely]]
            sim::panic("allocating a frame as Free");
        // Crash site *before* any state mutation: a crash here leaves
        // the allocator untouched, so an unregistered frame can never
        // leak.
        if (injector_)
            injector_->crashPoint("frame.alloc");
        if (usedFrames_ == totalFrames_) [[unlikely]]
            outOfMemory();
        uint64_t idx;
        if (!freeList_.empty()) {
            idx = freeList_.back();
            freeList_.pop_back();
            // LIFO reuse tells which frames the next allocations hand
            // out: start loading the metadata of the one
            // kAllocLookahead pops ahead, so the stores below it then
            // find it in cache. A hint only; the order is unchanged.
            if (freeList_.size() >= kAllocLookahead) {
                __builtin_prefetch(
                    &frames_[freeList_[freeList_.size() - kAllocLookahead]],
                    /*rw=*/1);
            }
        } else {
            idx = frames_.size();
            frames_.emplace_back();
        }
        Frame &f = frames_[idx];
        f.use = use;
        f.refcount = 1;
        f.content = content;
        setPoisoned(f, tier_ == Tier::Cxl && injector_ &&
                           injector_->drawPoison());
        ++usedFrames_;
        ++totalRefs_;
        ++allocCount_;
        peakUsedFrames_ = std::max(peakUsedFrames_, usedFrames_);
        return PhysAddr{base_.raw + idx * kPageSize};
    }

    /**
     * Attach the machine's fault injector: allocations on the CXL tier
     * then draw the frame-poison stream. Nullptr detaches.
     */
    void setFaultInjector(sim::FaultInjector *inj) { injector_ = inj; }

    /**
     * Attach the fabric layers that keep per-frame state: frames freed
     * by decRef notify the coherence model (lineFreed, so directory
     * state never outlives the frame: the shootdown-before-reuse
     * guarantee) and the codec stage (frameFreed, so codec metadata
     * does not either). Nullptr detaches. Installed by the machine on
     * the CXL tier only.
     */
    void
    setFreeHooks(CoherenceModel *coherence, FabricStage *codec)
    {
        coherence_ = coherence;
        codec_ = codec;
    }

    /** Mark an allocated frame poisoned (tests / targeted injection). */
    void poison(PhysAddr addr) { setPoisoned(frame(addr), true); }

    /** Clear an allocated frame's poison once its content is rebuilt. */
    void clearPoison(PhysAddr addr) { setPoisoned(frame(addr), false); }

    bool isPoisoned(PhysAddr addr) const { return frame(addr).poisoned; }

    /**
     * Allocated frames now poisoned. Exact while every change of a
     * frame's poison bit goes through alloc, poison, clearPoison and
     * the free path; auditLive() recounts it.
     */
    uint64_t poisonedFrames() const { return poisonedFrames_; }

    /** True if at least n more frames can be allocated. */
    bool canAlloc(uint64_t n = 1) const { return freeFrames() >= n; }

    /** Add one reference to an allocated frame. */
    void
    incRef(PhysAddr addr)
    {
        Frame &f = frame(addr);
        ++f.refcount;
        ++totalRefs_;
    }

    /**
     * Drop one reference; frees the frame when it reaches zero.
     * @return true if the frame was freed.
     */
    bool
    decRef(PhysAddr addr)
    {
        const uint64_t idx = indexOf(addr);
        Frame &f = frames_[idx];
        CXLF_ASSERT(f.allocated());
        CXLF_ASSERT(f.refcount > 0);
        CXLF_ASSERT(totalRefs_ > 0);
        --totalRefs_;
        if (--f.refcount > 0)
            return false;
        release(addr, idx);
        return true;
    }

    /** Metadata access. Address must be an allocated frame in range. */
    Frame &
    frame(PhysAddr addr)
    {
        Frame &f = frames_[indexOf(addr)];
        CXLF_ASSERT(f.allocated());
        return f;
    }

    const Frame &
    frame(PhysAddr addr) const
    {
        const Frame &f = frames_[indexOf(addr)];
        CXLF_ASSERT(f.allocated());
        return f;
    }

    bool contains(PhysAddr addr) const
    {
        return addr.raw >= base_.raw && addr.raw < base_.raw + capacity_;
    }

    /**
     * Frame number of addr within this tier: the index per-frame side
     * tables (mem::FrameTable) key their state by. Panics, naming the
     * address and the tier, for an address outside the tier (below
     * base the subtraction wraps past the capacity, so one compare
     * guards both ends).
     */
    uint64_t
    frameNumber(PhysAddr addr) const
    {
        const uint64_t offset = addr.raw - base_.raw;
        if (offset >= capacity_) [[unlikely]]
            badAddress(addr);
        return offset / kPageSize;
    }

    /** Address of frame number i: the inverse of frameNumber(). */
    PhysAddr
    frameAddress(uint64_t i) const
    {
        return PhysAddr{base_.raw + i * kPageSize};
    }

    Tier tier() const { return tier_; }
    PhysAddr base() const { return base_; }
    uint64_t capacityBytes() const { return capacity_; }
    uint64_t usedBytes() const { return usedFrames_ * kPageSize; }
    uint64_t freeBytes() const { return capacity_ - usedBytes(); }
    uint64_t usedFrames() const { return usedFrames_; }
    uint64_t freeFrames() const { return totalFrames_ - usedFrames_; }

    /**
     * Total outstanding references across all live frames. With
     * content dedup a frame counts once in usedFrames() however many
     * checkpoints share it; this is the companion census that still
     * moves by one per incRef/decRef, so
     * totalRefs() - usedFrames() == extra references held by sharers.
     */
    uint64_t totalRefs() const { return totalRefs_; }
    const std::string &name() const { return name_; }

    /**
     * Frames handed out and freed since construction. No clock, metric
     * or span reads them: they pin host work, and an unchanged
     * freeCount() proves every frame allocated then still is.
     */
    uint64_t allocCount() const { return allocCount_; }
    uint64_t freeCount() const { return freeCount_; }

    /** Peak concurrent usage since construction/reset, in bytes. */
    uint64_t peakUsedBytes() const { return peakUsedFrames_ * kPageSize; }
    void resetPeak() { peakUsedFrames_ = usedFrames_; }

    /**
     * Walk every materialized frame and cross-check the allocator's
     * bookkeeping: allocated frames must carry a nonzero refcount and a
     * non-Free use, the free list must reference only Free frames with
     * no duplicates, and the walk's live count must equal usedFrames().
     */
    FrameAudit auditLive() const;

    /**
     * Visit every allocated frame in address order. Diagnostic/chaos
     * walks only (the soak harness picks poison-strike victims here);
     * never on a simulated hot path.
     */
    template <typename Fn>
    void
    forEachAllocated(Fn &&fn) const
    {
        for (uint64_t i = 0; i < frames_.size(); ++i) {
            if (frames_[i].allocated())
                fn(frameAddress(i), frames_[i]);
        }
    }

  private:
    /** How many free-list pops ahead alloc() prefetches frame metadata. */
    static constexpr size_t kAllocLookahead = 16;

    /** alloc()'s sim::CapacityError for an exhausted tier. */
    [[noreturn]] void outOfMemory() const;

    /**
     * Metadata index of addr. Frames past the high-water mark were
     * never allocated, and every address outside the tier lands past
     * it too (below base the subtraction wraps), so one compare guards
     * both; badAddress() tells them apart.
     */
    uint64_t
    indexOf(PhysAddr addr) const
    {
        const uint64_t idx = (addr.raw - base_.raw) / kPageSize;
        if (idx >= frames_.size()) [[unlikely]]
            badAddress(addr);
        return idx;
    }

    /** Panic for an address outside the tier or never allocated. */
    [[noreturn]] void badAddress(PhysAddr addr) const;

    /** decRef's free path: return frame idx (at addr) to the free list. */
    void release(PhysAddr addr, uint64_t idx);

    void
    setPoisoned(Frame &f, bool on)
    {
        poisonedFrames_ += uint64_t(on) - uint64_t(f.poisoned);
        f.poisoned = on;
    }

    std::string name_;
    Tier tier_;
    PhysAddr base_;
    uint64_t capacity_;
    uint64_t totalFrames_;
    uint64_t usedFrames_ = 0;
    uint64_t totalRefs_ = 0;
    uint64_t peakUsedFrames_ = 0;
    uint64_t allocCount_ = 0;
    uint64_t freeCount_ = 0;
    uint64_t poisonedFrames_ = 0;
    std::vector<Frame> frames_;
    std::vector<uint64_t> freeList_;
    sim::FaultInjector *injector_ = nullptr;
    CoherenceModel *coherence_ = nullptr;
    FabricStage *codec_ = nullptr;
};

} // namespace cxlfork::mem
