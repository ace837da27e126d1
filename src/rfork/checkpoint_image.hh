/**
 * @file
 * CXLfork's checkpoint image: the process state, as-is, on CXL memory.
 *
 * Holds the decoupled private state (data pages, sealed page-table
 * leaves with preserved A/D bits, the VMA leaf set, the CPU context)
 * plus the lightly-serialized global state. Everything is backed by
 * frames on the CXL device; internal references were rebased to device
 * offsets at checkpoint time and de-rebased when the image was
 * activated on this fabric mapping.
 */

#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cxl/fabric.hh"
#include "os/mm.hh"
#include "os/task.hh"
#include "proto/messages.hh"
#include "rfork.hh"

namespace cxlfork::rfork {

/**
 * Per-segment CRC-32s sealed over a checkpoint image at checkpoint
 * time. Mutable-by-design PTE bits (the hardware Accessed bit and the
 * user-hot hint, both legal to flip on sealed leaves) are masked out of
 * the leaf digest; everything else in the image is immutable once the
 * checkpoint completes, so any digest mismatch means a torn write or
 * device bit-rot.
 */
struct ImageCrcs
{
    uint32_t pages = 0;  ///< Data-frame content tokens, in map order.
    uint32_t leaves = 0; ///< Leaf base VPNs + masked PTE bits.
    uint32_t vmas = 0;   ///< Checkpointed VMA records.
    uint32_t global = 0; ///< Serialized global-state blob + CPU context.
    bool sealed = false;
};

/** The CXL-resident checkpoint of one process. */
class CheckpointImage : public os::CheckpointBacking, public CheckpointHandle
{
  public:
    /**
     * When a page store is given the image releases its frames through
     * it, keeping the content index exact for frames it shares with
     * other images; without one it returns frames straight to the
     * allocator (the pre-dedup behaviour).
     */
    CheckpointImage(mem::Machine &machine, std::string name,
                    cxl::PageStore *pageStore = nullptr);
    ~CheckpointImage() override;

    CheckpointImage(const CheckpointImage &) = delete;
    CheckpointImage &operator=(const CheckpointImage &) = delete;

    const std::string &name() const { return name_; }

    // --- Construction (used by CxlFork::checkpoint).

    /** Add a checkpointed, sealed leaf in rebased (offset) form. */
    void addLeaf(uint64_t baseVpn, std::shared_ptr<os::TablePage> leaf);

    /** Record ownership of a CXL data frame (refcount held by us). */
    void addDataFrame(mem::PhysAddr f) { dataFrames_.push_back(f); }

    /** Record ownership of a CXL metadata frame. */
    void addMetaFrame(mem::PhysAddr f) { metaFrames_.push_back(f); }

    void setVmaSet(std::shared_ptr<const os::SharedVmaSet> set)
    {
        vmaSet_ = std::move(set);
    }

    void
    setGlobalState(std::vector<uint8_t> encoded, uint64_t simulatedBytes,
                   uint64_t records)
    {
        globalBlob_ = std::move(encoded);
        globalSimBytes_ = simulatedBytes;
        globalRecords_ = records;
    }

    void setCpu(const os::CpuContext &cpu) { cpu_ = cpu; }

    /**
     * De-rebase all leaves against this fabric mapping, making the
     * image attachable. Must be called exactly once, after all leaves
     * were added in rebased form.
     */
    void activate();
    bool activated() const { return activated_; }

    // --- Integrity (torn-write detection).

    /**
     * Seal per-segment CRCs over the finished image. Called once by
     * CxlFork::checkpoint after activate(); the digests cover the
     * de-rebased (attachable) form.
     */
    void sealIntegrity();
    bool integritySealed() const { return crcs_.sealed; }
    const ImageCrcs &crcs() const { return crcs_; }

    /**
     * Recompute every segment digest against the sealed values.
     * @return the name of the first corrupted segment ("pages",
     *         "leaves", "vmas", "global"), or nullopt if intact.
     */
    std::optional<std::string> verifyIntegrity() const;

    /**
     * Flip one bit of the image, as a torn checkpoint write would:
     * victimBit indexes the concatenated data-page content tokens.
     * Test/injection hook; the sealed CRCs are left untouched.
     */
    void corruptDataBit(uint64_t victimBit);

    // --- Consumption (restore, fault handling, tiering control).

    os::Pte checkpointPte(mem::VirtAddr va) const override;

    const std::map<uint64_t, std::shared_ptr<os::TablePage>> &
    leaves() const
    {
        return leaves_;
    }

    std::shared_ptr<const os::SharedVmaSet> vmaSet() const { return vmaSet_; }

    const std::vector<uint8_t> &globalBlob() const { return globalBlob_; }
    uint64_t globalSimBytes() const { return globalSimBytes_; }
    uint64_t globalRecords() const { return globalRecords_; }

    const os::CpuContext &cpu() const { return cpu_; }

    /**
     * Visit checkpointed PTEs whose Dirty bit is set (the prefetch
     * set), in VPN order. The set is built once, by sealIntegrity();
     * Present and Dirty are covered by the leaf CRC, so a sealed image
     * that still verifies has exactly this set.
     */
    template <typename Fn>
    void
    forEachDirty(Fn &&fn) const
    {
        CXLF_ASSERT(crcs_.sealed);
        for (const DirtyPage &d : dirty_)
            fn(mem::VirtAddr::fromPageNumber(d.vpn), *d.pte);
    }

    /**
     * Reset all Accessed bits in the checkpointed page tables — the
     * user-space interface CXLporter uses to re-estimate hot sets
     * (paper Sec. 4.3 "Continuous Update of Access Patterns").
     */
    void resetAccessedBits();

    /** Mark a page as user-identified hot (Sec. 4.3). */
    void markUserHot(mem::VirtAddr va);

    /** Count of checkpointed PTEs with the Accessed bit set. */
    uint64_t accessedPageCount() const;

    uint64_t pageCount() const { return dataFrames_.size(); }
    uint64_t leafCount() const { return leaves_.size(); }

    uint64_t cxlBytes() const override;
    uint64_t localBytes() const override { return 0; }

    /**
     * Restorable iff the image finished building (activated + CRCs
     * sealed) and every segment still verifies. This is the recovery
     * verdict for STAGED orphans found after a node crash.
     */
    bool complete() const override;

    /** True when `addr` is one of the image's data or metadata frames. */
    bool referencesFrame(mem::PhysAddr addr) const override;

  private:
    /** One page of the prefetch set: a slot of a sealed leaf. */
    struct DirtyPage
    {
        uint64_t vpn;
        const os::Pte *pte;
    };

    mem::Machine &machine_;
    std::string name_;
    cxl::PageStore *pageStore_ = nullptr;
    bool activated_ = false;
    std::map<uint64_t, std::shared_ptr<os::TablePage>> leaves_;
    std::vector<mem::PhysAddr> dataFrames_;
    std::vector<mem::PhysAddr> metaFrames_;
    std::shared_ptr<const os::SharedVmaSet> vmaSet_;
    std::vector<uint8_t> globalBlob_;
    uint64_t globalSimBytes_ = 0;
    uint64_t globalRecords_ = 0;
    os::CpuContext cpu_;
    ImageCrcs crcs_;
    mutable sim::LazyCounter crcChecks_;
    /**
     * Present, dirty PTEs in VPN order, pointing into the sealed
     * leaves, which the image keeps alive and never moves.
     */
    std::vector<DirtyPage> dirty_;

    /** With `dirty` given, also collect the prefetch set into it. */
    ImageCrcs computeCrcs(std::vector<DirtyPage> *dirty = nullptr) const;
};

} // namespace cxlfork::rfork
