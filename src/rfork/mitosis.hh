/**
 * @file
 * Mitosis-CXL: the state-of-the-art baseline (paper Sec. 2.3.2, 6.2).
 *
 * Checkpoint creates an immutable shadow copy of the parent's memory
 * in the *parent node's local DRAM* and serializes the OS-maintained
 * state (VMAs, page-map descriptors, registers, global state).
 * Restore transfers and deserializes the OS state on the target node;
 * memory pages are then fetched lazily, one remote fault at a time —
 * with RDMA replaced by copies over the shared CXL memory, so each
 * fault pays a store-to-CXL plus a fetch-from-CXL (paper Sec. 6.2).
 * The checkpoint stays coupled to the parent node: every restore
 * copies data out of it, and it pins local memory there.
 */

#pragma once

#include <algorithm>
#include <map>

#include "cxl/fabric.hh"
#include "os/mm.hh"
#include "proto/messages.hh"
#include "rfork.hh"

namespace cxlfork::rfork {

/** The parent-node-resident Mitosis checkpoint. */
class MitosisHandle : public CheckpointHandle, public os::CheckpointBacking
{
  public:
    MitosisHandle(mem::Machine &machine, mem::NodeId parentNode,
                  std::string name)
        : machine_(machine), parentNode_(parentNode), name_(std::move(name))
    {}

    ~MitosisHandle() override;

    const std::string &name() const { return name_; }
    mem::NodeId parentNode() const { return parentNode_; }

    /**
     * Model a parent-node failure (Sec. 3.1: Mitosis couples the
     * checkpoint to the node that created it, so that node is a point
     * of failure). Subsequent restores and lazy remote faults fail.
     */
    void markParentFailed() { parentFailed_ = true; }

    /**
     * Model the parent node coming back (or its DRAM image becoming
     * reachable again): lazy faults that failed with NodeFailedError
     * left the child's PTEs untouched, so they simply retry.
     */
    void markParentRecovered() { parentFailed_ = false; }
    bool parentFailed() const { return parentFailed_; }

    // --- CheckpointBacking: serve lazy remote faults.
    os::Pte checkpointPte(mem::VirtAddr va) const override;

    /** Remote page fault over CXL: parent stores, child fetches. */
    sim::SimTime migrateCost(const sim::CostParams &c) const override;

    /** Batched prefetch still crosses the fabric twice per page. */
    sim::SimTime prefetchPageCost(const sim::CostParams &c) const override;

    // --- Construction.
    void addLeaf(uint64_t baseVpn, std::shared_ptr<os::TablePage> leaf);
    void addShadowFrame(mem::PhysAddr f) { shadowFrames_.push_back(f); }

    void
    setOsState(std::vector<uint8_t> blob, uint64_t simBytes,
               uint64_t records, proto::GlobalStateMsg global,
               os::CpuContext cpu, std::vector<os::Vma> vmas)
    {
        blob_ = std::move(blob);
        metaSimBytes_ = simBytes;
        metaRecords_ = records;
        global_ = std::move(global);
        cpu_ = cpu;
        vmas_ = std::move(vmas);
    }

    const proto::GlobalStateMsg &global() const { return global_; }
    const os::CpuContext &cpu() const { return cpu_; }
    const std::vector<os::Vma> &vmas() const { return vmas_; }
    uint64_t metaSimBytes() const { return metaSimBytes_; }
    uint64_t metaRecords() const { return metaRecords_; }
    uint64_t pageCount() const { return shadowFrames_.size(); }
    uint64_t leafCount() const { return leaves_.size(); }

    uint64_t cxlBytes() const override { return 0; }
    uint64_t localBytes() const override
    {
        return shadowFrames_.size() * mem::kPageSize;
    }

    /** All shadow copies + OS state landed; the handle is restorable. */
    void markComplete() { complete_ = true; }

    /**
     * A Mitosis checkpoint is never recoverable by another node even
     * when fully built: it pins parent-node DRAM (localBytes() > 0), so
     * the crash-recovery pass reclaims it regardless. complete() still
     * reports build progress so recovery can distinguish "torn" from
     * "finished but node-coupled" in its accounting.
     */
    bool complete() const override { return complete_ && !parentFailed_; }

    /** Shadow data copies and serialized-leaf backings both count. */
    bool
    referencesFrame(mem::PhysAddr addr) const override
    {
        return std::find(shadowFrames_.begin(), shadowFrames_.end(), addr) !=
                   shadowFrames_.end() ||
               std::find(leafBackings_.begin(), leafBackings_.end(), addr) !=
                   leafBackings_.end();
    }

  private:
    mem::Machine &machine_;
    mem::NodeId parentNode_;
    bool parentFailed_ = false;
    bool complete_ = false;
    std::string name_;
    std::map<uint64_t, std::shared_ptr<os::TablePage>> leaves_;
    // checkpointPte's last resolved leaf. leaves_ only grows and holds
    // each leaf by shared_ptr, so the pointer stays valid.
    mutable uint64_t cursorBase_ = 0;
    mutable const os::TablePage *cursorLeaf_ = nullptr;
    std::vector<mem::PhysAddr> shadowFrames_;
    std::vector<mem::PhysAddr> leafBackings_;
    std::vector<uint8_t> blob_;
    uint64_t metaSimBytes_ = 0;
    uint64_t metaRecords_ = 0;
    proto::GlobalStateMsg global_;
    os::CpuContext cpu_;
    std::vector<os::Vma> vmas_;

    friend class MitosisCxl;
};

/** The Mitosis-CXL mechanism. */
class MitosisCxl : public RemoteForkMechanism
{
  public:
    explicit MitosisCxl(cxl::CxlFabric &fabric)
        : fabric_(fabric), metrics_(fabric.machine().metrics(), "mitosis")
    {}

    const char *name() const override { return "Mitosis-CXL"; }

    std::shared_ptr<CheckpointHandle>
    checkpoint(os::NodeOs &node, os::Task &parent,
               CheckpointStats *stats = nullptr) override;

    std::shared_ptr<os::Task>
    restore(const std::shared_ptr<CheckpointHandle> &handle,
            os::NodeOs &target, const RestoreOptions &opts = {},
            RestoreStats *stats = nullptr) override;

  private:
    cxl::CxlFabric &fabric_;
    MechanismMetrics metrics_;
};

} // namespace cxlfork::rfork
