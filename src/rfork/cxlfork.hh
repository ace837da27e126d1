/**
 * @file
 * CXLfork: the paper's contribution. Near zero-serialization,
 * zero-copy remote fork over shared CXL memory.
 *
 * Checkpoint (Sec. 4.1): copy private state — data pages, page-table
 * leaves (A/D bits preserved, PTEs rewritten to the CXL replicas and
 * write-protected), VMA records, CPU context — as-is to CXL memory
 * with non-temporal stores; rebase internal pointers to device
 * offsets; lightly serialize only the global state (open files,
 * sockets, mounts, PID namespace).
 *
 * Restore (Sec. 4.2): allocate only the upper page-table/VMA levels
 * locally, attach the checkpointed leaves in (almost) constant time,
 * redo global state, optionally prefetch checkpoint-dirty pages, and
 * resume from the checkpointed CPU context. Reads are served directly
 * from CXL; writes migrate-on-write via CoW faults.
 */

#pragma once

#include "checkpoint_image.hh"
#include "cxl/fabric.hh"
#include "cxl/rebase.hh"
#include "rfork.hh"

namespace cxlfork::rfork {

/** Tunables for the CXLfork mechanism itself. */
struct CxlForkConfig
{
    /**
     * Attach checkpointed PT/VMA leaves instead of copying them
     * (Sec. 4.2.1). Disabling is the ablation: restore then rebuilds
     * OS state by copying it locally.
     */
    bool attachLeaves = true;

    /**
     * When re-checkpointing a restored clone, pages it never modified
     * still map the original checkpoint's CXL frames; share those
     * frames (reference counted) instead of duplicating them. An
     * extension beyond the paper; disable to measure its effect.
     */
    bool dedupUnmodified = true;
};

/** The CXLfork mechanism. */
class CxlFork : public RemoteForkMechanism
{
  public:
    explicit CxlFork(cxl::CxlFabric &fabric, CxlForkConfig cfg = {})
        : fabric_(fabric), cfg_(cfg),
          metrics_(fabric.machine().metrics(), "cxlfork"),
          rebaser_(fabric.machine())
    {
        sim::MetricsRegistry &m = fabric_.machine().metrics();
        pagesCkptCounter_ = &m.counter("rfork.cxlfork.pages_checkpointed");
        bytesToCxlCounter_ = &m.counter("rfork.cxlfork.bytes_to_cxl");
        crcRejectCounter_ = &m.counter("rfork.cxlfork.crc_rejects");
        pagesPrefetchedCounter_ =
            &m.counter("rfork.cxlfork.pages_prefetched");
    }

    const char *name() const override { return "CXLfork"; }

    std::shared_ptr<CheckpointHandle>
    checkpoint(os::NodeOs &node, os::Task &parent,
               CheckpointStats *stats = nullptr) override;

    std::shared_ptr<os::Task>
    restore(const std::shared_ptr<CheckpointHandle> &handle,
            os::NodeOs &target, const RestoreOptions &opts = {},
            RestoreStats *stats = nullptr) override;

    /** Typed accessor for tiering control (A-bit reset, user hot pages). */
    static std::shared_ptr<CheckpointImage>
    image(const std::shared_ptr<CheckpointHandle> &handle);

  private:
    cxl::CxlFabric &fabric_;
    CxlForkConfig cfg_;
    MechanismMetrics metrics_;
    cxl::LeafRebaser rebaser_;
    sim::Counter *pagesCkptCounter_ = nullptr;
    sim::Counter *bytesToCxlCounter_ = nullptr;
    sim::Counter *crcRejectCounter_ = nullptr;
    sim::Counter *pagesPrefetchedCounter_ = nullptr;
};

} // namespace cxlfork::rfork
