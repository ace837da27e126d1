/**
 * @file
 * Pointer rebasing for checkpointed OS structures (paper Sec. 4.1,
 * step 7): after copying structures to CXL memory, internal references
 * are rewritten to machine-independent CXL-device *offsets*, so any OS
 * instance — whatever physical window it maps the device at — can remap
 * and dereference them. De-rebasing converts offsets back to absolute
 * addresses in the local mapping.
 */

#pragma once

#include "mem/machine.hh"
#include "os/page_table.hh"

namespace cxlfork::cxl {

/**
 * Rewrites checkpointed leaves between absolute CXL addresses and
 * device offsets. It counts the leaves and PTEs of each direction into
 * the machine's registry (`cxl.rebase.*`, `cxl.derebase.*`) through
 * handles it looks up once, not twice per leaf.
 */
class LeafRebaser
{
  public:
    explicit LeafRebaser(const mem::Machine &machine);

    /**
     * Rewrite every present PTE in a checkpointed leaf from absolute
     * CXL physical addresses to device offsets. All frames must live on
     * the CXL device (the checkpoint copied them there first).
     */
    void rebase(os::TablePage &leaf);

    /** Inverse of rebase() for the local device mapping. */
    void derebase(os::TablePage &leaf);

  private:
    const mem::Machine &machine_;
    sim::LazyCounter rebaseLeaves_;
    sim::LazyCounter rebasePtes_;
    sim::LazyCounter derebaseLeaves_;
    sim::LazyCounter derebasePtes_;
};

/** True if every present PTE in the leaf is in rebased (offset) form. */
bool leafIsRebased(const os::TablePage &leaf);

/** True if no present PTE in the leaf is in rebased form. */
bool leafIsAbsolute(const os::TablePage &leaf);

} // namespace cxlfork::cxl
