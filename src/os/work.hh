/**
 * @file
 * Deterministic host-work counts of the per-page OS paths.
 *
 * Plain integers the page table, the VMA tree and the CRIU restore loop
 * bump as they work. They count what the host did, not what the model
 * charged: no clock, RNG stream, metric or span ever reads them, so
 * they cannot move a simulated result. Pinned for fixed restores, they
 * turn an algorithmic regression (a second page-table walk, a map
 * descent a cursor should have served) into a failure on any host.
 */

#pragma once

#include <cstdint>

namespace cxlfork::os {

/** Work counts shared by every address space of one node. */
struct WorkCounters
{
    uint64_t ptWalksRoot = 0;   ///< Leaf walks that descended from the root.
    uint64_t ptWalksCached = 0; ///< Leaf walks the last-leaf cache served.
    uint64_t vmaDescents = 0;   ///< VmaTree::findLocal map descents.
    uint64_t vmaCursorHits = 0; ///< findLocal answers from its cursor.
    uint64_t criuPagesDecoded = 0; ///< CRIU page records decoded on restore.

    bool operator==(const WorkCounters &) const = default;
};

} // namespace cxlfork::os
