/**
 * @file
 * A 4-level radix page table whose table pages are simulated frames.
 *
 * This is the structure CXLfork manipulates: leaves (last-level PTE
 * pages) can be *sealed* and *attached*. A sealed leaf is a
 * checkpointed table page living on the CXL device; it may be shared
 * read-only by many processes on many nodes (paper Fig. 5). The OS may
 * not modify a sealed leaf in place — an attempted modification clones
 * the leaf into node-local memory first (leaf CoW, paper Sec. 4.2.1).
 * Hardware Accessed-bit updates are permitted on sealed leaves; that is
 * what drives hybrid tiering's working-set estimation (Sec. 4.3).
 */

#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>

#include "mem/machine.hh"
#include "mem/types.hh"
#include "pte.hh"
#include "sim/clock.hh"
#include "work.hh"

namespace cxlfork::os {

/** One 4 KB table page: 512 PTEs (leaf) or 512 child pointers. */
class TablePage
{
  public:
    static constexpr uint32_t kEntries = 512;

    TablePage(int level, mem::PhysAddr backing, bool owned)
        : level_(level), backing_(backing), ownedBacking_(owned)
    {
        if (level_ == 0)
            ptes_ = std::make_unique<std::array<Pte, kEntries>>();
        else
            children_ = std::make_unique<ChildArray>();
    }

    int level() const { return level_; }
    mem::PhysAddr backing() const { return backing_; }
    void rebase(mem::PhysAddr b, bool owned) { backing_ = b; ownedBacking_ = owned; }
    bool ownsBacking() const { return ownedBacking_; }

    bool sealed() const { return sealed_; }
    void seal() { sealed_ = true; }

    /** Leaf access. */
    Pte &pte(uint32_t i) { return (*ptes_)[i]; }
    const Pte &pte(uint32_t i) const { return (*ptes_)[i]; }

    /** Interior access. */
    std::shared_ptr<TablePage> &child(uint32_t i) { return (*children_)[i]; }
    const std::shared_ptr<TablePage> &child(uint32_t i) const { return (*children_)[i]; }

    /** Number of present PTEs (leaf only). */
    uint32_t presentCount() const;

    /** Deep copy of a leaf's PTE array into a new TablePage. */
    std::unique_ptr<TablePage>
    cloneLeaf(mem::PhysAddr newBacking, bool owned) const;

  private:
    using ChildArray = std::array<std::shared_ptr<TablePage>, kEntries>;

    int level_;
    mem::PhysAddr backing_;
    bool ownedBacking_;
    bool sealed_ = false;
    std::unique_ptr<std::array<Pte, kEntries>> ptes_; ///< level 0 only
    std::unique_ptr<ChildArray> children_;            ///< levels 1..3 only
};

/** Result of an OS-level PTE store. */
struct SetPteResult
{
    bool leafCow = false;   ///< A sealed leaf was cloned to local memory.
    bool created = false;   ///< New intermediate table pages were allocated.
};

/** The per-process 4-level page table. */
class PageTable
{
  public:
    /**
     * @param machine The machine (frame ownership and tiers).
     * @param tableFrames Allocator for this process's own table pages
     *        (normally the owning node's DRAM).
     * @param clock Clock charged for table-page allocation and PTE
     *        writes; fault-path costs are charged by the fault handler.
     * @param work Counts this table's leaf walks (normally the owning
     *        node's); nullptr counts into a private tally.
     */
    PageTable(mem::Machine &machine, mem::FrameAllocator &tableFrames,
              sim::SimClock &clock, WorkCounters *work = nullptr);
    ~PageTable();

    PageTable(const PageTable &) = delete;
    PageTable &operator=(const PageTable &) = delete;

    /** Hardware-style lookup; a zero Pte means not present. */
    Pte lookup(mem::VirtAddr va) const;

    /**
     * The PTE slot for va, or nullptr when no leaf covers it. One walk
     * serves both a read and a hardware A/D update through the pointer
     * (legal on sealed leaves, as in hwSetAccessedDirty). The pointer
     * is void after the next setPte, attachLeaf or unmapRange, any of
     * which may clone or detach the leaf.
     */
    Pte *findPte(mem::VirtAddr va);

    /**
     * OS-level PTE store. Creates intermediate levels on demand;
     * clones sealed leaves (leaf CoW) before modifying them.
     */
    SetPteResult setPte(mem::VirtAddr va, Pte pte);

    /**
     * The leaf setPte(vpn) would store into, found by one walk: created
     * if absent, a sealed one cloned first. A run of stores into the
     * one leaf then goes through storePte() with no further walk. The
     * reference is void after the next setPte, attachLeaf or
     * unmapRange.
     */
    TablePage &leafForStore(uint64_t vpn);

    /**
     * setPte's store into the leaf leafForStore(vpn) returned: releases
     * the process-owned frame it replaces and charges one PTE write.
     */
    void
    storePte(TablePage &leaf, uint64_t vpn, Pte pte)
    {
        Pte &slot = leaf.pte(indexAt(vpn, 0));
        // Overwriting a live translation releases the process-owned
        // frame it mapped (checkpoint-owned frames belong to their
        // image).
        if (slot.present() && !slot.cxlCheckpoint() &&
            slot.frame() != pte.frame()) {
            machine_.putFrame(slot.frame());
        }
        slot = pte;
        clock_.advance(machine_.costs().pteWrite);
    }

    /**
     * Remove translations in [lo, hi) and release process-owned frames
     * (present PTEs without the SoftCxl checkpoint-ownership bit).
     * Sealed leaves are detached wholesale, never modified.
     */
    void unmapRange(mem::VirtAddr lo, mem::VirtAddr hi);

    /**
     * Attach a (typically sealed, CXL-resident) leaf so it serves
     * translations for its 2 MB slot. Constant-time restore primitive
     * (paper Fig. 5). The slot must be empty.
     */
    void attachLeaf(uint64_t leafBaseVpn, std::shared_ptr<TablePage> leaf);

    /** The leaf covering a VPN, or nullptr. */
    std::shared_ptr<TablePage> leafFor(uint64_t vpn) const;

    /**
     * Iterate present PTEs in [lo, hi). The callback may flip A/D bits
     * (hardware-walker semantics, legal even on sealed leaves) but must
     * not remap; use setPte for OS-level changes.
     */
    void forEachPresent(mem::VirtAddr lo, mem::VirtAddr hi,
                        const std::function<void(mem::VirtAddr, Pte &)> &fn);

    /** Iterate every leaf table page with its base VPN. */
    void forEachLeaf(
        const std::function<void(uint64_t baseVpn, TablePage &)> &fn);

    /**
     * Clear all Accessed bits (the user-space reset interface). With
     * alsoDirty, clear Dirty bits too — what CXLporter does after a
     * function's first invocation so checkpointed A/D capture the
     * steady state rather than initialization (paper Sec. 5).
     */
    void clearAccessedBits(bool alsoDirty = false);

    /**
     * Hardware-walker A/D update on the PTE mapping va. Legal on sealed
     * leaves (that is how hybrid tiering's working-set estimation
     * works); free of simulated cost, like the real walker.
     */
    void hwSetAccessedDirty(mem::VirtAddr va, bool write);

    /** Resident page counts, split by tier. */
    struct Residency
    {
        uint64_t localPages = 0;
        uint64_t cxlPages = 0;
    };
    Residency residency() const;

    /** Table pages this process itself allocated (upper levels + CoWed leaves). */
    uint64_t ownedTablePages() const { return ownedTablePages_; }
    uint64_t leafCowCount() const { return leafCowCount_; }
    uint64_t attachedLeafCount() const { return attachedLeafCount_; }

    /**
     * Enable/disable the last-leaf walk cache (on by default). The
     * cache only short-circuits the host-side pointer chase; simulated
     * costs are identical either way, so this knob exists purely for
     * A/B microbenchmarks. Disabling drops the cached entry.
     */
    void setWalkCacheEnabled(bool on);
    bool walkCacheEnabled() const { return walkCacheEnabled_; }

    TablePage &root() { return *root_; }

  private:
    static uint32_t
    indexAt(uint64_t vpn, int level)
    {
        return uint32_t((vpn >> (9 * uint32_t(level))) &
                        (TablePage::kEntries - 1));
    }

    static uint64_t leafIndexOf(uint64_t vpn) { return vpn >> 9; }

    /** True if the walk cache holds vpn's leaf, present and unsealed. */
    bool
    cachedStoreLeaf(uint64_t vpn) const
    {
        return cachedParent_ && cachedLeafIdx_ == leafIndexOf(vpn) &&
               cachedLeaf_ && !cachedLeaf_->sealed();
    }

    /**
     * setPte's walk when the cache cannot serve it: create or clone the
     * leaf as needed, remember it, and say which in res.
     */
    TablePage &walkForStore(uint64_t vpn, SetPteResult &res);

    /** Walk to the leaf for vpn, optionally creating intermediate pages. */
    TablePage *walk(uint64_t vpn, bool create);

    /** Walk to the level-1 page holding the leaf pointer for a slot. */
    TablePage *walkToParentOfLeaf(uint64_t vpn, bool create);

    std::unique_ptr<TablePage> makeTablePage(int level);
    std::shared_ptr<TablePage> cowSealedLeaf(TablePage *parent, uint32_t idx);
    void releaseSubtree(TablePage &page);

    void
    rememberWalk(uint64_t leafIdx, TablePage *parent, TablePage *leaf)
    {
        if (!walkCacheEnabled_)
            return;
        cachedLeafIdx_ = leafIdx;
        cachedParent_ = parent;
        cachedLeaf_ = leaf;
    }

    void
    invalidateWalkCache()
    {
        cachedLeafIdx_ = ~0ull;
        cachedParent_ = nullptr;
        cachedLeaf_ = nullptr;
    }

    mem::Machine &machine_;
    mem::FrameAllocator &tableFrames_;
    sim::SimClock &clock_;
    /**
     * The node this table belongs to, derived from the table-frame
     * allocator's window (shootdown-time directory evictions need a
     * node identity and the PageTable predates per-node plumbing).
     */
    mem::NodeId nodeId_ = 0;
    WorkCounters ownWork_;
    WorkCounters *work_;
    std::shared_ptr<TablePage> root_;
    uint64_t ownedTablePages_ = 0;
    uint64_t leafCowCount_ = 0;
    uint64_t attachedLeafCount_ = 0;

    // Last-leaf walk cache: checkpoint/restore touch pages in VPN
    // order, so consecutive setPte/lookup calls overwhelmingly land in
    // the same 2 MB leaf. Caching the level-1 parent and the leaf for
    // the last-walked slot turns those into O(1) host work. Any
    // structural change to a leaf slot (leaf CoW, attach, detach)
    // invalidates the entry; a cached null leaf records "slot empty".
    bool walkCacheEnabled_ = true;
    uint64_t cachedLeafIdx_ = ~0ull;
    TablePage *cachedParent_ = nullptr;
    TablePage *cachedLeaf_ = nullptr;
};

} // namespace cxlfork::os
