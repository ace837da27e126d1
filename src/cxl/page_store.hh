/**
 * @file
 * Content-addressed, refcounted page pool on the CXL tier.
 *
 * Every checkpoint page a mechanism materializes on the shared device
 * goes through intern(): the frame's contents are hashed (64-bit, and
 * any candidate with the same hash is confirmed by a byte compare, so
 * hash collisions can never alias two different pages), and a frame
 * already holding identical bytes is shared — across functions, users,
 * and re-checkpoints — by taking one more reference instead of writing
 * a duplicate. The allocator's per-frame refcount is the single source
 * of truth for sharing; the store only adds the content index that
 * finds share candidates.
 *
 * With dedup disabled (the default) intern() degenerates to a plain
 * allocation with zero bookkeeping, keeping every existing bench
 * bit-identical. Restore-side sharing needs no new machinery: restored
 * children attach checkpoint frames read-only and the existing CXL CoW
 * fault path breaks sharing on write (checkpoint PTE mappings hold no
 * frame references, so images — and through them this store — remain
 * the sole owners).
 */

#pragma once

#include <cstdint>
#include <string>

#include "content_index.hh"
#include "mem/frame_table.hh"
#include "mem/machine.hh"
#include "sim/clock.hh"

namespace cxlfork::cxl {

class RasManager;

/** PageStore tunables. */
struct PageStoreConfig
{
    /**
     * Content-address checkpoint pages and share identical ones. Off
     * by default: the store is then a pass-through allocator and every
     * simulated cost stays bit-identical to the pre-dedup code.
     */
    bool dedup = false;

    /**
     * Width of the content hash used for bucketing, in bits. The full
     * 64 in production; tests narrow it to force hash collisions and
     * exercise the byte-compare confirmation path.
     */
    uint32_t hashBits = 64;

    /**
     * Arm the codec pipeline: pages are classified at intern time
     * (zero-page elision, delta-vs-parent, RLE, or incompressible) and
     * stored at their modeled compressed size; the compress cost is
     * charged at intern and the decompress cost once, on the first
     * checked read that materializes the page. Off by default: every
     * intern stores kPageSize and no codec cost exists, bit-identical
     * to the uncompressed tree. Composes with dedup: a dedup hit means
     * the compressed page is already stored, so nothing new is written
     * or compressed.
     */
    bool compress = false;
};

/** How the codec pipeline stored one page. */
enum class CodecClass : uint8_t
{
    Raw,   ///< Incompressible; stored at full size.
    Zero,  ///< Zero page: elided, only a manifest note is stored.
    Delta, ///< Delta-coded against a parent page (holds a parent ref).
    Rle,   ///< Run-length coded.
};

/** Result of one intern(): the frame, and what this intern stored. */
struct InternResult
{
    mem::PhysAddr addr{0};
    bool shared = false; ///< An existing identical page was reused.

    /**
     * Bytes this intern newly wrote to the device: kPageSize with the
     * codec off (bit-identical to the pre-codec tree), the modeled
     * compressed size with it on, 0 for a dedup hit (the bytes were
     * already stored). Callers charge their device-write bandwidth
     * over this instead of a flat page.
     */
    uint64_t storedBytes = mem::kPageSize;
};

/** Bookkeeping cross-check (see FrameAllocator::auditLive). */
struct PageStoreAudit
{
    uint64_t uniquePages = 0; ///< Live content-indexed pages.
    uint64_t codecPages = 0;  ///< Live codec-tracked pages.
    bool consistent = true;
    std::string detail;
};

/**
 * The content-addressed page pool of one CXL device. With the codec
 * pipeline armed the store is also the machine's codec stage: checked
 * reads of compressed pages charge their one-time decompress latency
 * through it, and the allocator's free notification drops codec
 * metadata (and delta parent references) when a frame dies.
 */
class PageStore : public mem::FabricStage
{
  public:
    explicit PageStore(mem::Machine &machine, PageStoreConfig cfg = {});
    ~PageStore() override;

    PageStore(const PageStore &) = delete;
    PageStore &operator=(const PageStore &) = delete;

    bool dedupEnabled() const { return cfg_.dedup; }
    bool compressEnabled() const { return cfg_.compress; }

    /**
     * Attach the fabric's RAS manager. Interned frames then get write-
     * verified at birth, hot frames (refcount at the replication
     * threshold) get replicated, and frees drop replicas. Attaching a
     * disabled (or null) manager leaves the store exactly as before.
     */
    void attachRas(RasManager *ras);
    RasManager *ras() const { return ras_; }

    /**
     * Materialize a CXL frame holding `content`. With dedup enabled, a
     * live frame with byte-identical contents is shared (one extra
     * reference, one collision-check read charged to `clock`) instead
     * of allocated; a miss allocates and indexes the new frame. The
     * caller owns one reference either way and must return it through
     * release(). The data-write cost of a miss stays with the caller —
     * exactly where it was before the store existed. `node` attributes
     * the collision-check read to the interning node so an installed
     * link-health model applies that node's link state; the default
     * leaves the read unattributed (pre-partition behavior).
     */
    InternResult intern(uint64_t content, mem::FrameUse use,
                        sim::SimClock &clock,
                        mem::NodeId node = mem::kInvalidNode);

    /** Take one more reference on any CXL frame (store-owned or not). */
    void ref(mem::PhysAddr addr);

    /**
     * Drop one reference. Frames the store indexed are un-indexed when
     * they actually free; frames it never saw (metadata, pre-store
     * allocations) fall through to the plain allocator decRef, so
     * every owner can release uniformly through the store.
     * @return true if the frame was freed.
     */
    bool release(mem::PhysAddr addr);

    /** True if the store's content index owns this frame. */
    bool owns(mem::PhysAddr addr) const
    {
        const Slot *slot = slots_.find(slotIndexOf(addr));
        return slot && slot->indexed;
    }

    /** Live content-indexed pages (the deduplicated census). */
    uint64_t uniquePages() const { return uniquePages_; }

    /** Cross-check the content index against the frame allocator. */
    PageStoreAudit audit() const;

    /** Codec class the pipeline stored this frame under (tests). */
    CodecClass codecClassOf(mem::PhysAddr addr) const;

    /** Live codec-tracked pages (drains to zero with the refcounts). */
    uint64_t codecPages() const { return codecPages_; }

    // mem::FabricStage — the machine calls these on checked CXL reads
    // (charge a pending decompress) and on frame frees; both are no-ops
    // for untracked frames.
    void onTxn(mem::Txn &t) override;
    void frameFreed(uint32_t frame) override;

  private:
    /** Slot link/parent value meaning "no frame". */
    static constexpr uint32_t kNoFrame = ~uint32_t(0);

    /**
     * Per-frame store state, indexed by CXL frame number. The content
     * index half (`indexed`, `hash`, `next`) is live while the frame is
     * store-owned; the codec half (`codec` onwards) while the frame
     * holds a compressed page. Both halves clear when the frame frees.
     */
    struct Slot
    {
        uint64_t hash = 0;          ///< Content hash, while indexed.
        uint32_t next = kNoFrame;   ///< Next (younger) frame in chain.
        uint32_t parent = kNoFrame; ///< Delta parent (one ref held).
        uint32_t storedBytes = 0;
        CodecClass cls = CodecClass::Raw;
        bool indexed = false;
        bool codec = false;         ///< Codec metadata below is live.
        bool pendingDecompress = false;
    };
    static_assert(sizeof(Slot) <= 24, "a page-store slot must stay small");

    uint64_t slotIndexOf(mem::PhysAddr addr) const
    {
        return machine_.cxl().frameNumber(addr);
    }

    uint64_t hashContent(uint64_t content) const;
    /** Fill the codec half of `slot` for a page holding `content`. */
    void classify(uint64_t content, Slot &slot) const;
    uint64_t recordCompressed(mem::PhysAddr addr, uint64_t content,
                              sim::SimClock &clock);
    /** Append a freshly allocated frame to its hash chain's tail. */
    void index(mem::PhysAddr addr, uint64_t hash);
    /** Unlink a freed frame from its hash chain (no-op if unindexed). */
    void unindex(mem::PhysAddr addr);

    mem::Machine &machine_;
    PageStoreConfig cfg_;
    RasManager *ras_ = nullptr;

    /**
     * Content hash -> the oldest live frame whose contents hash there;
     * younger ones follow through Slot::next, so candidates compare
     * oldest first.
     */
    ContentIndex index_;
    /** Per-frame slots. The pass-through store never touches them. */
    mem::FrameTable<Slot> slots_;
    uint64_t uniquePages_ = 0;
    uint64_t codecPages_ = 0;

    /**
     * The most recent standalone (raw/RLE) stored page: the parent the
     * next delta-classified intern codes against. Cleared when the
     * anchor frame frees so a dead frame is never re-referenced.
     */
    mem::PhysAddr deltaAnchor_{0};

    sim::Counter *hitsCounter_ = nullptr;
    sim::Counter *uniqueCounter_ = nullptr;
    sim::Counter *bytesSavedCounter_ = nullptr;
    sim::Counter *collisionsCounter_ = nullptr;
    sim::Counter *compressPagesCounter_ = nullptr;
    sim::Counter *compressStoredCounter_ = nullptr;
    sim::Counter *compressSavedCounter_ = nullptr;
    sim::Counter *compressZeroCounter_ = nullptr;
    sim::Counter *compressDeltaCounter_ = nullptr;
    sim::Counter *compressRleCounter_ = nullptr;
    sim::Counter *compressRawCounter_ = nullptr;
    sim::Counter *decompressCounter_ = nullptr;
    sim::Counter *decompressNsCounter_ = nullptr;
};

} // namespace cxlfork::cxl
