#include "page_store.hh"

#include "ras.hh"
#include "sim/fault_injector.hh"
#include "sim/log.hh"

namespace cxlfork::cxl {

namespace {

/** splitmix64 finalizer: the 64-bit content hash. */
uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

} // namespace

PageStore::PageStore(mem::Machine &machine, PageStoreConfig cfg)
    : machine_(machine), cfg_(cfg)
{
    if (cfg_.hashBits == 0 || cfg_.hashBits > 64)
        sim::fatal("PageStore: hashBits must be in [1, 64]");
    if (cfg_.deltaFrac < 0.0 || cfg_.rleFrac < 0.0 ||
        cfg_.deltaFrac + cfg_.rleFrac > 1.0) {
        sim::fatal("PageStore: deltaFrac/rleFrac must be nonnegative and "
                   "sum to at most 1");
    }
    if (machine_.cxl().capacityBytes() / mem::kPageSize > kNoFrame)
        sim::fatal("PageStore: slot links hold 32-bit frame numbers");
    sim::MetricsRegistry &m = machine_.metrics();
    hitsCounter_ = &m.counter("cxl.dedup.hits");
    uniqueCounter_ = &m.counter("cxl.dedup.unique");
    bytesSavedCounter_ = &m.counter("cxl.dedup.bytes_saved");
    collisionsCounter_ = &m.counter("cxl.dedup.collisions");
    compressPagesCounter_ = &m.counter("cxl.compress.pages");
    compressStoredCounter_ = &m.counter("cxl.compress.bytes_stored");
    compressSavedCounter_ = &m.counter("cxl.compress.bytes_saved");
    compressZeroCounter_ = &m.counter("cxl.compress.zero");
    compressDeltaCounter_ = &m.counter("cxl.compress.delta");
    compressRleCounter_ = &m.counter("cxl.compress.rle");
    compressRawCounter_ = &m.counter("cxl.compress.raw");
    decompressCounter_ = &m.counter("cxl.compress.decompressions");
    decompressNsCounter_ = &m.counter("cxl.compress.decompress_ns");
    // Armed codec <=> installed stage: the machine then routes checked
    // CXL reads and frame frees back through this store, so decompress
    // charging and metadata cleanup cannot be forgotten by a caller.
    if (cfg_.compress)
        machine_.installStage(mem::StageKind::Codec, this);
}

PageStore::~PageStore()
{
    if (machine_.stage(mem::StageKind::Codec) == this)
        machine_.installStage(mem::StageKind::Codec, nullptr);
}

void
PageStore::attachRas(RasManager *ras)
{
    ras_ = ras && ras->enabled() ? ras : nullptr;
}

uint64_t
PageStore::hashContent(uint64_t content) const
{
    const uint64_t h = mix64(content);
    return cfg_.hashBits >= 64 ? h : h & ((uint64_t(1) << cfg_.hashBits) - 1);
}

void
PageStore::classify(uint64_t content, Slot &slot) const
{
    const sim::CostParams &costs = machine_.costs();
    slot.codec = true;
    slot.parent = kNoFrame;
    if (content == 0) {
        // Zero-page elision: only a manifest note is stored.
        slot.cls = CodecClass::Zero;
        slot.storedBytes = 0;
        slot.pendingDecompress = true;
        return;
    }
    // The simulator carries 64-bit content tokens, not page bytes, so
    // compressibility is modeled: a deterministic draw on the content
    // hash assigns the page a codec class with the configured
    // frequencies, and the class's stored ratio comes from CostParams
    // so sweeps can move it. Salted so the draw is independent of the
    // dedup bucketing hash.
    constexpr uint64_t kCodecSalt = 0xc0dec0dec0dec0deull;
    const double u =
        double(mix64(content ^ kCodecSalt) >> 11) * 0x1.0p-53;
    if (u < cfg_.deltaFrac && deltaAnchor_.raw != 0) {
        slot.cls = CodecClass::Delta;
        slot.storedBytes =
            uint32_t(double(mem::kPageSize) * costs.deltaRatio);
        slot.parent = uint32_t(slotIndexOf(deltaAnchor_));
        slot.pendingDecompress = true;
    } else if (u < cfg_.deltaFrac + cfg_.rleFrac) {
        slot.cls = CodecClass::Rle;
        slot.storedBytes =
            uint32_t(double(mem::kPageSize) * costs.rleRatio);
        slot.pendingDecompress = true;
    } else {
        slot.cls = CodecClass::Raw;
        slot.storedBytes = mem::kPageSize;
        slot.pendingDecompress = false; // stored uncompressed
    }
}

uint64_t
PageStore::recordCompressed(mem::PhysAddr addr, uint64_t content,
                            sim::SimClock &clock)
{
    // The compressor scans the full page whatever class it lands in —
    // finding a page incompressible costs the same pass.
    clock.advance(machine_.costs().compressCost(mem::kPageSize));
    Slot &slot = slots_.at(slotIndexOf(addr));
    CXLF_ASSERT(!slot.codec);
    classify(content, slot);
    ++codecPages_;
    switch (slot.cls) {
      case CodecClass::Zero:
        compressZeroCounter_->inc();
        break;
      case CodecClass::Delta:
        // The delta references its parent page: the parent must stay
        // live (undecayed) for as long as this page needs it.
        machine_.cxl().incRef(deltaAnchor_);
        compressDeltaCounter_->inc();
        break;
      case CodecClass::Rle:
        compressRleCounter_->inc();
        break;
      case CodecClass::Raw:
        compressRawCounter_->inc();
        break;
    }
    if (slot.cls == CodecClass::Raw || slot.cls == CodecClass::Rle)
        deltaAnchor_ = addr;
    compressPagesCounter_->inc();
    compressStoredCounter_->inc(slot.storedBytes);
    compressSavedCounter_->inc(mem::kPageSize - slot.storedBytes);
    return slot.storedBytes;
}

CodecClass
PageStore::codecClassOf(mem::PhysAddr addr) const
{
    const Slot *slot = slots_.find(slotIndexOf(addr));
    return slot && slot->codec ? slot->cls : CodecClass::Raw;
}

void
PageStore::onTxn(mem::Txn &t)
{
    Slot *slot = slots_.find(t.frame);
    if (!slot || !slot->pendingDecompress)
        return;
    sim::SimClock &clock = t.clock;
    // Charge the one-time decompress before any recursive parent read:
    // the parent fetch re-enters this stage, and clearing the flag first
    // keeps a (hypothetical) cycle from recursing forever.
    slot->pendingDecompress = false;
    const sim::CostParams &costs = machine_.costs();
    sim::SimTime cost = costs.decompressCost(slot->storedBytes);
    const uint32_t parent = slot->parent;
    const sim::SimTime before = clock.now();
    clock.advance(cost);
    if (parent != kNoFrame) {
        // Delta decode needs the parent bytes: a full checked read, so
        // a compressed or poisoned parent charges (or throws) exactly
        // as any other materialization would.
        machine_.readFrameChecked(machine_.cxl().frameAddress(parent),
                                  clock, "codec delta parent");
        clock.advance(costs.cxlRead(mem::kPageSize));
    }
    decompressCounter_->inc();
    decompressNsCounter_->inc(uint64_t((clock.now() - before).toNs()));
}

void
PageStore::frameFreed(uint32_t frame)
{
    if (deltaAnchor_.raw != 0 && slotIndexOf(deltaAnchor_) == frame)
        deltaAnchor_ = mem::PhysAddr{0};
    Slot *slot = slots_.find(frame);
    if (!slot || !slot->codec)
        return;
    const uint32_t parent = slot->parent;
    slot->codec = false;
    slot->cls = CodecClass::Raw;
    slot->storedBytes = 0;
    slot->parent = kNoFrame;
    slot->pendingDecompress = false;
    --codecPages_;
    // Dropping the delta's parent reference may free the parent in
    // turn, re-entering this stage; the allocator's decRef bookkeeping
    // is complete before it notifies, so the recursion is safe (and at
    // most one level deep — parents are never deltas).
    if (parent != kNoFrame)
        release(machine_.cxl().frameAddress(parent));
}

void
PageStore::index(mem::PhysAddr addr, uint64_t hash)
{
    const auto idx = uint32_t(slotIndexOf(addr));
    Slot &slot = slots_.at(idx);
    CXLF_ASSERT(!slot.indexed);
    slot.hash = hash;
    slot.next = kNoFrame;
    slot.indexed = true;
    ++uniquePages_;
    ++machine_.fabricWork().indexProbes;
    auto [head, fresh] = index_.tryEmplace(hash, idx);
    if (fresh)
        return;
    uint32_t tail = head->head;
    while (slots_.at(tail).next != kNoFrame)
        tail = slots_.at(tail).next;
    slots_.at(tail).next = idx;
}

void
PageStore::unindex(mem::PhysAddr addr)
{
    const auto idx = uint32_t(slotIndexOf(addr));
    Slot *slot = slots_.find(idx);
    if (!slot || !slot->indexed)
        return;
    ++machine_.fabricWork().indexProbes;
    ContentIndex::Entry *head = index_.find(slot->hash);
    CXLF_ASSERT(head);
    if (head->head == idx) {
        if (slot->next == kNoFrame)
            index_.erase(head);
        else
            head->head = slot->next;
    } else {
        uint32_t prev = head->head;
        while (slots_.at(prev).next != idx) {
            prev = slots_.at(prev).next;
            CXLF_ASSERT(prev != kNoFrame);
        }
        slots_.at(prev).next = slot->next;
    }
    slot->hash = 0;
    slot->next = kNoFrame;
    slot->indexed = false;
    --uniquePages_;
}

InternResult
PageStore::intern(uint64_t content, mem::FrameUse use, sim::SimClock &clock,
                  mem::NodeId node)
{
    if (!cfg_.dedup) {
        // Pass-through: identical to the pre-store allocation path, no
        // index, no extra cost, no counters — unless a RAS manager is
        // attached, which adds write-verify and replication, or the
        // codec pipeline is armed, which compresses the page at birth.
        mem::PhysAddr addr = machine_.cxl().alloc(use, content);
        if (ras_) {
            addr = ras_->verifiedAlloc(addr, use, content, clock);
            try {
                ras_->noteInterned(addr, clock);
            } catch (...) {
                // A crash mid-replication aborts the intern whole: the
                // caller never learns this address, so keeping the
                // frame (or its replicas) would leak it forever.
                ras_->notePrimaryFreed(addr);
                machine_.cxl().decRef(addr);
                throw;
            }
        }
        uint64_t stored = mem::kPageSize;
        if (cfg_.compress)
            stored = recordCompressed(addr, content, clock);
        return {addr, false, stored};
    }

    mem::FrameAllocator &cxl = machine_.cxl();
    const uint64_t h = hashContent(content);
    ++machine_.fabricWork().indexProbes;
    if (const ContentIndex::Entry *bucket = index_.find(h)) {
        // The hash only nominates candidates; the byte compare (one
        // mapped read of the candidate frame) decides. A same-hash,
        // different-bytes candidate is a recorded collision, never a
        // false share. Candidates compare oldest first, and the
        // collision-check read targets the oldest.
        const mem::PhysAddr oldest = cxl.frameAddress(bucket->head);
        mem::PhysAddr match{0};
        for (uint32_t i = bucket->head; i != kNoFrame;
             i = slots_.at(i).next) {
            const mem::PhysAddr cand = cxl.frameAddress(i);
            if (cxl.frame(cand).content == content) {
                match = cand;
                break;
            }
        }
        machine_.cxlTransaction(clock, "pagestore collision check", node,
                                oldest, /*isRead=*/true);
        clock.advance(machine_.costs().cxlRead(mem::kPageSize));
        if (match.raw != 0) {
            // Crash site before the only mutation (the extra ref): a
            // crash here changes no refcount and can leak nothing.
            machine_.faults().crashPoint("pagestore.hit");
            cxl.incRef(match);
            hitsCounter_->inc();
            bytesSavedCounter_->inc(mem::kPageSize);
            if (ras_) {
                try {
                    ras_->noteShared(match, clock);
                } catch (...) {
                    // Undo the hit's ref on the unwind: the caller
                    // never sees this address. The page stays indexed
                    // (its prior holders still reference it) and any
                    // replicas already placed stay owned by RAS.
                    cxl.decRef(match);
                    throw;
                }
            }
            if (machine_.tracer().enabled()) {
                machine_.tracer().instant(
                    clock, mem::kInvalidNode, "dedup_hit", "cxl.pagestore",
                    {{"hash", sim::TraceValue::of(h)}});
            }
            // The hit's bytes (compressed or not) are already on the
            // device: this intern stores nothing new.
            return {match, true, 0};
        }
        collisionsCounter_->inc();
    }

    mem::PhysAddr addr = cxl.alloc(use, content);
    if (ras_) {
        addr = ras_->verifiedAlloc(addr, use, content, clock);
        // Replicate *before* indexing: the replica write is the last
        // crash site in the intern, so a crash rolls the whole intern
        // back (frame and replicas released) instead of leaving an
        // indexed page no caller owns.
        try {
            ras_->noteInterned(addr, clock);
        } catch (...) {
            ras_->notePrimaryFreed(addr);
            cxl.decRef(addr);
            throw;
        }
    }
    index(addr, h);
    uniqueCounter_->inc();
    uint64_t stored = mem::kPageSize;
    if (cfg_.compress)
        stored = recordCompressed(addr, content, clock);
    return {addr, false, stored};
}

void
PageStore::ref(mem::PhysAddr addr)
{
    machine_.cxl().incRef(addr);
}

bool
PageStore::release(mem::PhysAddr addr)
{
    const bool freed = machine_.cxl().decRef(addr);
    // Only dedup indexes frames: the pass-through store never touches
    // the slots here.
    if (freed && cfg_.dedup)
        unindex(addr);
    if (freed && ras_)
        ras_->notePrimaryFreed(addr);
    return freed;
}

PageStoreAudit
PageStore::audit() const
{
    const mem::FrameAllocator &cxl = machine_.cxl();
    PageStoreAudit out;
    out.uniquePages = uniquePages_;
    out.codecPages = codecPages_;
    auto fail = [&](std::string why) {
        if (out.consistent) {
            out.consistent = false;
            out.detail = "pagestore: " + why;
        }
    };
    uint64_t chained = 0;
    index_.forEach([&](uint64_t h, uint32_t head) {
        // A chain longer than the census has a cycle: stop there.
        for (uint32_t i = head; i != kNoFrame && chained <= uniquePages_;) {
            ++chained;
            const mem::PhysAddr f = cxl.frameAddress(i);
            const Slot *slot = slots_.find(i);
            if (!slot || !slot->indexed) {
                fail(sim::format("frame %#llx chained but not indexed",
                                 (unsigned long long)f.raw));
                break;
            }
            if (slot->hash != h) {
                fail(sim::format("frame %#llx filed under hash %#llx, "
                                 "owns %#llx",
                                 (unsigned long long)f.raw,
                                 (unsigned long long)h,
                                 (unsigned long long)slot->hash));
            }
            // Every indexed frame must still be live, hash to its
            // bucket, and carry at least one reference.
            const mem::Frame &frame = cxl.frame(f);
            if (hashContent(frame.content) != h) {
                fail(sim::format("frame %#llx content no longer hashes "
                                 "to its bucket",
                                 (unsigned long long)f.raw));
            }
            if (frame.refcount == 0)
                fail(sim::format("indexed frame %#llx has refcount 0",
                                 (unsigned long long)f.raw));
            i = slot->next;
        }
    });
    uint64_t indexed = 0;
    uint64_t codec = 0;
    slots_.forEach([&](uint64_t idx, const Slot &slot) {
        indexed += slot.indexed;
        if (!slot.codec)
            return;
        ++codec;
        const mem::PhysAddr f = cxl.frameAddress(idx);
        if (cxl.frame(f).refcount == 0) {
            fail(sim::format("codec-tracked frame %#llx has refcount 0",
                             (unsigned long long)f.raw));
        }
        if (slot.parent == kNoFrame)
            return;
        const mem::PhysAddr parent = cxl.frameAddress(slot.parent);
        if (cxl.frame(parent).refcount == 0) {
            fail(sim::format("delta frame %#llx references freed parent "
                             "%#llx",
                             (unsigned long long)f.raw,
                             (unsigned long long)parent.raw));
        }
    });
    if (chained != indexed || indexed != uniquePages_) {
        fail(sim::format("chains hold %llu frames, %llu slots indexed, "
                         "census %llu",
                         (unsigned long long)chained,
                         (unsigned long long)indexed,
                         (unsigned long long)uniquePages_));
    }
    if (codec != codecPages_) {
        fail(sim::format("%llu slots hold codec metadata, census %llu",
                         (unsigned long long)codec,
                         (unsigned long long)codecPages_));
    }
    return out;
}

} // namespace cxlfork::cxl
