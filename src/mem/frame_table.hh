/**
 * @file
 * FrameTable: per-frame side state indexed by frame number.
 *
 * Layers that keep bookkeeping per CXL frame (the coherence
 * directory's lines, the page store's content slots) key it by the
 * frame's index within its tier. A dense table turns each lookup into
 * two shifts and a load, where a std::map or unordered_map paid a tree
 * walk or a hash probe plus a heap node per entry.
 *
 * Storage grows in fixed chunks of kChunkEntries, allocated on first
 * touch. Nothing ever moves, so a reference into the table stays
 * valid however many later chunks are created. Chunks are small enough
 * to come from the heap rather than fresh mmapped zero pages, which a
 * table sized up front for the whole device would pay on every setup.
 */

#pragma once

#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

namespace cxlfork::mem {

template <typename T>
class FrameTable
{
  public:
    static constexpr uint64_t kChunkShift = 10;
    static constexpr uint64_t kChunkEntries = uint64_t(1) << kChunkShift;

    /** The entry at index i, or null if at(i) was never called. */
    T *
    find(uint64_t i)
    {
        Chunk *c = chunkOf(i);
        const uint64_t j = i & kMask;
        return c && c->isTouched(j) ? &c->entries[j] : nullptr;
    }

    const T *
    find(uint64_t i) const
    {
        return const_cast<FrameTable *>(this)->find(i);
    }

    /** The entry at index i, default-constructed on first touch. */
    T &
    at(uint64_t i)
    {
        const uint64_t ci = i >> kChunkShift;
        if (ci >= chunks_.size()) [[unlikely]]
            chunks_.resize(ci + 1);
        if (!chunks_[ci]) [[unlikely]]
            chunks_[ci] = std::make_unique<Chunk>();
        Chunk &c = *chunks_[ci];
        const uint64_t j = i & kMask;
        c.touched[j / 64] |= uint64_t(1) << (j % 64);
        return c.entries[j];
    }

    /**
     * Forget entry i (the caller has reset it): find() and forEach()
     * skip it until at() touches it again.
     */
    void
    untouch(uint64_t i)
    {
        if (Chunk *c = chunkOf(i)) {
            const uint64_t j = i & kMask;
            c->touched[j / 64] &= ~(uint64_t(1) << (j % 64));
        }
    }

    /** Visit every touched entry as fn(index, entry), ascending. */
    template <typename Fn>
    void
    forEach(Fn &&fn)
    {
        for (uint64_t ci = 0; ci < chunks_.size(); ++ci) {
            Chunk *c = chunks_[ci].get();
            if (!c)
                continue;
            for (uint64_t w = 0; w < kWords; ++w) {
                for (uint64_t bits = c->touched[w]; bits; bits &= bits - 1) {
                    const uint64_t j = w * 64 + std::countr_zero(bits);
                    fn((ci << kChunkShift) | j, c->entries[j]);
                }
            }
        }
    }

    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        const_cast<FrameTable *>(this)->forEach(
            [&](uint64_t i, T &e) { fn(i, static_cast<const T &>(e)); });
    }

  private:
    static constexpr uint64_t kMask = kChunkEntries - 1;
    static constexpr uint64_t kWords = kChunkEntries / 64;

    struct Chunk
    {
        T entries[kChunkEntries]{};
        uint64_t touched[kWords]{};

        bool
        isTouched(uint64_t j) const
        {
            return touched[j / 64] >> (j % 64) & 1;
        }
    };

    Chunk *
    chunkOf(uint64_t i) const
    {
        const uint64_t ci = i >> kChunkShift;
        return ci < chunks_.size() ? chunks_[ci].get() : nullptr;
    }

    std::vector<std::unique_ptr<Chunk>> chunks_;
};

} // namespace cxlfork::mem
