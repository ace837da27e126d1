/**
 * @file
 * The page store's content index: content hash -> the oldest live
 * frame whose contents hash there (younger ones chain through the
 * store's per-frame slots).
 *
 * A flat open-addressing table: linear probing from a Fibonacci hash
 * of the key, power-of-two capacity kept at most half full, deletion
 * by backward shift so no tombstones build up. A lookup touches one or
 * two adjacent cache lines and an entry costs no heap node.
 */

#pragma once

#include <cstdint>
#include <utility>
#include <vector>

namespace cxlfork::cxl {

class ContentIndex
{
  public:
    /** Head value meaning "no frame"; never a live frame number. */
    static constexpr uint32_t kNone = ~uint32_t(0);

    struct Entry
    {
        uint64_t hash = 0;
        uint32_t head = kNone; ///< Oldest frame filed under `hash`.
    };

    /** The entry filed under `hash`, or null. */
    Entry *
    find(uint64_t hash)
    {
        if (table_.empty())
            return nullptr;
        for (size_t i = home(hash);; i = (i + 1) & mask()) {
            Entry &e = table_[i];
            if (e.head == kNone)
                return nullptr;
            if (e.hash == hash)
                return &e;
        }
    }

    /**
     * File `frame` as the head for `hash` unless one is there.
     * @return the entry, and whether `frame` was inserted.
     */
    std::pair<Entry *, bool>
    tryEmplace(uint64_t hash, uint32_t frame)
    {
        if (2 * (size_ + 1) > table_.size())
            grow();
        size_t i = home(hash);
        for (; table_[i].head != kNone; i = (i + 1) & mask()) {
            if (table_[i].hash == hash)
                return {&table_[i], false};
        }
        table_[i] = Entry{hash, frame};
        ++size_;
        return {&table_[i], true};
    }

    /** Remove an entry find() or tryEmplace() returned. */
    void
    erase(Entry *e)
    {
        // Backward shift: pull each later entry of the probe run into
        // the hole when its home lies cyclically at or before the hole.
        size_t hole = size_t(e - table_.data());
        for (size_t j = (hole + 1) & mask(); table_[j].head != kNone;
             j = (j + 1) & mask()) {
            const size_t h = home(table_[j].hash);
            if (((j - h) & mask()) >= ((j - hole) & mask())) {
                table_[hole] = table_[j];
                hole = j;
            }
        }
        table_[hole].head = kNone;
        --size_;
    }

    size_t size() const { return size_; }

    /** Visit every entry as fn(hash, head), in table order. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (const Entry &e : table_) {
            if (e.head != kNone)
                fn(e.hash, e.head);
        }
    }

  private:
    size_t mask() const { return table_.size() - 1; }

    size_t
    home(uint64_t hash) const
    {
        return size_t((hash * 0x9e3779b97f4a7c15ull) >> shift_);
    }

    void
    grow()
    {
        std::vector<Entry> old(table_.empty() ? 64 : table_.size() * 2);
        old.swap(table_);
        shift_ = 64 - uint32_t(__builtin_ctzll(table_.size()));
        for (const Entry &e : old) {
            if (e.head == kNone)
                continue;
            size_t i = home(e.hash);
            while (table_[i].head != kNone)
                i = (i + 1) & mask();
            table_[i] = e;
        }
    }

    std::vector<Entry> table_;
    uint32_t shift_ = 64;
    size_t size_ = 0;
};

} // namespace cxlfork::cxl
