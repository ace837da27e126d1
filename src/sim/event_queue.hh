/**
 * @file
 * A discrete event queue for the cluster-level (CXLporter) simulation.
 *
 * Events are (time, sequence, callback) triples; ties break by insertion
 * order so runs are deterministic. (time, sequence) is a strict total
 * order, so the dispatch order does not depend on how the queue is laid
 * out internally.
 *
 * One binary heap and kLanes sorted FIFO lanes share one sequence
 * counter. schedule() pushes a 24-byte key onto the heap, whose
 * callbacks live in a slab with a free list, so sifting never moves a
 * std::function. scheduleSorted() appends to one of the lanes, each a
 * ring buffer for a stream whose times never decrease (a trace's
 * arrivals, timers with one fixed delay), which then costs nothing to
 * order. step() dispatches the earliest of the heap front and the lane
 * heads by (time, sequence).
 *
 * The queue also counts its own work (heap pushes, pushes per lane,
 * dispatches) in plain integers that no clock or RNG touches, so a
 * test can pin them exactly on any host.
 */

#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "time.hh"

namespace cxlfork::sim {

/** Deterministic discrete event scheduler. */
class EventQueue
{
  public:
    using Callback = std::function<void()>;

    /** Number of sorted lanes scheduleSorted() can address. */
    static constexpr size_t kLanes = 8;

    /** Deterministic work counts since construction. */
    struct Counters
    {
        uint64_t heapPushes = 0;
        std::array<uint64_t, kLanes> lanePushes{};
        uint64_t dispatches = 0;
    };

    /** Schedule a callback at absolute simulated time t (>= now). */
    void schedule(SimTime t, Callback cb);

    /** Schedule a callback after a delay relative to now. */
    void scheduleAfter(SimTime delay, Callback cb) { schedule(now_ + delay, std::move(cb)); }

    /**
     * Schedule a callback at t (>= now) on sorted lane `lane`. t must
     * not be earlier than the previous time scheduled on that lane;
     * dispatch order is the same as if schedule() had been called.
     */
    void scheduleSorted(SimTime t, Callback cb, size_t lane = 0);

    /**
     * Make room for n more events on sorted lane `lane`, so that
     * scheduling them does not reallocate.
     */
    void reserveSorted(size_t lane, size_t n);

    /** Current simulated time (time of the last dispatched event). */
    SimTime now() const { return now_; }

    bool empty() const { return pending_ == 0; }
    size_t pending() const { return pending_; }

    const Counters &counters() const { return counters_; }

    /** Dispatch the single earliest event. Returns false if none. */
    bool step();

    /** Run until the queue drains or time exceeds the horizon. */
    void run(SimTime horizon = SimTime::sec(1e18));

  private:
    /** Heap and lane entry; the callback lives in slots_[slot]. */
    struct Key
    {
        SimTime when;
        uint64_t seq;
        uint32_t slot;
    };

    /** A FIFO ring of keys; the capacity is a power of two. */
    class Lane
    {
      public:
        bool empty() const { return size_ == 0; }
        const Key &front() const { return ring_[head_]; }
        const Key &back() const { return ring_[(head_ + size_ - 1) & mask()]; }
        /** Grow the ring to hold at least n more keys. */
        void reserve(size_t n);
        void
        push(const Key &k)
        {
            if (size_ == ring_.size())
                reserve(1);
            ring_[(head_ + size_) & mask()] = k;
            ++size_;
        }
        void
        pop()
        {
            head_ = (head_ + 1) & mask();
            --size_;
        }

      private:
        size_t mask() const { return ring_.size() - 1; }

        std::vector<Key> ring_;
        size_t head_ = 0;
        size_t size_ = 0;
    };

    static bool
    before(const Key &a, const Key &b)
    {
        if (a.when != b.when)
            return a.when < b.when;
        return a.seq < b.seq;
    }

    /** std heap comparator: heap_.front() is the earliest key. */
    static bool later(const Key &a, const Key &b) { return before(b, a); }

    /** Where the earliest pending event waits (kHeap: on the heap). */
    static constexpr size_t kHeap = kLanes;

    Key makeKey(SimTime t, Callback cb);
    /** Source of the earliest pending event; the queue is non-empty. */
    size_t earliest() const;
    /** Pop the head of `source` and run its callback. */
    void dispatch(size_t source);
    const Key &head(size_t source) const
    {
        return source == kHeap ? heap_.front() : lanes_[source].front();
    }

    std::vector<Key> heap_; ///< Min-heap by before().
    std::array<Lane, kLanes> lanes_; ///< Each sorted by construction.
    size_t lanesUsed_ = 0;  ///< 1 + the highest lane ever scheduled on.
    std::vector<Callback> slots_;
    std::vector<uint32_t> freeSlots_;
    SimTime now_;
    uint64_t nextSeq_ = 0;
    size_t pending_ = 0;
    Counters counters_;
};

} // namespace cxlfork::sim
