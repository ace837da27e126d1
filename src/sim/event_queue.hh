/**
 * @file
 * A discrete event queue for the cluster-level (CXLporter) simulation.
 *
 * Events are (time, sequence, callback) triples; ties break by insertion
 * order so runs are deterministic. (time, sequence) is a strict total
 * order, so the dispatch order does not depend on how the queue is laid
 * out internally.
 *
 * Two lanes share one sequence counter. schedule() pushes a 24-byte key
 * onto a binary heap whose callbacks live in a slab with a free list, so
 * sifting never moves a std::function. scheduleSorted() appends to a
 * FIFO lane for streams whose times never decrease, such as a trace's
 * arrivals, which then cost nothing to order. step() dispatches
 * whichever lane's head is earlier by (time, sequence).
 */

#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "time.hh"

namespace cxlfork::sim {

/** Deterministic discrete event scheduler. */
class EventQueue
{
  public:
    using Callback = std::function<void()>;

    /** Schedule a callback at absolute simulated time t (>= now). */
    void schedule(SimTime t, Callback cb);

    /** Schedule a callback after a delay relative to now. */
    void scheduleAfter(SimTime delay, Callback cb) { schedule(now_ + delay, std::move(cb)); }

    /**
     * Schedule a callback at t (>= now) on the sorted lane. t must not
     * be earlier than the previous scheduleSorted() time; dispatch order
     * is the same as if schedule() had been called.
     */
    void scheduleSorted(SimTime t, Callback cb);

    /** Current simulated time (time of the last dispatched event). */
    SimTime now() const { return now_; }

    bool empty() const { return heap_.empty() && lane_.empty(); }
    size_t pending() const { return heap_.size() + lane_.size(); }

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

    static bool
    before(const Key &a, const Key &b)
    {
        if (a.when != b.when)
            return a.when < b.when;
        return a.seq < b.seq;
    }

    /** std heap comparator: heap_.front() is the earliest key. */
    static bool later(const Key &a, const Key &b) { return before(b, a); }

    Key makeKey(SimTime t, Callback cb);
    /** True if the earliest pending event is on the heap, not the lane. */
    bool heapFirst() const;

    std::vector<Key> heap_; ///< Min-heap by before().
    std::deque<Key> lane_;  ///< Sorted by before() by construction.
    std::vector<Callback> slots_;
    std::vector<uint32_t> freeSlots_;
    SimTime now_;
    uint64_t nextSeq_ = 0;
};

} // namespace cxlfork::sim
