/**
 * @file
 * A discrete event queue for the cluster-level (CXLporter) simulation.
 *
 * Events are (time, sequence, payload) triples; ties break by insertion
 * order so runs are deterministic. (time, sequence) is a strict total
 * order, so the dispatch order does not depend on how the queue is laid
 * out internally.
 *
 * A payload is a 16-byte trivially copyable Event that the owner
 * interprets: a kind and two operands. step(), run() and runMerged()
 * take the handler as a callable and call it inline with each
 * dispatched Event, so scheduling and dispatching allocate nothing and
 * call through no type-erased wrapper.
 *
 * One binary heap and kLanes sorted FIFO lanes share one sequence
 * counter. schedule() pushes a 32-byte key onto the heap.
 * scheduleSorted() appends to one of the lanes, each a ring buffer for
 * a stream whose times never decrease (timers with one fixed delay),
 * which then costs nothing to order. step() dispatches the earliest of
 * the heap front and the lane heads by (time, sequence).
 *
 * A stream the owner already holds, such as a trace's arrivals, is not
 * copied into the queue: runMerged() reads it in place and dispatches
 * each arrival before every queued event at the same time, the order
 * it would have had if every arrival were scheduled before the run.
 *
 * The queue also counts its own work (heap pushes, pushes per lane,
 * dispatches, merged arrivals included) in plain integers that no
 * clock or RNG touches, so a test can pin them exactly on any host.
 */

#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <numeric>
#include <type_traits>
#include <vector>

#include "time.hh"

namespace cxlfork::sim {

/** Deterministic discrete event scheduler. */
class EventQueue
{
  public:
    /**
     * An event's payload: a kind and two operands, all the owner's to
     * interpret. Aggregate-initialise it: Event{kind, a, b}.
     */
    struct Event
    {
        uint32_t kind;
        uint32_t a;
        uint64_t b;
    };
    static_assert(sizeof(Event) == 16 &&
                  std::is_trivially_copyable_v<Event>);

    /** Number of sorted lanes scheduleSorted() can address. */
    static constexpr size_t kLanes = 8;

    /** Deterministic work counts since construction. */
    struct Counters
    {
        uint64_t heapPushes = 0;
        std::array<uint64_t, kLanes> lanePushes{};
        uint64_t dispatches = 0;
    };

    /** Schedule an event at absolute simulated time t (>= now). */
    void schedule(SimTime t, Event ev);

    /** Schedule an event after a delay relative to now. */
    void scheduleAfter(SimTime delay, Event ev) { schedule(now_ + delay, ev); }

    /**
     * Schedule an event at t (>= now) on sorted lane `lane`. t must
     * not be earlier than the previous time scheduled on that lane;
     * dispatch order is the same as if schedule() had been called.
     */
    void scheduleSorted(SimTime t, Event ev, size_t lane = 0);

    /** Current simulated time (time of the last dispatched event). */
    SimTime now() const { return now_; }

    bool empty() const { return pending_ == 0; }
    size_t pending() const { return pending_; }

    const Counters &counters() const { return counters_; }

    /**
     * Dispatch the single earliest event: handle(Event) runs with now()
     * at its time, and may schedule more. Returns false if none.
     */
    template <typename Handler>
    bool
    step(Handler &&handle)
    {
        if (empty())
            return false;
        handle(take(earliest()));
        return true;
    }

    /**
     * Dispatch events in order through handle(Event) until the queue
     * drains or the next event's time exceeds the horizon.
     */
    template <typename Handler>
    void
    run(Handler &&handle, SimTime horizon = SimTime::sec(1e18))
    {
        while (!empty()) {
            const size_t source = earliest();
            if (head(source).when > horizon.toNs())
                break;
            handle(take(source));
        }
    }

    /**
     * Dispatch n arrivals the caller holds itself merged with the
     * queued events, then drain the queue as run() does. Arrival i is
     * at arrivalAt(i) (>= now), and arrive(i) dispatches it with now()
     * at that time. Arrivals go in (time, i) order, read in index
     * order without a copy when their times never decrease. An arrival
     * goes whenever no queued event is strictly earlier, so it goes
     * before every queued event at its time, however and whenever that
     * event was scheduled. Each arrival counts as a dispatch, and each
     * dispatch scans the queue's heads once.
     */
    template <typename ArrivalAt, typename Arrive, typename Handler>
    void
    runMerged(size_t n, ArrivalAt &&arrivalAt, Arrive &&arrive,
              Handler &&handle)
    {
        std::vector<size_t> order; // empty: index order
        for (size_t i = 1; i < n; ++i) {
            if (arrivalAt(i) < arrivalAt(i - 1)) {
                order.resize(n);
                std::iota(order.begin(), order.end(), size_t(0));
                std::stable_sort(order.begin(), order.end(),
                                 [&](size_t a, size_t b) {
                                     return arrivalAt(a) < arrivalAt(b);
                                 });
                break;
            }
        }
        for (size_t k = 0; k < n;) {
            const size_t i = order.empty() ? k : order[k];
            const SimTime t = arrivalAt(i);
            if (!empty()) {
                const size_t source = earliest();
                if (head(source).when < t.toNs()) {
                    handle(take(source));
                    continue;
                }
            }
            advanceTo(t);
            ++k;
            arrive(i);
        }
        run(handle);
    }

  private:
    /**
     * Heap and lane entry. The time is kept as its nanosecond count so
     * that the key is trivial: a lane's ring is allocated without being
     * initialised.
     */
    struct Key
    {
        double when; ///< SimTime::toNs() of the event's time.
        uint64_t seq;
        Event ev;
    };
    static_assert(std::is_trivial_v<Key>);

    /** A FIFO ring of keys; the capacity is a power of two. */
    class Lane
    {
      public:
        bool empty() const { return size_ == 0; }
        const Key &front() const { return ring_[head_]; }
        const Key &back() const { return ring_[(head_ + size_ - 1) & mask()]; }
        /** Double the ring (to 16 keys if it has none). */
        void grow();
        void
        push(const Key &k)
        {
            if (size_ == capacity_)
                grow();
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
        size_t mask() const { return capacity_ - 1; }

        std::unique_ptr<Key[]> ring_;
        size_t capacity_ = 0;
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

    /**
     * std heap comparator: heap_.front() is the earliest key. A type,
     * not a function pointer, so the sifts inline it.
     */
    struct Later
    {
        bool
        operator()(const Key &a, const Key &b) const
        {
            return before(b, a);
        }
    };

    /** Where the earliest pending event waits (kHeap: on the heap). */
    static constexpr size_t kHeap = kLanes;

    Key makeKey(SimTime t, Event ev);

    /** Move the clock to t (>= now) for a merged arrival. */
    void advanceTo(SimTime t);

    /** Source of the earliest pending event; the queue is non-empty. */
    size_t
    earliest() const
    {
        size_t best = kHeap;
        const Key *bestKey = heap_.empty() ? nullptr : &heap_.front();
        for (size_t i = 0; i < lanesUsed_; ++i) {
            const Lane &l = lanes_[i];
            if (!l.empty() && (!bestKey || before(l.front(), *bestKey))) {
                best = i;
                bestKey = &l.front();
            }
        }
        return best;
    }

    /** Pop the head of `source`, advance the clock to it, return it. */
    Event
    take(size_t source)
    {
        const Key key = head(source);
        if (source == kHeap) {
            std::pop_heap(heap_.begin(), heap_.end(), Later{});
            heap_.pop_back();
        } else {
            lanes_[source].pop();
        }
        --pending_;
        ++counters_.dispatches;
        now_ = SimTime::ns(key.when);
        return key.ev;
    }

    const Key &head(size_t source) const
    {
        return source == kHeap ? heap_.front() : lanes_[source].front();
    }

    std::vector<Key> heap_; ///< Min-heap by before().
    std::array<Lane, kLanes> lanes_; ///< Each sorted by construction.
    size_t lanesUsed_ = 0;  ///< 1 + the highest lane ever scheduled on.
    SimTime now_;
    uint64_t nextSeq_ = 0;
    size_t pending_ = 0;
    Counters counters_;
};

} // namespace cxlfork::sim
