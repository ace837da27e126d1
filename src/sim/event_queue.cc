#include "event_queue.hh"

#include <algorithm>

#include "log.hh"

namespace cxlfork::sim {

void
EventQueue::Lane::reserve(size_t n)
{
    size_t capacity = std::max<size_t>(16, ring_.size());
    while (capacity < size_ + n)
        capacity *= 2;
    if (capacity == ring_.size())
        return;
    std::vector<Key> bigger(capacity);
    for (size_t i = 0; i < size_; ++i)
        bigger[i] = ring_[(head_ + i) & mask()];
    ring_ = std::move(bigger);
    head_ = 0;
}

EventQueue::Key
EventQueue::makeKey(SimTime t, Callback cb)
{
    if (t < now_)
        panic("EventQueue::schedule in the past (%f < %f ns)",
              t.toNs(), now_.toNs());
    uint32_t slot;
    if (freeSlots_.empty()) {
        slot = uint32_t(slots_.size());
        slots_.push_back(std::move(cb));
    } else {
        slot = freeSlots_.back();
        freeSlots_.pop_back();
        slots_[slot] = std::move(cb);
    }
    ++pending_;
    return Key{t, nextSeq_++, slot};
}

void
EventQueue::schedule(SimTime t, Callback cb)
{
    heap_.push_back(makeKey(t, std::move(cb)));
    std::push_heap(heap_.begin(), heap_.end(), later);
    ++counters_.heapPushes;
}

void
EventQueue::scheduleSorted(SimTime t, Callback cb, size_t lane)
{
    if (lane >= kLanes)
        panic("EventQueue::scheduleSorted lane %zu of %zu", lane, kLanes);
    Lane &l = lanes_[lane];
    if (!l.empty() && t < l.back().when)
        panic("EventQueue::scheduleSorted out of order on lane %zu "
              "(%f < %f ns)", lane, t.toNs(), l.back().when.toNs());
    l.push(makeKey(t, std::move(cb)));
    lanesUsed_ = std::max(lanesUsed_, lane + 1);
    ++counters_.lanePushes[lane];
}

void
EventQueue::reserveSorted(size_t lane, size_t n)
{
    if (lane >= kLanes)
        panic("EventQueue::reserveSorted lane %zu of %zu", lane, kLanes);
    lanes_[lane].reserve(n);
    slots_.reserve(slots_.size() + n);
}

size_t
EventQueue::earliest() const
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

void
EventQueue::dispatch(size_t source)
{
    Key key;
    if (source == kHeap) {
        std::pop_heap(heap_.begin(), heap_.end(), later);
        key = heap_.back();
        heap_.pop_back();
    } else {
        key = lanes_[source].front();
        lanes_[source].pop();
    }
    --pending_;
    ++counters_.dispatches;
    // Move the callback out first: it may schedule, which can grow
    // slots_ or hand this slot to a new event.
    Callback cb = std::move(slots_[key.slot]);
    freeSlots_.push_back(key.slot);
    now_ = key.when;
    cb();
}

bool
EventQueue::step()
{
    if (empty())
        return false;
    dispatch(earliest());
    return true;
}

void
EventQueue::run(SimTime horizon)
{
    while (!empty()) {
        const size_t source = earliest();
        if (head(source).when > horizon)
            break;
        dispatch(source);
    }
}

} // namespace cxlfork::sim
