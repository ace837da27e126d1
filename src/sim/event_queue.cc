#include "event_queue.hh"

#include "log.hh"

namespace cxlfork::sim {

void
EventQueue::Lane::grow()
{
    const size_t capacity = capacity_ ? capacity_ * 2 : 16;
    // Keys are trivial, so the new ring is left uninitialised: only the
    // live keys are copied, and push() writes each slot before front()
    // can read it.
    auto bigger = std::make_unique_for_overwrite<Key[]>(capacity);
    for (size_t i = 0; i < size_; ++i)
        bigger[i] = ring_[(head_ + i) & mask()];
    ring_ = std::move(bigger);
    capacity_ = capacity;
    head_ = 0;
}

EventQueue::Key
EventQueue::makeKey(SimTime t, Event ev)
{
    if (t < now_)
        panic("EventQueue::schedule in the past (%f < %f ns)",
              t.toNs(), now_.toNs());
    ++pending_;
    return Key{t.toNs(), nextSeq_++, ev};
}

void
EventQueue::schedule(SimTime t, Event ev)
{
    heap_.push_back(makeKey(t, ev));
    std::push_heap(heap_.begin(), heap_.end(), Later{});
    ++counters_.heapPushes;
}

void
EventQueue::scheduleSorted(SimTime t, Event ev, size_t lane)
{
    if (lane >= kLanes)
        panic("EventQueue::scheduleSorted lane %zu of %zu", lane, kLanes);
    Lane &l = lanes_[lane];
    if (!l.empty() && t.toNs() < l.back().when)
        panic("EventQueue::scheduleSorted out of order on lane %zu "
              "(%f < %f ns)", lane, t.toNs(), l.back().when);
    l.push(makeKey(t, ev));
    lanesUsed_ = std::max(lanesUsed_, lane + 1);
    ++counters_.lanePushes[lane];
}

void
EventQueue::advanceTo(SimTime t)
{
    if (t < now_)
        panic("EventQueue::runMerged arrival in the past (%f < %f ns)",
              t.toNs(), now_.toNs());
    now_ = t;
    ++counters_.dispatches;
}

} // namespace cxlfork::sim
