#include "event_queue.hh"

#include <algorithm>

#include "log.hh"

namespace cxlfork::sim {

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
    return Key{t, nextSeq_++, slot};
}

void
EventQueue::schedule(SimTime t, Callback cb)
{
    heap_.push_back(makeKey(t, std::move(cb)));
    std::push_heap(heap_.begin(), heap_.end(), later);
}

void
EventQueue::scheduleSorted(SimTime t, Callback cb)
{
    if (!lane_.empty() && t < lane_.back().when)
        panic("EventQueue::scheduleSorted out of order (%f < %f ns)",
              t.toNs(), lane_.back().when.toNs());
    lane_.push_back(makeKey(t, std::move(cb)));
}

bool
EventQueue::heapFirst() const
{
    return lane_.empty() ||
           (!heap_.empty() && before(heap_.front(), lane_.front()));
}

bool
EventQueue::step()
{
    if (empty())
        return false;
    Key key;
    if (heapFirst()) {
        std::pop_heap(heap_.begin(), heap_.end(), later);
        key = heap_.back();
        heap_.pop_back();
    } else {
        key = lane_.front();
        lane_.pop_front();
    }
    // Move the callback out first: it may schedule, which can grow
    // slots_ or hand this slot to a new event.
    Callback cb = std::move(slots_[key.slot]);
    freeSlots_.push_back(key.slot);
    now_ = key.when;
    cb();
    return true;
}

void
EventQueue::run(SimTime horizon)
{
    while (!empty() &&
           (heapFirst() ? heap_.front() : lane_.front()).when <= horizon)
        step();
}

} // namespace cxlfork::sim
