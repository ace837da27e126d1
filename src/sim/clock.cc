#include "clock.hh"

#include "log.hh"

namespace cxlfork::sim {

void
SimClock::negativeCharge(SimTime d)
{
    panic("SimClock::advance with negative duration %f ns", d.toNs());
}

void
SimClock::advanceTo(SimTime t)
{
    if (t < now_)
        panic("SimClock::advanceTo moving backwards (%f < %f ns)",
              t.toNs(), now_.toNs());
    now_ = t;
}

} // namespace cxlfork::sim
