/**
 * @file
 * The simulated clock: a monotone accumulator of charged durations.
 *
 * Mechanism code charges costs against a SimClock; experiment harnesses
 * read the elapsed time between two marks. Distinct activities (e.g.
 * two nodes) may own distinct clocks; the event-driven cluster
 * simulation synchronizes them through the EventQueue instead.
 */

#pragma once

#include "time.hh"

namespace cxlfork::sim {

/** Accumulates simulated time. */
class SimClock
{
  public:
    /** Current simulated time since construction (or last reset). */
    SimTime now() const { return now_; }

    /** Charge a duration. Negative charges are a caller bug. */
    void
    advance(SimTime d)
    {
        if (d < SimTime::zero()) [[unlikely]]
            negativeCharge(d);
        now_ += d;
    }

    /** Jump to an absolute point >= now (event-driven use). */
    void advanceTo(SimTime t);

    void reset() { now_ = SimTime::zero(); }

  private:
    /** advance()'s panic for a negative duration. */
    [[noreturn]] static void negativeCharge(SimTime d);

    SimTime now_;
};

/**
 * RAII span measuring the clock time consumed inside a scope.
 * Read the result with elapsed() after the work, or let a callback
 * receive it at scope exit.
 */
class ClockSpan
{
  public:
    explicit ClockSpan(const SimClock &clock)
        : clock_(clock), start_(clock.now())
    {}

    SimTime elapsed() const { return clock_.now() - start_; }

  private:
    const SimClock &clock_;
    SimTime start_;
};

} // namespace cxlfork::sim
