/**
 * @file
 * Simulated time for the CXLfork simulation substrate.
 *
 * All latencies and durations in the library are simulated nanoseconds
 * carried by the strong type SimTime. Wall-clock time plays no role in
 * any reported result.
 */

#pragma once

#include <cmath>
#include <compare>
#include <cstdint>
#include <string>

namespace cxlfork::sim {

/**
 * A duration (or point in time) on the simulated clock.
 *
 * Internally a double count of nanoseconds. Doubles keep bandwidth
 * arithmetic (bytes / GB-per-sec) exact enough at the microsecond-to-
 * minute scales this simulation operates on, and make percentile math
 * trivial.
 */
class SimTime
{
  public:
    constexpr SimTime() = default;

    /** Named constructors from common units. */
    static constexpr SimTime ns(double v) { return SimTime(v); }
    static constexpr SimTime us(double v) { return SimTime(v * 1e3); }
    static constexpr SimTime ms(double v) { return SimTime(v * 1e6); }
    static constexpr SimTime sec(double v) { return SimTime(v * 1e9); }
    static constexpr SimTime zero() { return SimTime(0.0); }

    /** Value accessors in common units. */
    constexpr double toNs() const { return ns_; }
    constexpr double toUs() const { return ns_ / 1e3; }
    constexpr double toMs() const { return ns_ / 1e6; }
    constexpr double toSec() const { return ns_ / 1e9; }

    constexpr bool isZero() const { return ns_ == 0.0; }

    constexpr SimTime operator+(SimTime o) const { return SimTime(ns_ + o.ns_); }
    constexpr SimTime operator-(SimTime o) const { return SimTime(ns_ - o.ns_); }
    constexpr SimTime operator*(double k) const { return SimTime(ns_ * k); }
    constexpr SimTime operator/(double k) const { return SimTime(ns_ / k); }
    constexpr double operator/(SimTime o) const { return ns_ / o.ns_; }

    SimTime &operator+=(SimTime o) { ns_ += o.ns_; return *this; }
    SimTime &operator-=(SimTime o) { ns_ -= o.ns_; return *this; }
    SimTime &operator*=(double k) { ns_ *= k; return *this; }

    constexpr auto operator<=>(const SimTime &) const = default;

    // Plain double compares, the same answers (NaN included). The
    // rewritten <=> forms go through std::partial_ordering, which the
    // armed fabric's hot compares measurably paid for (DESIGN.md §8).
    constexpr bool operator<(const SimTime &o) const { return ns_ < o.ns_; }
    constexpr bool operator<=(const SimTime &o) const { return ns_ <= o.ns_; }
    constexpr bool operator>(const SimTime &o) const { return ns_ > o.ns_; }
    constexpr bool operator>=(const SimTime &o) const { return ns_ >= o.ns_; }

    /** Render with an auto-selected unit, e.g. "2.5us" or "130ms". */
    std::string toString() const;

  private:
    explicit constexpr SimTime(double ns) : ns_(ns) {}

    double ns_ = 0.0;
};

constexpr SimTime
operator*(double k, SimTime t)
{
    return t * k;
}

namespace time_literals {

constexpr SimTime operator""_ns(long double v) { return SimTime::ns(double(v)); }
constexpr SimTime operator""_ns(unsigned long long v) { return SimTime::ns(double(v)); }
constexpr SimTime operator""_us(long double v) { return SimTime::us(double(v)); }
constexpr SimTime operator""_us(unsigned long long v) { return SimTime::us(double(v)); }
constexpr SimTime operator""_ms(long double v) { return SimTime::ms(double(v)); }
constexpr SimTime operator""_ms(unsigned long long v) { return SimTime::ms(double(v)); }
constexpr SimTime operator""_s(long double v) { return SimTime::sec(double(v)); }
constexpr SimTime operator""_s(unsigned long long v) { return SimTime::sec(double(v)); }

} // namespace time_literals

} // namespace cxlfork::sim
