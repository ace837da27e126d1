/**
 * @file
 * Deterministic random number generation for the simulation.
 *
 * Every stochastic component takes an explicit Rng so whole experiments
 * replay bit-identically from a seed.
 */

#pragma once

#include <cstdint>
#include <random>
#include <vector>

namespace cxlfork::sim {

/** A seeded PRNG with the handful of draws the simulation needs. */
class Rng
{
  public:
    explicit Rng(uint64_t seed = 0x5eed'cafe'f00d'd00dULL) : eng_(seed) {}

    /**
     * Uniform in [0, 1): the draw std::uniform_real_distribution<double>
     * makes over mt19937_64 in libstdc++ (one 64-bit draw, converted
     * and scaled by 2^-64, kept below 1), bit for bit, without the
     * conversion's branch on the draw's top bit. The two 32-bit halves
     * convert exactly and one correctly rounded add gives the same
     * double as the direct conversion.
     */
    double uniform() { return unitOf(eng_()); }

    /** The uniform() value of one raw 64-bit draw. */
    static double
    unitOf(uint64_t x)
    {
        const double d =
            double(uint32_t(x >> 32)) * 0x1p32 + double(uint32_t(x));
        const double u = d * 0x1p-64;
        return u < 1.0 ? u : 0x1.fffffffffffffp-1;
    }

    /** Uniform in [lo, hi). */
    double
    uniform(double lo, double hi)
    {
        return lo + (hi - lo) * uniform();
    }

    /** Uniform integer in [0, n). n must be > 0. */
    uint64_t
    index(uint64_t n)
    {
        return std::uniform_int_distribution<uint64_t>(0, n - 1)(eng_);
    }

    /** Uniform integer in [lo, hi]. */
    int64_t
    intRange(int64_t lo, int64_t hi)
    {
        return std::uniform_int_distribution<int64_t>(lo, hi)(eng_);
    }

    /** Bernoulli draw. */
    bool chance(double p) { return uniform() < p; }

    /** Exponential with the given mean. */
    double
    exponential(double mean)
    {
        return std::exponential_distribution<double>(1.0 / mean)(eng_);
    }

    /** Pareto draw (heavy-tailed), shape alpha > 0, scale xm > 0. */
    double
    pareto(double xm, double alpha)
    {
        return xm / std::pow(1.0 - uniform(), 1.0 / alpha);
    }

    /** Raw 64-bit draw. */
    uint64_t raw() { return eng_(); }

    /** Derive an independent child stream (for per-component seeding). */
    Rng
    split()
    {
        return Rng(raw() ^ 0x9e3779b97f4a7c15ULL);
    }

    /** Fisher-Yates shuffle. */
    template <typename T>
    void
    shuffle(std::vector<T> &v)
    {
        for (size_t i = v.size(); i > 1; --i)
            std::swap(v[i - 1], v[index(i)]);
    }

  private:
    std::mt19937_64 eng_;
};

} // namespace cxlfork::sim
