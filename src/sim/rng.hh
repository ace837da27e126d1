/**
 * @file
 * Deterministic random number generation for the simulation.
 *
 * Every stochastic component takes an explicit Rng so whole experiments
 * replay bit-identically from a seed.
 */

#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <random>
#include <vector>

namespace cxlfork::sim {

/**
 * MT19937-64: for every seed, the sequence std::mt19937_64(seed) gives,
 * with a twist that does not branch on each word's low bit (DESIGN.md
 * Sec. 8, "Fast trace generation"). Same 2.5 KB of state; output is
 * tempered on read. A UniformRandomBitGenerator, so the standard
 * distributions draw from it exactly as from std::mt19937_64.
 */
class Mt19937_64
{
  public:
    using result_type = uint64_t;
    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type(0); }

    explicit Mt19937_64(uint64_t seed);

    result_type
    operator()()
    {
        if (next_ >= kN)
            twist();
        uint64_t z = x_[next_++];
        z ^= (z >> 29) & 0x5555'5555'5555'5555ULL;
        z ^= (z << 17) & 0x71d6'7fff'eda6'0000ULL;
        z ^= (z << 37) & 0xfff7'eee0'0000'0000ULL;
        z ^= z >> 43;
        return z;
    }

  private:
    static constexpr size_t kN = 312;

    /** Regenerate all kN words; the next draw reads word 0. */
    void twist();

    uint64_t x_[kN]; ///< Every word set by the constructor.
    size_t next_ = kN; ///< The first draw reloads.
};

/** A seeded PRNG with the handful of draws the simulation needs. */
class Rng
{
  public:
    explicit Rng(uint64_t seed = 0x5eed'cafe'f00d'd00dULL) : eng_(seed) {}

    /**
     * Uniform in [0, 1): the draw std::uniform_real_distribution<double>
     * makes over std::mt19937_64 in libstdc++ (one 64-bit draw, converted
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
    double exponential(double mean) { return exponentialOf(eng_(), mean); }

    /**
     * The exponential(mean) value of one raw 64-bit draw: what
     * std::exponential_distribution<double>(1.0 / mean) computes in
     * libstdc++, bit for bit, since unitOf is its generate_canonical.
     * It divides by the rate, so this divides by the reciprocal too:
     * multiplying by the mean rounds differently in the last bit.
     */
    static double
    exponentialOf(uint64_t x, double mean)
    {
        return -std::log(1.0 - unitOf(x)) / (1.0 / mean);
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
    Mt19937_64 eng_;
};

} // namespace cxlfork::sim
