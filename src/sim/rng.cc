#include "rng.hh"

namespace cxlfork::sim {

namespace {

constexpr size_t kM = 156;
constexpr uint64_t kMatrixA = 0xb502'6f5a'a966'19e9ULL;
constexpr uint64_t kUpperMask = ~uint64_t(0) << 31;

/**
 * One twisted word: the top 33 bits of `word`, the low 31 of `next`,
 * shifted and xored into `far`. -(y & 1) is all ones exactly when the
 * low bit is set, so the matrix is applied without a branch.
 */
inline uint64_t
twisted(uint64_t word, uint64_t next, uint64_t far)
{
    const uint64_t y = (word & kUpperMask) | (next & ~kUpperMask);
    return far ^ (y >> 1) ^ (-(y & 1) & kMatrixA);
}

} // namespace

Mt19937_64::Mt19937_64(uint64_t seed)
{
    x_[0] = seed;
    for (size_t i = 1; i < kN; ++i)
        x_[i] = 6364136223846793005ULL * (x_[i - 1] ^ (x_[i - 1] >> 62)) + i;
}

void
Mt19937_64::twist()
{
    // The three ranges of std::mersenne_twister_engine's reload. In each
    // loop a word reads only words no earlier iteration of that loop
    // writes, so the loops vectorize.
    for (size_t k = 0; k < kN - kM; ++k)
        x_[k] = twisted(x_[k], x_[k + 1], x_[k + kM]);
    for (size_t k = kN - kM; k < kN - 1; ++k)
        x_[k] = twisted(x_[k], x_[k + 1], x_[k + kM - kN]);
    x_[kN - 1] = twisted(x_[kN - 1], x_[0], x_[kM - 1]);
    next_ = 0;
}

} // namespace cxlfork::sim
