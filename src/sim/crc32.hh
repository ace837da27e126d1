/**
 * @file
 * CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) for checkpoint
 * integrity. CRC-32 detects every single-bit and every burst error up
 * to 32 bits, which is exactly the torn-write / bit-rot failure model
 * injected on the simulated CXL device.
 *
 * Two kernels compute the same digest. Runs of kCrc32FoldMin bytes or
 * more fold 16 bytes per carry-less multiply (PCLMULQDQ) when the host
 * CPU has it; the choice is made once, at run time. Everything else is
 * slicing-by-8: eight 256-entry tables fold one little-endian 64-bit
 * word per step with eight independent lookups, instead of eight
 * dependent byte steps. Both are bit-identical to the classic
 * byte-at-a-time table CRC.
 */

#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace cxlfork::sim {

namespace detail {

using Crc32Tables = std::array<std::array<uint32_t, 256>, 8>;

/**
 * tables[0] is the classic byte table. tables[k][i] is the CRC state
 * after feeding byte i followed by k zero bytes, so one step can fold
 * byte j of an 8-byte word through tables[7 - j].
 */
constexpr Crc32Tables
makeCrc32Tables()
{
    Crc32Tables t{};
    for (uint32_t i = 0; i < 256; ++i) {
        uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
        t[0][i] = c;
    }
    for (size_t k = 1; k < t.size(); ++k)
        for (uint32_t i = 0; i < 256; ++i)
            t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
    return t;
}

inline constexpr Crc32Tables kCrc32Tables = makeCrc32Tables();

/** Shortest run the carry-less fold takes (one 4 x 128-bit block). */
inline constexpr size_t kCrc32FoldMin = 64;

/** One slicing-by-8 step: the CRC state after v's 8 LE bytes. */
inline uint32_t
crc32Step64(uint32_t state, uint64_t v)
{
    const auto &t = kCrc32Tables;
    const uint32_t lo = uint32_t(v) ^ state;
    const uint32_t hi = uint32_t(v >> 32);
    return t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^
           t[5][(lo >> 16) & 0xFF] ^ t[4][lo >> 24] ^ t[3][hi & 0xFF] ^
           t[2][(hi >> 8) & 0xFF] ^ t[1][(hi >> 16) & 0xFF] ^
           t[0][hi >> 24];
}

/**
 * The portable kernel: the CRC state after feeding n bytes at p,
 * slicing-by-8 with a byte loop for the last n % 8. Any length.
 */
inline uint32_t
crc32Slice8(uint32_t state, const uint8_t *p, size_t n)
{
    for (; n >= 8; p += 8, n -= 8) {
        uint64_t w = 0;
        std::memcpy(&w, p, sizeof(w));
        if constexpr (std::endian::native == std::endian::big)
            w = __builtin_bswap64(w);
        state = crc32Step64(state, w);
    }
    for (; n > 0; ++p, --n)
        state = kCrc32Tables[0][(state ^ *p) & 0xFF] ^ (state >> 8);
    return state;
}

/** True when this CPU can run crc32Clmul (x86 with PCLMULQDQ). */
bool crc32ClmulSupported();

/**
 * The carry-less-multiply kernel: the same result as crc32Slice8 for
 * any length. It folds the 16-byte multiple of runs of kCrc32FoldMin
 * bytes or more and hands the rest to crc32Slice8. Call it only when
 * crc32ClmulSupported() holds.
 */
uint32_t crc32Clmul(uint32_t state, const uint8_t *p, size_t n);

} // namespace detail

/**
 * Bytes this thread has fed to every CRC-32, for pinned work counts.
 * Per thread, so parallel sweeps never race on it; nothing the
 * simulator computes reads it.
 */
inline thread_local uint64_t crc32BytesThisThread = 0;

/** Incremental CRC-32 over heterogeneous fields. */
class Crc32
{
  public:
    void
    update(const void *data, size_t n)
    {
        crc32BytesThisThread += n;
        const auto *p = static_cast<const uint8_t *>(data);
        if (n >= detail::kCrc32FoldMin && detail::crc32ClmulSupported())
            state_ = detail::crc32Clmul(state_, p, n);
        else
            state_ = detail::crc32Slice8(state_, p, n);
    }

    /** CRC of v's 8 bytes in little-endian order: one slicing step. */
    void
    update64(uint64_t v)
    {
        crc32BytesThisThread += sizeof(v);
        state_ = detail::crc32Step64(state_, v);
    }

    /** Finalized digest; the accumulator keeps running. */
    uint32_t value() const { return state_ ^ 0xFFFFFFFFu; }

  private:
    uint32_t state_ = 0xFFFFFFFFu;
};

/** One-shot CRC-32 of a byte buffer. */
inline uint32_t
crc32(const void *data, size_t n)
{
    Crc32 c;
    c.update(data, n);
    return c.value();
}

} // namespace cxlfork::sim
