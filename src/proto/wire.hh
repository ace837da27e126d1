/**
 * @file
 * A compact tag-length-value wire format: the stand-in for the
 * Protocol Buffers serialization CRIU uses.
 *
 * Encoding is real (bytes are produced and parsed back), so round-trip
 * tests are meaningful. Simulated *cost* is charged separately by the
 * callers, because one encoded "page" carries an 8-byte content token
 * standing in for 4 KB of data.
 */

#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace cxlfork::proto {

/** Append-only encoder. */
class Encoder
{
  public:
    void putVarint(uint64_t v);
    void putU64(uint64_t v) { putVarint(v); }
    void putU32(uint32_t v) { putVarint(v); }
    void putString(const std::string &s);
    void putBytes(const uint8_t *data, size_t n);

    const std::vector<uint8_t> &buffer() const { return buf_; }
    std::vector<uint8_t> take() { return std::move(buf_); }
    size_t size() const { return buf_.size(); }

  private:
    std::vector<uint8_t> buf_;
};

/**
 * Sequential decoder over an encoded buffer, which must outlive it.
 * Throws on malformed input. Copies decode on independently.
 */
class Decoder
{
  public:
    explicit Decoder(const std::vector<uint8_t> &buf)
        : data_(buf.data()), size_(buf.size())
    {}

    /** Longest valid varint: ten 7-bit groups cover 64 bits. */
    static constexpr size_t kMaxVarintBytes = 10;

    uint64_t
    getVarint()
    {
        // With a whole varint's worth of bytes left, one bounds check
        // covers every byte; near the end the checked loop decides.
        if (remaining() < kMaxVarintBytes)
            return getVarintChecked();
        const uint8_t *p = data_ + pos_;
        uint64_t w;
        std::memcpy(&w, p, sizeof(w));
        if constexpr (std::endian::native == std::endian::big)
            w = __builtin_bswap64(w);
        // A clear top bit ends the varint. Within the first word, keep
        // the bytes up to and including that one.
        const uint64_t ends = ~w & 0x8080808080808080ull;
        if (ends != 0) {
            const int bits = std::countr_zero(ends) + 1;
            pos_ += size_t(bits / 8);
            return packGroups(w & (~0ull >> (64 - bits)));
        }
        // Nine or ten bytes: the first eight carry bits 0-55. Random
        // 64-bit values split about evenly between the two lengths, so
        // pick without a branch. The tenth byte carries bit 63 alone:
        // a higher bit or a continuation overflows 64 bits.
        const uint64_t low = packGroups(w);
        const uint64_t b8 = p[8];
        const uint64_t tenth = b8 >> 7;
        const uint64_t b9 = p[9] & (0 - tenth);
        if (b9 > 1)
            overflow();
        pos_ += 9 + tenth;
        return low | (b8 & 0x7f) << 56 | b9 << 63;
    }

    uint64_t getU64() { return getVarint(); }
    uint32_t getU32() { return uint32_t(getVarint()); }
    std::string getString();

    bool atEnd() const { return pos_ == size_; }
    size_t remaining() const { return size_ - pos_; }

  private:
    /** Join the low 7 bits of each of w's 8 bytes, low byte first. */
    static uint64_t
    packGroups(uint64_t w)
    {
        w = (w & 0x007f007f007f007full) | (w & 0x7f007f007f007f00ull) >> 1;
        w = (w & 0x00003fff00003fffull) | (w & 0x3fff00003fff0000ull) >> 2;
        return (w & 0x000000000fffffffull) | (w & 0x0fffffff00000000ull) >> 4;
    }

    /** Byte-at-a-time varint read with a bounds check per byte. */
    uint64_t getVarintChecked();
    [[noreturn]] static void overflow();

    const uint8_t *data_;
    size_t size_;
    size_t pos_ = 0;
};

} // namespace cxlfork::proto
