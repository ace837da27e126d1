#include "wire.hh"

#include "sim/log.hh"

namespace cxlfork::proto {

void
Encoder::putVarint(uint64_t v)
{
    while (v >= 0x80) {
        buf_.push_back(uint8_t(v) | 0x80);
        v >>= 7;
    }
    buf_.push_back(uint8_t(v));
}

void
Encoder::putString(const std::string &s)
{
    putVarint(s.size());
    buf_.insert(buf_.end(), s.begin(), s.end());
}

void
Encoder::putBytes(const uint8_t *data, size_t n)
{
    putVarint(n);
    buf_.insert(buf_.end(), data, data + n);
}

uint64_t
Decoder::getVarintChecked()
{
    uint64_t v = 0;
    int shift = 0;
    while (true) {
        if (pos_ >= size_)
            sim::fatal("wire: truncated varint");
        const uint8_t b = data_[pos_++];
        // The tenth byte carries bit 63 alone: a higher bit or a
        // continuation overflows 64 bits.
        if (shift == 63 && b > 1)
            overflow();
        v |= uint64_t(b & 0x7f) << shift;
        if (!(b & 0x80))
            break;
        shift += 7;
    }
    return v;
}

namespace {

/** One bit per byte of a 64-byte block, the first byte lowest. */
struct ByteMasks
{
    uint64_t cont;  ///< Top bit set: the byte continues a varint.
    uint64_t small; ///< The byte is 0 or 1.
};

ByteMasks
byteMasks(const uint8_t *p)
{
    uint64_t cont = 0;
    uint64_t small = 0;
    // The multiply gathers the top bit of each of the eight bytes into
    // the top byte, first byte lowest (no two partial products meet).
    constexpr uint64_t kTop = 0x8080808080808080ull;
    constexpr uint64_t kLow7 = 0x7f7f7f7f7f7f7f7full;
    constexpr uint64_t kGather = 0x0002040810204081ull;
    for (int i = 0; i < 8; ++i) {
        uint64_t w;
        std::memcpy(&w, p + 8 * i, sizeof(w));
        if constexpr (std::endian::native == std::endian::big)
            w = __builtin_bswap64(w);
        // Top bit of each byte of w & ~1 that is zero: exact per byte.
        const uint64_t x = w & ~0x0101010101010101ull;
        const uint64_t zero = ~(((x & kLow7) + kLow7) | x) & kTop;
        cont |= ((w & kTop) * kGather >> 56) << (8 * i);
        small |= (zero * kGather >> 56) << (8 * i);
    }
    return {cont, small};
}

/** Set bits of x, without the libgcc call std::popcount makes here. */
uint64_t
popcount64(uint64_t x)
{
    x -= (x >> 1) & 0x5555555555555555ull;
    x = (x & 0x3333333333333333ull) + ((x >> 2) & 0x3333333333333333ull);
    x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0full;
    return (x * 0x0101010101010101ull) >> 56;
}

} // namespace

void
Decoder::skipVarints(uint64_t n)
{
    // Blocks of 64 bytes, as bit masks. A byte without its top bit ends
    // a varint, so a block's terminators count its varints. A byte
    // whose nine predecessors all continue a varint is its varint's
    // tenth byte or later: unless it is 0 or 1, that overflows, as in
    // getVarint. `before` keeps the previous block's continuation bits
    // for the runs that cross into the next block; the varints start
    // at pos_, so no run crosses into the first. Blocks stop short of
    // the one holding the n-th terminator: the bytes after it are not
    // the caller's.
    const uint8_t *p = data_ + pos_;
    const uint8_t *const end = data_ + size_;
    uint64_t before = 0;
    uint64_t bad = 0;
    while (end - p >= 64) {
        const ByteMasks m = byteMasks(p);
        const uint64_t found = popcount64(~m.cont);
        if (found >= n)
            break;
        using U128 = unsigned __int128;
        const U128 c1 = (U128(m.cont) << 64 | before) << 1; // j-1 continues
        const U128 c2 = c1 & c1 << 1;                       // j-1, j-2
        const U128 c4 = c2 & c2 << 2;                       // j-1 .. j-4
        const U128 c8 = c4 & c4 << 4;                       // j-1 .. j-8
        bad |= uint64_t((c8 & c1 << 8) >> 64) & ~m.small;   // j-1 .. j-9
        before = m.cont;
        n -= found;
        p += 64;
    }
    // Noted, not thrown, inside the loop, which has no branch on the
    // data. Decoding would stop at the first bad varint, before any
    // later truncation, so report it first here too.
    if (bad)
        overflow();
    // The rest byte by byte, from the run of continuation bytes that
    // ends the last block (at most nine, or it would have overflowed).
    uint64_t run = uint64_t(std::countl_one(before));
    for (; n > 0; ++p) {
        if (p == end)
            sim::fatal("wire: truncated varint");
        if (run == kMaxVarintBytes - 1 && *p > 1)
            overflow();
        if (*p & 0x80) {
            ++run;
        } else {
            run = 0;
            --n;
        }
    }
    pos_ = size_t(p - data_);
}

void
Decoder::overflow()
{
    sim::fatal("wire: varint overflow");
}

std::string
Decoder::getString()
{
    const uint64_t n = getVarint();
    if (n > remaining())
        sim::fatal("wire: truncated string");
    std::string s(reinterpret_cast<const char *>(data_ + pos_), n);
    pos_ += n;
    return s;
}

} // namespace cxlfork::proto
