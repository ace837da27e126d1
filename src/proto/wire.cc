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
