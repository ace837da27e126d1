#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "proto/messages.hh"
#include "sim/log.hh"

namespace cxlfork::proto {
namespace {

TEST(Wire, VarintRoundTripBoundaries)
{
    Encoder e;
    const std::vector<uint64_t> values{0, 1, 127, 128, 16383, 16384,
                                       ~0ull, 1ull << 63};
    for (uint64_t v : values)
        e.putVarint(v);
    Decoder d(e.buffer());
    for (uint64_t v : values)
        EXPECT_EQ(d.getVarint(), v);
    EXPECT_TRUE(d.atEnd());
}

TEST(Wire, StringRoundTrip)
{
    Encoder e;
    e.putString("");
    e.putString("hello/world.so");
    std::string big(10000, 'x');
    e.putString(big);
    Decoder d(e.buffer());
    EXPECT_EQ(d.getString(), "");
    EXPECT_EQ(d.getString(), "hello/world.so");
    EXPECT_EQ(d.getString(), big);
}

TEST(Wire, TruncatedInputThrows)
{
    Encoder e;
    e.putString("abcdef");
    std::vector<uint8_t> cut(e.buffer().begin(), e.buffer().begin() + 3);
    Decoder d(cut);
    EXPECT_THROW(d.getString(), sim::FatalError);
}

TEST(Wire, TruncatedVarintThrows)
{
    std::vector<uint8_t> bad{0x80, 0x80};
    Decoder d(bad);
    EXPECT_THROW(d.getVarint(), sim::FatalError);
}

TEST(Wire, OverlongVarintThrows)
{
    std::vector<uint8_t> bad(11, 0x80);
    Decoder d(bad);
    EXPECT_THROW(d.getVarint(), sim::FatalError);
}

/** The FatalError message fn raises, or "" when it returns normally. */
template <typename Fn>
std::string
fatalMessage(Fn &&fn)
{
    try {
        fn();
    } catch (const sim::FatalError &e) {
        return e.what();
    }
    return "";
}

TEST(Wire, OverlongVarintReportsOverflow)
{
    // Ten continuation bytes overflow whether or not more input follows.
    for (size_t n : {10, 11, 20}) {
        std::vector<uint8_t> bad(n, 0x80);
        Decoder d(bad);
        EXPECT_NE(fatalMessage([&] { d.getVarint(); }).find("overflow"),
                  std::string::npos)
            << n << " bytes";
    }
}

TEST(Wire, VarintOfEveryLengthDecodesWithAnyTailLeft)
{
    // The inline fast path needs ten bytes left; the checked loop takes
    // the rest. Each varint length meets every side of that split.
    for (size_t len = 1; len <= Decoder::kMaxVarintBytes; ++len) {
        const uint64_t v = (1ull << (7 * (len - 1))) | 0x55;
        for (size_t tail : {0, 1, 9, 10, 11}) {
            Encoder e;
            e.putVarint(v);
            ASSERT_EQ(e.size(), len);
            for (size_t i = 0; i < tail; ++i)
                e.putVarint(1);
            Decoder d(e.buffer());
            EXPECT_EQ(d.getVarint(), v) << len << " bytes, tail " << tail;
            EXPECT_EQ(d.remaining(), tail) << len << " bytes, tail " << tail;
        }
    }
}

TEST(Wire, TenthByteAboveOneOverflows)
{
    // The tenth byte carries bit 63 alone. Nine 0xff and then 0x02 once
    // decoded to 0x7fffffffffffffff, dropping the high bits. The tail
    // sizes give the varint ten or more bytes left after its start, and
    // none beyond its end.
    for (uint8_t last : {0x02, 0x03, 0x40, 0x7f}) {
        for (size_t tail : {0, 1, 10}) {
            std::vector<uint8_t> bad(9, 0xff);
            bad.push_back(last);
            bad.insert(bad.end(), tail, 0x01);
            Decoder d(bad);
            EXPECT_NE(fatalMessage([&] { d.getVarint(); }).find("overflow"),
                      std::string::npos)
                << "last byte " << int(last) << ", tail " << tail;
        }
    }
    // At the boundary, 0 and 1 are bit 63 clear and set.
    for (uint8_t last : {0x00, 0x01}) {
        for (size_t tail : {0, 1, 10}) {
            std::vector<uint8_t> ok(9, 0xff);
            ok.push_back(last);
            ok.insert(ok.end(), tail, 0x01);
            Decoder d(ok);
            EXPECT_EQ(d.getVarint(), (uint64_t(last) << 63) | (~0ull >> 1))
                << "last byte " << int(last) << ", tail " << tail;
            EXPECT_EQ(d.remaining(), tail);
        }
    }
}

TEST(Wire, CutTenByteVarintReportsTruncated)
{
    Encoder e;
    e.putVarint(~0ull);
    ASSERT_EQ(e.size(), Decoder::kMaxVarintBytes);
    for (size_t keep = 1; keep < e.size(); ++keep) {
        std::vector<uint8_t> cut(e.buffer().begin(),
                                 e.buffer().begin() + long(keep));
        Decoder d(cut);
        EXPECT_NE(fatalMessage([&] { d.getVarint(); }).find("truncated"),
                  std::string::npos)
            << keep << " bytes kept";
    }
}

GlobalStateMsg
sampleGlobal()
{
    GlobalStateMsg g;
    g.taskName = "bert";
    g.files = {{3, "/opt/faas/bert/config.json", 1, 0},
               {4, "/var/log/fn.log", 2, 128}};
    g.sockets = {{5, "gateway:8080"}};
    g.mounts = {"/", "/tmp", "/opt/faas"};
    g.pidNamespaceId = 42;
    return g;
}

TEST(Messages, GlobalStateRoundTrip)
{
    Encoder e;
    sampleGlobal().encode(e);
    Decoder d(e.buffer());
    EXPECT_EQ(GlobalStateMsg::decode(d), sampleGlobal());
    EXPECT_TRUE(d.atEnd());
}

/**
 * Decode a whole CRIU image the way a restore does, header first and
 * then the page section, and leave `d` past it.
 */
CriuImageMsg
decodeImage(Decoder &d)
{
    CriuImageMsg img = CriuImageMsg::decodeHeader(d);
    const uint64_t count = decodePageCount(d);
    for (uint64_t i = 0; i < count; ++i)
        img.pages.push_back(PageMsg::decode(d));
    return img;
}

TEST(Messages, CriuImageRoundTrip)
{
    CriuImageMsg img;
    img.global = sampleGlobal();
    img.cpu.rip = 0x401000;
    img.cpu.gpr[5] = 0xdead;
    img.vmas = {{0x1000, 0x5000, 3, 0, 1, 0, "", "[heap]"},
                {0x10000, 0x20000, 5, 1, 0, 4096, "/lib/a.so", "a.so"}};
    for (uint64_t i = 0; i < 1000; ++i)
        img.pages.push_back({i, i * 31});

    Encoder e;
    img.encode(e);
    Decoder d(e.buffer());
    EXPECT_EQ(decodeImage(d), img);
}

TEST(Messages, SimulatedBytesDominatedByPages)
{
    CriuImageMsg img;
    img.global = sampleGlobal();
    for (uint64_t i = 0; i < 1024; ++i)
        img.pages.push_back({i, 0});
    // 1024 pages ~ 4 MB; metadata is tiny in comparison.
    EXPECT_GT(img.simulatedBytes(), 1024ull * 4096);
    EXPECT_LT(img.simulatedBytes(), 1100ull * 4096);
}

TEST(Messages, RecordCountCoversAllPieces)
{
    CriuImageMsg img;
    img.global = sampleGlobal();
    img.vmas.resize(10);
    img.pages.resize(20);
    EXPECT_EQ(img.recordCount(), img.global.recordCount() + 1 + 10 + 20);
}

/**
 * A small image encoded with its VMA or page count replaced by a
 * forged one. The records that follow stay as they were, so decoding
 * runs out of input long before the forged count is reached.
 */
std::vector<uint8_t>
forgedCountImage(bool forgeVmas, uint64_t count)
{
    CriuImageMsg img;
    img.global = sampleGlobal();
    img.vmas = {{0x1000, 0x5000, 3, 0, 1, 0, "", "[heap]"}};
    for (uint64_t i = 0; i < 64; ++i)
        img.pages.push_back({i + 1, i * 31});
    Encoder e;
    img.global.encode(e);
    img.cpu.encode(e);
    e.putU64(forgeVmas ? count : img.vmas.size());
    for (const VmaMsg &v : img.vmas)
        v.encode(e);
    e.putU64(forgeVmas ? img.pages.size() : count);
    for (const PageMsg &p : img.pages)
        p.encode(e);
    return e.take();
}

TEST(Messages, ForgedRecordCountsRaiseFatalError)
{
    for (bool forgeVmas : {true, false}) {
        const std::vector<uint8_t> buf =
            forgedCountImage(forgeVmas, 1ull << 62);
        Decoder d(buf);
        // Only FatalError: a length_error or bad_alloc from sizing a
        // vector by the forged count fails the expectation.
        EXPECT_THROW(decodeImage(d), sim::FatalError)
            << (forgeVmas ? "vma" : "page") << " count";
    }
    // The same builder with honest counts decodes cleanly.
    for (bool forgeVmas : {true, false}) {
        const std::vector<uint8_t> buf =
            forgedCountImage(forgeVmas, forgeVmas ? 1 : 64);
        Decoder d(buf);
        EXPECT_NO_THROW(decodeImage(d));
        EXPECT_TRUE(d.atEnd());
    }
}

TEST(Messages, PageSectionDecodesEveryEncodedRecord)
{
    const std::vector<uint8_t> buf = forgedCountImage(false, 64);
    Decoder d(buf);
    const CriuImageMsg header = CriuImageMsg::decodeHeader(d);
    EXPECT_EQ(header.global, sampleGlobal());
    ASSERT_EQ(header.vmas.size(), 1u);
    EXPECT_EQ(header.vmas[0].name, "[heap]");
    EXPECT_TRUE(header.pages.empty());
    ASSERT_EQ(decodePageCount(d), 64u);
    for (uint64_t i = 0; i < 64; ++i)
        EXPECT_EQ(PageMsg::decode(d), (PageMsg{i + 1, i * 31}));
    EXPECT_TRUE(d.atEnd());
}

TEST(Messages, PageSectionRejectsABadSection)
{
    // A count no bytes left could hold fails before any record is read;
    // one past the records that follow runs out of input at the last.
    {
        const std::vector<uint8_t> buf = forgedCountImage(false, 1ull << 62);
        Decoder d(buf);
        CriuImageMsg::decodeHeader(d);
        EXPECT_NE(fatalMessage([&] { decodePageCount(d); })
                      .find("exceeds the"),
                  std::string::npos);
    }
    {
        const std::vector<uint8_t> buf = forgedCountImage(false, 65);
        Decoder d(buf);
        CriuImageMsg::decodeHeader(d);
        ASSERT_EQ(decodePageCount(d), 65u);
        for (uint64_t i = 0; i < 64; ++i)
            PageMsg::decode(d);
        EXPECT_THROW(PageMsg::decode(d), sim::FatalError);
    }
    // The last record's content token overlong: nine 0xff, then 0x02.
    std::vector<uint8_t> buf = forgedCountImage(false, 64);
    Decoder probe(buf);
    CriuImageMsg::decodeHeader(probe);
    const uint64_t count = probe.getU64();
    for (uint64_t i = 0; i + 1 < count; ++i)
        PageMsg::decode(probe);
    probe.getU64(); // the last record's vpn
    buf.resize(buf.size() - probe.remaining());
    buf.insert(buf.end(), 9, 0xff);
    buf.push_back(0x02);
    Decoder d(buf);
    EXPECT_NE(fatalMessage([&] { decodeImage(d); }).find("overflow"),
              std::string::npos);
}

/** Property: random messages always round-trip bit-exactly. */
class WireFuzz : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(WireFuzz, RandomCriuImageRoundTrips)
{
    std::mt19937_64 rng(GetParam());
    auto ru = [&](uint64_t mod) { return rng() % mod; };

    CriuImageMsg img;
    img.global.taskName = std::string(ru(30), char('a' + ru(26)));
    for (uint64_t i = 0; i < ru(8); ++i) {
        img.global.files.push_back(
            {int32_t(3 + i), std::string(ru(40), 'p'), uint32_t(ru(4)),
             rng()});
    }
    for (uint64_t i = 0; i < ru(4); ++i)
        img.global.sockets.push_back({int32_t(20 + i), "peer:1"});
    img.global.pidNamespaceId = rng();
    for (auto &r : img.cpu.gpr)
        r = rng();
    for (uint64_t i = 0; i < ru(50); ++i) {
        const uint64_t start = ru(1000) * 0x10000;
        img.vmas.push_back({start + i * 0x100000000ull,
                            start + i * 0x100000000ull + 0x4000,
                            uint8_t(ru(8)), uint8_t(ru(2)), uint8_t(ru(4)),
                            ru(100) * 4096, std::string(ru(20), 'f'),
                            std::string(ru(10), 'n')});
    }
    for (uint64_t i = 0; i < ru(2000); ++i)
        img.pages.push_back({rng() >> 12, rng()});

    Encoder e;
    img.encode(e);
    Decoder d(e.buffer());
    EXPECT_EQ(decodeImage(d), img);
    EXPECT_TRUE(d.atEnd());
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireFuzz,
                         ::testing::Range<uint64_t>(1, 17));

} // namespace
} // namespace cxlfork::proto
