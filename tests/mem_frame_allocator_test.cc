#include <gtest/gtest.h>

#include "mem/frame_allocator.hh"
#include "sim/log.hh"

namespace cxlfork::mem {
namespace {

FrameAllocator
makeAlloc(uint64_t frames = 16)
{
    return FrameAllocator("test", Tier::LocalDram, PhysAddr{1ull << 30},
                          frames * kPageSize);
}

TEST(FrameAllocator, AllocGivesPageAlignedInRange)
{
    auto a = makeAlloc();
    const PhysAddr f = a.alloc(FrameUse::Data, 0xabc);
    EXPECT_EQ(f.raw % kPageSize, 0u);
    EXPECT_TRUE(a.contains(f));
    EXPECT_EQ(a.frame(f).content, 0xabcu);
    EXPECT_EQ(a.frame(f).refcount, 1u);
    EXPECT_EQ(a.usedFrames(), 1u);
}

TEST(FrameAllocator, LowAddressesFirstDeterministically)
{
    auto a = makeAlloc();
    const PhysAddr f0 = a.alloc(FrameUse::Data);
    const PhysAddr f1 = a.alloc(FrameUse::Data);
    EXPECT_EQ(f0.raw, (1ull << 30));
    EXPECT_EQ(f1.raw, (1ull << 30) + kPageSize);
}

TEST(FrameAllocator, RefcountLifecycle)
{
    auto a = makeAlloc();
    const PhysAddr f = a.alloc(FrameUse::Data, 7);
    a.incRef(f);
    EXPECT_FALSE(a.decRef(f));
    EXPECT_EQ(a.usedFrames(), 1u);
    EXPECT_TRUE(a.decRef(f));
    EXPECT_EQ(a.usedFrames(), 0u);
}

TEST(FrameAllocator, FreedFrameIsReusable)
{
    auto a = makeAlloc(1);
    const PhysAddr f = a.alloc(FrameUse::Data);
    EXPECT_FALSE(a.canAlloc());
    a.decRef(f);
    EXPECT_TRUE(a.canAlloc());
    const PhysAddr g = a.alloc(FrameUse::Metadata);
    EXPECT_EQ(f, g);
}

TEST(FrameAllocator, PoisonedFrameCountIsExact)
{
    auto a = makeAlloc();
    const PhysAddr f = a.alloc(FrameUse::Data);
    const PhysAddr g = a.alloc(FrameUse::Data);
    a.poison(f);
    a.poison(f); // already poisoned: counted once
    a.poison(g);
    EXPECT_EQ(a.poisonedFrames(), 2u);
    a.clearPoison(g);
    a.clearPoison(g);
    EXPECT_EQ(a.poisonedFrames(), 1u);
    EXPECT_TRUE(a.auditLive().consistent);
    a.decRef(f); // freeing a poisoned frame drops it from the count
    EXPECT_EQ(a.poisonedFrames(), 0u);
    EXPECT_TRUE(a.auditLive().consistent);
    // A poison bit set behind the allocator's back fails the audit.
    a.frame(g).poisoned = true;
    const FrameAudit audit = a.auditLive();
    EXPECT_FALSE(audit.consistent);
    EXPECT_NE(audit.detail.find("poisoned"), std::string::npos);
}

TEST(FrameAllocator, ExhaustionIsFatal)
{
    auto a = makeAlloc(2);
    a.alloc(FrameUse::Data);
    a.alloc(FrameUse::Data);
    EXPECT_THROW(a.alloc(FrameUse::Data), sim::FatalError);
}

TEST(FrameAllocator, PeakTracksHighWater)
{
    auto a = makeAlloc();
    const PhysAddr f = a.alloc(FrameUse::Data);
    const PhysAddr g = a.alloc(FrameUse::Data);
    a.decRef(f);
    a.decRef(g);
    EXPECT_EQ(a.peakUsedBytes(), 2 * kPageSize);
    a.resetPeak();
    EXPECT_EQ(a.peakUsedBytes(), 0u);
}

TEST(FrameAllocator, AccountingInBytes)
{
    auto a = makeAlloc(8);
    EXPECT_EQ(a.capacityBytes(), 8 * kPageSize);
    a.alloc(FrameUse::Data);
    EXPECT_EQ(a.usedBytes(), kPageSize);
    EXPECT_EQ(a.freeBytes(), 7 * kPageSize);
}

TEST(FrameAllocator, MisalignedConfigRejected)
{
    EXPECT_THROW(FrameAllocator("bad", Tier::Cxl, PhysAddr{123}, kPageSize),
                 sim::FatalError);
    EXPECT_THROW(FrameAllocator("bad", Tier::Cxl, PhysAddr{0}, 100),
                 sim::FatalError);
}

TEST(FrameAllocator, OutOfRangeAccessPanics)
{
    auto a = makeAlloc();
    EXPECT_DEATH(a.frame(PhysAddr{42}), "outside tier");
}

TEST(FrameAllocator, BadAddressesPanicOnEveryInlineAccessor)
{
    auto a = makeAlloc();
    const PhysAddr first = a.alloc(FrameUse::Data);
    a.alloc(FrameUse::Data);
    // In range but past the high-water mark of two frames.
    const PhysAddr past{first.raw + 2 * kPageSize};
    const PhysAddr last{first.raw + 15 * kPageSize};
    EXPECT_DEATH(a.frame(past), "was never allocated");
    EXPECT_DEATH(a.decRef(past), "was never allocated");
    EXPECT_DEATH(a.incRef(last), "was never allocated");
    // Below the base (the index wraps) and at or past the end.
    const PhysAddr below{first.raw - kPageSize};
    const PhysAddr end{first.raw + a.capacityBytes()};
    EXPECT_DEATH(a.frame(below), "outside tier");
    EXPECT_DEATH(a.decRef(below), "outside tier");
    EXPECT_DEATH(a.frame(end), "outside tier");
    EXPECT_DEATH(a.decRef(end), "outside tier");
    EXPECT_DEATH(a.incRef(PhysAddr{42}), "outside tier");
}

} // namespace
} // namespace cxlfork::mem
