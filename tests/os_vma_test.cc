#include <gtest/gtest.h>

#include "os/vma.hh"
#include "sim/log.hh"

namespace cxlfork::os {
namespace {

using mem::kPageSize;
using mem::VirtAddr;

Vma
makeVma(uint64_t start, uint64_t pages, const std::string &name = "v")
{
    Vma v;
    v.start = VirtAddr{start};
    v.end = VirtAddr{start + pages * kPageSize};
    v.name = name;
    return v;
}

TEST(Vma, GeometryHelpers)
{
    const Vma v = makeVma(0x10000, 4);
    EXPECT_EQ(v.lengthBytes(), 4 * kPageSize);
    EXPECT_EQ(v.pageCount(), 4u);
    EXPECT_TRUE(v.contains(VirtAddr{0x10000}));
    EXPECT_TRUE(v.contains(VirtAddr{0x10000 + 4 * kPageSize - 1}));
    EXPECT_FALSE(v.contains(VirtAddr{0x10000 + 4 * kPageSize}));
}

TEST(VmaTree, InsertAndFind)
{
    VmaTree t;
    t.insert(makeVma(0x10000, 2, "a"));
    t.insert(makeVma(0x20000, 2, "b"));
    ASSERT_NE(t.findLocal(VirtAddr{0x10000}), nullptr);
    EXPECT_EQ(t.findLocal(VirtAddr{0x10000})->name, "a");
    EXPECT_EQ(t.findLocal(VirtAddr{0x21000})->name, "b");
    EXPECT_EQ(t.findLocal(VirtAddr{0x13000}), nullptr);
    EXPECT_EQ(t.localCount(), 2u);
}

TEST(VmaTree, RejectsOverlapsAndBadRanges)
{
    VmaTree t;
    t.insert(makeVma(0x10000, 4));
    EXPECT_THROW(t.insert(makeVma(0x12000, 1)), sim::FatalError);
    EXPECT_THROW(t.insert(makeVma(0xf000, 2)), sim::FatalError);
    Vma inverted = makeVma(0x50000, 1);
    std::swap(inverted.start, inverted.end);
    EXPECT_THROW(t.insert(inverted), sim::FatalError);
    Vma unaligned = makeVma(0x60000, 1);
    unaligned.start = VirtAddr{0x60010};
    EXPECT_THROW(t.insert(unaligned), sim::FatalError);
}

TEST(SharedVmaSet, FindsBinarySearch)
{
    std::vector<Vma> recs;
    for (uint64_t i = 0; i < 100; ++i)
        recs.push_back(makeVma(0x100000 + i * 0x10000, 4));
    SharedVmaSet set(std::move(recs));
    EXPECT_EQ(set.size(), 100u);
    auto hit = set.find(VirtAddr{0x100000 + 50 * 0x10000 + 0x1000});
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(set.at(*hit).start.raw, 0x100000 + 50 * 0x10000);
    EXPECT_FALSE(set.find(VirtAddr{0x1}).has_value());
    EXPECT_FALSE(set.find(VirtAddr{0x100000 + 4 * kPageSize}).has_value());
}

TEST(SharedVmaSet, RejectsOverlaps)
{
    std::vector<Vma> recs{makeVma(0x1000, 4), makeVma(0x3000, 4)};
    EXPECT_THROW(SharedVmaSet set(std::move(recs)), sim::FatalError);
}

TEST(VmaTree, SharedAttachAndMaterialize)
{
    auto set = std::make_shared<SharedVmaSet>(
        std::vector<Vma>{makeVma(0x10000, 2, "s0"), makeVma(0x20000, 2, "s1")});
    VmaTree t;
    t.attachShared(set);
    EXPECT_TRUE(t.hasShared());
    EXPECT_EQ(t.liveCount(), 2u);

    auto idx = t.findShared(VirtAddr{0x10000});
    ASSERT_TRUE(idx.has_value());
    Vma &local = t.materialize(*idx);
    EXPECT_EQ(local.name, "s0");
    // Materialized records shadow the shared set.
    EXPECT_FALSE(t.findShared(VirtAddr{0x10000}).has_value());
    EXPECT_NE(t.findLocal(VirtAddr{0x10000}), nullptr);
    EXPECT_EQ(t.liveCount(), 2u);
}

TEST(VmaTree, DoubleAttachRejected)
{
    auto set = std::make_shared<SharedVmaSet>(std::vector<Vma>{});
    VmaTree t;
    t.attachShared(set);
    EXPECT_THROW(t.attachShared(set), sim::FatalError);
}

TEST(VmaTree, RemoveRangeTombstonesShared)
{
    auto set = std::make_shared<SharedVmaSet>(
        std::vector<Vma>{makeVma(0x10000, 2), makeVma(0x20000, 2)});
    VmaTree t;
    t.attachShared(set);
    t.removeRange(VirtAddr{0x10000}, VirtAddr{0x10000 + 2 * kPageSize});
    EXPECT_FALSE(t.findShared(VirtAddr{0x10000}).has_value());
    EXPECT_TRUE(t.findShared(VirtAddr{0x20000}).has_value());
    EXPECT_EQ(t.liveCount(), 1u);
}

TEST(VmaTree, RemoveRangeDropsLocal)
{
    VmaTree t;
    t.insert(makeVma(0x10000, 2));
    t.removeRange(VirtAddr{0x10000}, VirtAddr{0x10000 + 2 * kPageSize});
    EXPECT_EQ(t.localCount(), 0u);
}

TEST(VmaTree, FindLocalMissesAJustRemovedVma)
{
    VmaTree t;
    t.insert(makeVma(0x10000, 2, "a"));
    t.insert(makeVma(0x20000, 2, "b"));
    // The last lookup found "a", so a lookup cursor would point at it.
    ASSERT_NE(t.findLocal(VirtAddr{0x11000}), nullptr);
    t.removeRange(VirtAddr{0x10000}, VirtAddr{0x10000 + 2 * kPageSize});
    EXPECT_EQ(t.findLocal(VirtAddr{0x11000}), nullptr);
    EXPECT_EQ(t.findLocal(VirtAddr{0x10000}), nullptr);
    EXPECT_EQ(t.findLocal(VirtAddr{0x21000})->name, "b");
    // A new record over the same range is found, not the old one.
    t.insert(makeVma(0x10000, 2, "c"));
    ASSERT_NE(t.findLocal(VirtAddr{0x11000}), nullptr);
    EXPECT_EQ(t.findLocal(VirtAddr{0x11000})->name, "c");
}

TEST(VmaTree, FindLocalServesRepeatsFromTheCursor)
{
    WorkCounters work;
    VmaTree t(&work);
    t.insert(makeVma(0x10000, 4, "a"));
    t.insert(makeVma(0x20000, 2, "b"));
    EXPECT_EQ(t.findLocal(VirtAddr{0x10000})->name, "a");
    EXPECT_EQ(t.findLocal(VirtAddr{0x13000})->name, "a");
    EXPECT_EQ(t.findLocal(VirtAddr{0x20000})->name, "b");
    EXPECT_EQ(t.findLocal(VirtAddr{0x14000}), nullptr);
    EXPECT_EQ(t.findLocal(VirtAddr{0x21000})->name, "b");
    // Only the first lookup in each record descends the map; a miss
    // descends and leaves the cursor where it was.
    EXPECT_EQ(work.vmaDescents, 3u);
    EXPECT_EQ(work.vmaCursorHits, 2u);
}

TEST(VmaTree, ForEachSeesLiveView)
{
    auto set = std::make_shared<SharedVmaSet>(
        std::vector<Vma>{makeVma(0x10000, 2, "shared")});
    VmaTree t;
    t.attachShared(set);
    t.insert(makeVma(0x50000, 1, "local"));
    std::vector<std::string> names;
    t.forEach([&](const Vma &v) { names.push_back(v.name); });
    EXPECT_EQ(names.size(), 2u);
    // After materialization no duplicates appear.
    t.materialize(*t.findShared(VirtAddr{0x10000}));
    names.clear();
    t.forEach([&](const Vma &v) { names.push_back(v.name); });
    EXPECT_EQ(names.size(), 2u);
}

} // namespace
} // namespace cxlfork::os
