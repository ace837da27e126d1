/**
 * @file
 * FrameTable: lazily chunked per-frame side state.
 */

#include <gtest/gtest.h>

#include <vector>

#include "mem/frame_table.hh"

namespace cxlfork::mem {
namespace {

constexpr uint64_t kChunk = FrameTable<int>::kChunkEntries;

struct Entry
{
    uint64_t value = 7;
};

TEST(FrameTable, FindIsNullForUntouchedIndices)
{
    FrameTable<Entry> t;
    EXPECT_EQ(t.find(0), nullptr);
    EXPECT_EQ(t.find(1ull << 40), nullptr);

    t.at(3 * kChunk + 5).value = 42;
    // Untouched neighbours inside the materialised chunk, indices in
    // earlier never-materialised chunks, and indices past the last
    // chunk all stay absent.
    EXPECT_EQ(t.find(3 * kChunk + 4), nullptr);
    EXPECT_EQ(t.find(3 * kChunk + 6), nullptr);
    EXPECT_EQ(t.find(0), nullptr);
    EXPECT_EQ(t.find(kChunk + 5), nullptr);
    EXPECT_EQ(t.find(4 * kChunk + 5), nullptr);
    EXPECT_EQ(t.find(~uint64_t(0) >> 12), nullptr);

    ASSERT_NE(t.find(3 * kChunk + 5), nullptr);
    EXPECT_EQ(t.find(3 * kChunk + 5)->value, 42u);
    // at() default-constructs on first touch.
    EXPECT_EQ(t.at(3 * kChunk + 6).value, 7u);
    EXPECT_NE(t.find(3 * kChunk + 6), nullptr);
}

TEST(FrameTable, ReferencesSurviveLaterChunks)
{
    FrameTable<Entry> t;
    Entry &first = t.at(kChunk - 1);
    first.value = 1;
    std::vector<Entry *> seen{&first};
    // Grow the table one chunk at a time; every growth step may move
    // the chunk directory but never an entry.
    for (uint64_t c = 1; c < 64; ++c) {
        Entry &e = t.at(c * kChunk + c);
        e.value = c;
        seen.push_back(&e);
    }
    EXPECT_EQ(&t.at(kChunk - 1), &first);
    EXPECT_EQ(first.value, 1u);
    for (uint64_t c = 1; c < 64; ++c) {
        Entry *e = t.find(c * kChunk + c);
        ASSERT_NE(e, nullptr);
        EXPECT_EQ(e, seen[c]);
        EXPECT_EQ(e->value, c);
    }
}

TEST(FrameTable, WalksTouchedEntriesInAscendingOrder)
{
    FrameTable<Entry> t;
    const std::vector<uint64_t> touched = {
        9 * kChunk + 1000, 5, 2 * kChunk, 64, 63, 9 * kChunk + 1, 0};
    for (uint64_t i : touched)
        t.at(i).value = i;

    std::vector<uint64_t> walked;
    const FrameTable<Entry> &ct = t;
    ct.forEach([&](uint64_t i, const Entry &e) {
        EXPECT_EQ(e.value, i);
        walked.push_back(i);
    });
    EXPECT_EQ(walked, (std::vector<uint64_t>{0, 5, 63, 64, 2 * kChunk,
                                             9 * kChunk + 1,
                                             9 * kChunk + 1000}));

    // The mutable walk hands out the same entries.
    t.forEach([](uint64_t, Entry &e) { e.value += 1; });
    EXPECT_EQ(t.find(64)->value, 65u);
}

} // namespace
} // namespace cxlfork::mem
