#include <gtest/gtest.h>

#include <random>

#include "cxl/rebase.hh"
#include "mem/machine.hh"
#include "os/pte.hh"

namespace cxlfork::cxl {
namespace {

using os::Pte;
using os::TablePage;

class RebaseTest : public ::testing::Test
{
  protected:
    RebaseTest() : machine(mem::MachineConfig{}) {}

    std::unique_ptr<TablePage>
    makeCxlLeaf(std::vector<uint32_t> slots)
    {
        auto leaf = std::make_unique<TablePage>(
            0, machine.cxl().alloc(mem::FrameUse::PageTable), false);
        for (uint32_t s : slots) {
            Pte p = Pte::make(machine.cxl().alloc(mem::FrameUse::Data, s),
                              false);
            p.set(Pte::kSoftCxl);
            if (s % 2)
                p.set(Pte::kAccessed);
            if (s % 3 == 0)
                p.set(Pte::kDirty);
            leaf->pte(s) = p;
        }
        return leaf;
    }

    mem::Machine machine;
};

TEST_F(RebaseTest, RoundTripPreservesEverything)
{
    auto leaf = makeCxlLeaf({0, 5, 100, 511});
    std::array<Pte, TablePage::kEntries> original;
    for (uint32_t i = 0; i < TablePage::kEntries; ++i)
        original[i] = leaf->pte(i);

    LeafRebaser(machine).rebase(*leaf);
    EXPECT_TRUE(leafIsRebased(*leaf));
    LeafRebaser(machine).derebase(*leaf);
    EXPECT_TRUE(leafIsAbsolute(*leaf));

    for (uint32_t i = 0; i < TablePage::kEntries; ++i)
        EXPECT_EQ(leaf->pte(i), original[i]) << "slot " << i;
}

TEST_F(RebaseTest, RebasedFormHoldsOffsetsNotAddresses)
{
    auto leaf = makeCxlLeaf({7});
    const mem::PhysAddr abs = leaf->pte(7).frame();
    LeafRebaser(machine).rebase(*leaf);
    const uint64_t off = leaf->pte(7).frame().raw;
    EXPECT_EQ(off, machine.cxlOffsetOf(abs));
    EXPECT_LT(off, machine.cxl().capacityBytes());
    EXPECT_TRUE(leaf->pte(7).rebased());
    // A/D survived.
    EXPECT_TRUE(leaf->pte(7).accessed());
}

TEST_F(RebaseTest, DoubleRebaseIsABug)
{
    auto leaf = makeCxlLeaf({1});
    LeafRebaser(machine).rebase(*leaf);
    EXPECT_DEATH(LeafRebaser(machine).rebase(*leaf), "already rebased");
}

TEST_F(RebaseTest, DerebaseOfAbsoluteIsABug)
{
    auto leaf = makeCxlLeaf({1});
    EXPECT_DEATH(LeafRebaser(machine).derebase(*leaf), "not in rebased form");
}

TEST_F(RebaseTest, EmptyLeafIsTriviallyBothForms)
{
    auto leaf = std::make_unique<TablePage>(
        0, machine.cxl().alloc(mem::FrameUse::PageTable), false);
    EXPECT_TRUE(leafIsRebased(*leaf));
    EXPECT_TRUE(leafIsAbsolute(*leaf));
    LeafRebaser(machine).rebase(*leaf);
    LeafRebaser(machine).derebase(*leaf);
}

/** Property: random leaves round-trip under rebase/derebase. */
class RebaseFuzz : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(RebaseFuzz, RandomLeafRoundTrips)
{
    mem::Machine machine{mem::MachineConfig{}};
    std::mt19937_64 rng(GetParam());
    auto leaf = std::make_unique<TablePage>(
        0, machine.cxl().alloc(mem::FrameUse::PageTable), false);
    for (uint32_t i = 0; i < TablePage::kEntries; ++i) {
        if (rng() % 3)
            continue;
        Pte p = Pte::make(machine.cxl().alloc(mem::FrameUse::Data, rng()),
                          false);
        p.set(Pte::kSoftCxl);
        if (rng() % 2)
            p.set(Pte::kAccessed);
        if (rng() % 2)
            p.set(Pte::kDirty);
        if (rng() % 5 == 0)
            p.set(Pte::kSoftHot);
        if (rng() % 4 == 0)
            p.set(Pte::kSoftFile);
        leaf->pte(i) = p;
    }
    std::array<uint64_t, TablePage::kEntries> before;
    for (uint32_t i = 0; i < TablePage::kEntries; ++i)
        before[i] = leaf->pte(i).raw();

    LeafRebaser(machine).rebase(*leaf);
    LeafRebaser(machine).derebase(*leaf);

    for (uint32_t i = 0; i < TablePage::kEntries; ++i)
        EXPECT_EQ(leaf->pte(i).raw(), before[i]);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RebaseFuzz,
                         ::testing::Range<uint64_t>(100, 112));

} // namespace
} // namespace cxlfork::cxl
