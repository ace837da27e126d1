/**
 * @file
 * Cross-image oracle for the content-addressed page store: two distinct
 * images that share device frames through the content index never
 * bleed writes into each other. (Dedup-on against dedup-off twins, for
 * every mechanism, is a row of the layer matrix, layer_matrix_test.cc.)
 */

#include <gtest/gtest.h>

#include "cxl/page_store.hh"
#include "rfork/cxlfork.hh"
#include "sim/rng.hh"
#include "test_util.hh"

namespace cxlfork::rfork {
namespace {

using test::PageRec;
using test::RandomProcess;
using test::World;

class CrossImageOracle : public ::testing::TestWithParam<uint64_t>
{
};

/**
 * Two distinct images sharing device frames through the content index:
 * a clone's re-checkpoint interns the same bytes as the original image,
 * so both images reference one physical copy. Writing through a child
 * of one image must never alter what the other image restores.
 */
TEST_P(CrossImageOracle, NoBleedThroughBetweenDedupedImages)
{
    cxl::PageStoreConfig dedupCfg;
    dedupCfg.dedup = true;
    World world(test::smallConfig(), dedupCfg);
    sim::Rng rng(GetParam());
    RandomProcess parent =
        test::makeRandomProcess(world.node(0), *world.vfs, rng);
    CxlFork fork(*world.fabric);

    auto h1 = fork.checkpoint(world.node(0), *parent.task);
    auto child1 = fork.restore(h1, world.node(1));
    // Re-checkpoint the unmodified clone: every data page interns to a
    // content hit against image 1.
    auto h2 = fork.checkpoint(world.node(1), *child1);
    auto child2 = fork.restore(h2, world.node(0));

    // Writes through image 1's child (the CoW fault path breaks the
    // content sharing page by page)...
    uint64_t writes = 0;
    for (const PageRec &p : parent.pages) {
        ASSERT_EQ(world.node(1).read(*child1, p.va), p.content);
        if (!p.writable)
            continue;
        world.node(1).write(*child1, p.va,
                            p.content ^ 0xbeef'0000'0000'0001ull);
        ++writes;
    }
    // ...and through image 2's child, with a different pattern.
    for (const PageRec &p : parent.pages) {
        ASSERT_EQ(world.node(0).read(*child2, p.va), p.content);
        if (!p.writable)
            continue;
        world.node(0).write(*child2, p.va,
                            p.content ^ 0x00d0'0000'0000'0002ull);
    }
    EXPECT_GT(writes, 0u);

    // Both images still restore the original bytes.
    auto fresh1 = fork.restore(h1, world.node(0));
    auto fresh2 = fork.restore(h2, world.node(1));
    for (const PageRec &p : parent.pages) {
        ASSERT_EQ(world.node(0).read(*fresh1, p.va), p.content)
            << "image 1 corrupted, va=" << std::hex << p.va.raw;
        ASSERT_EQ(world.node(1).read(*fresh2, p.va), p.content)
            << "image 2 corrupted, va=" << std::hex << p.va.raw;
    }

    // Releasing image 1 entirely must leave image 2 intact even though
    // they shared frames (refcounts, not ownership, hold the pages).
    fresh1.reset();
    child1.reset();
    h1.reset();
    auto survivor = fork.restore(h2, world.node(0));
    for (const PageRec &p : parent.pages)
        ASSERT_EQ(world.node(0).read(*survivor, p.va), p.content);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrossImageOracle,
                         ::testing::Range<uint64_t>(88100, 88105));

} // namespace
} // namespace cxlfork::rfork
