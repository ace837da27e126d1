#include <gtest/gtest.h>

#include <array>

#include "faas/container.hh"
#include "faas/workloads.hh"
#include "rfork/cxlfork.hh"
#include "test_util.hh"

namespace cxlfork::faas {
namespace {

using mem::kPageSize;
using test::World;

FunctionSpec
tinySpec()
{
    FunctionSpec s;
    s.name = "tiny";
    s.footprintBytes = mem::mib(4);
    s.initFrac = 0.70;
    s.roFrac = 0.25;
    s.rwFrac = 0.05;
    s.workingSetBytes = mem::mib(1);
    s.wsReuse = 4;
    s.computeTime = sim::SimTime::ms(5);
    s.stateInitTime = sim::SimTime::ms(50);
    s.libFracOfInit = 0.5;
    s.vmaCount = 20;
    s.seed = 3;
    return s;
}

TEST(FunctionSpec, SegmentArithmetic)
{
    const FunctionSpec s = tinySpec();
    EXPECT_EQ(s.initBytes() + s.roBytes() + s.rwBytes(), s.footprintBytes);
    EXPECT_EQ(s.libBytes(), s.initBytes() / 2);
    EXPECT_GE(s.effectiveWorkingSet(), s.rwBytes());
    EXPECT_LE(s.effectiveWorkingSet(), s.roBytes() + s.rwBytes());
}

TEST(FunctionSpec, TokensDifferBySegmentPageAndVersion)
{
    const FunctionSpec s = tinySpec();
    EXPECT_NE(s.pageToken(os::SegClass::Init, 0),
              s.pageToken(os::SegClass::ReadOnly, 0));
    EXPECT_NE(s.pageToken(os::SegClass::ReadOnly, 0),
              s.pageToken(os::SegClass::ReadOnly, 1));
    EXPECT_NE(s.pageToken(os::SegClass::ReadWrite, 0, 0),
              s.pageToken(os::SegClass::ReadWrite, 0, 1));
}

TEST(FunctionLayout, DeterministicAndComplete)
{
    const FunctionSpec s = tinySpec();
    const FunctionLayout a = FunctionLayout::compute(s);
    const FunctionLayout b = FunctionLayout::compute(s);
    ASSERT_EQ(a.segments.size(), b.segments.size());
    for (size_t i = 0; i < a.segments.size(); ++i) {
        EXPECT_EQ(a.segments[i].start, b.segments[i].start);
        EXPECT_EQ(a.segments[i].pages, b.segments[i].pages);
    }
    const uint64_t totalPages = a.pagesOf(os::SegClass::Init) +
                                a.pagesOf(os::SegClass::ReadOnly) +
                                a.pagesOf(os::SegClass::ReadWrite);
    EXPECT_GE(totalPages, s.footprintBytes / kPageSize - 4);
}

TEST(FunctionLayout, ForEachPageRespectsLimit)
{
    const FunctionLayout l = FunctionLayout::compute(tinySpec());
    uint64_t count = 0;
    l.forEachPage(os::SegClass::ReadOnly, 10,
                  [&](mem::VirtAddr, uint64_t) { ++count; });
    EXPECT_EQ(count, 10u);
}

TEST(Workloads, Table1MatchesPaperFootprints)
{
    const auto &w = table1Workloads();
    ASSERT_EQ(w.size(), 10u);
    EXPECT_EQ(findWorkload("Bert")->footprintBytes, mem::mib(630));
    EXPECT_EQ(findWorkload("Float")->footprintBytes, mem::mib(24));
    EXPECT_EQ(findWorkload("BFS")->footprintBytes, mem::mib(125));
    EXPECT_FALSE(findWorkload("nope").has_value());
}

TEST(Workloads, Fig1AveragesNearPaper)
{
    double init = 0, ro = 0, rw = 0;
    for (const auto &w : table1Workloads()) {
        init += w.spec.initFrac;
        ro += w.spec.roFrac;
        rw += w.spec.rwFrac;
        EXPECT_NEAR(w.spec.initFrac + w.spec.roFrac + w.spec.rwFrac, 1.0,
                    1e-9);
    }
    EXPECT_NEAR(init / 10, 0.722, 0.05);
    EXPECT_NEAR(ro / 10, 0.23, 0.05);
    EXPECT_NEAR(rw / 10, 0.048, 0.01);
}

TEST(Workloads, OnlyBfsAndBertExceedTheLlc)
{
    const uint64_t llc = mem::mib(64);
    for (const auto &w : table1Workloads()) {
        const bool spills = w.spec.effectiveWorkingSet() > llc * 9 / 10;
        if (w.spec.name == "BFS" || w.spec.name == "Bert")
            EXPECT_TRUE(spills) << w.spec.name;
        else
            EXPECT_FALSE(spills) << w.spec.name;
    }
}

class InstanceTest : public ::testing::Test
{
  protected:
    InstanceTest() : world(test::smallConfig()) {}

    World world;
};

TEST_F(InstanceTest, ColdDeployPopulatesFootprint)
{
    auto inst = FunctionInstance::deployCold(world.node(0), tinySpec());
    EXPECT_GE(inst->localBytes(), tinySpec().footprintBytes);
    EXPECT_EQ(inst->cxlBytes(), 0u);
    // Cold start charged at least the state-init time.
    EXPECT_GE(world.node(0).clock().now(), tinySpec().stateInitTime);
}

TEST_F(InstanceTest, InvokeChargesComputeAndMemory)
{
    auto inst = FunctionInstance::deployCold(world.node(0), tinySpec());
    const auto r1 = inst->invoke();
    EXPECT_GE(r1.latency, tinySpec().computeTime);
    EXPECT_EQ(inst->invocations(), 1u);
    // Second invocation is warm: the cache retains the stable working
    // set; only the rotating input window streams in.
    const auto r2 = inst->invoke();
    EXPECT_LE(r2.latency, r1.latency);
    EXPECT_LT(r2.missesLocal + r2.missesCxl,
              (r1.missesLocal + r1.missesCxl) / 2)
        << "fitting working set should be mostly cache-resident when warm";
}

TEST_F(InstanceTest, InvocationWritesBumpVersions)
{
    auto inst = FunctionInstance::deployCold(world.node(0), tinySpec());
    inst->invoke();
    const FunctionLayout &l = inst->layout();
    std::vector<mem::VirtAddr> rwPages;
    l.forEachPage(os::SegClass::ReadWrite, 3,
                  [&](mem::VirtAddr va, uint64_t) { rwPages.push_back(va); });
    const uint64_t v1 = world.node(0).read(inst->task(), rwPages[0]);
    inst->invoke();
    const uint64_t v2 = world.node(0).read(inst->task(), rwPages[0]);
    EXPECT_NE(v1, v2);
}

TEST_F(InstanceTest, RestoredInstanceComputesSameResults)
{
    auto parent = FunctionInstance::deployCold(world.node(0), tinySpec());
    parent->invoke();
    rfork::CxlFork fork(*world.fabric);
    auto handle = fork.checkpoint(world.node(0), parent->task());
    auto childTask = fork.restore(handle, world.node(1));
    auto child = FunctionInstance::adoptRestored(world.node(1), tinySpec(),
                                                 childTask);
    // The child reads the parent's read-only data through CXL.
    const FunctionLayout &l = child->layout();
    l.forEachPage(os::SegClass::ReadOnly, 16,
                  [&](mem::VirtAddr va, uint64_t idx) {
                      EXPECT_EQ(world.node(1).read(child->task(), va),
                                tinySpec().pageToken(os::SegClass::ReadOnly,
                                                     idx, 0));
                  });
    const auto r = child->invoke();
    EXPECT_GE(r.latency, tinySpec().computeTime);
}

TEST_F(InstanceTest, DestroyFreesMemory)
{
    const uint64_t before = world.node(0).localDram().usedFrames();
    auto inst = FunctionInstance::deployCold(world.node(0), tinySpec());
    inst->invoke();
    inst->destroy();
    EXPECT_EQ(world.node(0).localDram().usedFrames(), before);
}

TEST_F(InstanceTest, ContainerLifecycle)
{
    ContainerManager cm(world.node(0));
    const auto t0 = world.node(0).clock().now();
    auto ghost = cm.provisionGhost("bert");
    EXPECT_EQ(ghost->state(), Container::State::Ghost);
    EXPECT_GE(world.node(0).clock().now() - t0,
              world.machine->costs().containerCreate);
    EXPECT_EQ(ghost->shellBytes(), 512ull << 10);

    const auto t1 = world.node(0).clock().now();
    cm.trigger(*ghost);
    EXPECT_EQ(ghost->state(), Container::State::Active);
    // Triggering is orders of magnitude cheaper than creation.
    EXPECT_LT(world.node(0).clock().now() - t1,
              world.machine->costs().containerCreate / 100.0);
    EXPECT_THROW(cm.trigger(*ghost), sim::FatalError);

    cm.retire(*ghost);
    EXPECT_EQ(cm.liveCount(), 0u);
}

TEST_F(InstanceTest, ContainerOpsCountOnceInMachineMetrics)
{
    const sim::MetricsRegistry &m = world.machine->metrics();
    const auto counts = [&m] {
        return std::array<uint64_t, 3>{
            m.counterValue("faas.container.created"),
            m.counterValue("faas.container.ghost_provisioned"),
            m.counterValue("faas.container.ghost_triggered")};
    };
    ContainerManager cm(world.node(0));
    EXPECT_EQ(counts(), (std::array<uint64_t, 3>{0, 0, 0}));
    auto active = cm.create("a");
    EXPECT_EQ(counts(), (std::array<uint64_t, 3>{1, 0, 0}));
    auto ghost = cm.provisionGhost("b");
    EXPECT_EQ(counts(), (std::array<uint64_t, 3>{1, 1, 0}));
    cm.trigger(*ghost);
    EXPECT_EQ(counts(), (std::array<uint64_t, 3>{1, 1, 1}));
    // A rejected trigger counts nothing.
    EXPECT_THROW(cm.trigger(*active), sim::FatalError);
    EXPECT_EQ(counts(), (std::array<uint64_t, 3>{1, 1, 1}));
}

TEST_F(InstanceTest, DeployIntoGhostContainer)
{
    ContainerManager cm(world.node(1));
    auto ghost = cm.provisionGhost("tiny");
    cm.trigger(*ghost);
    auto inst = FunctionInstance::deployCold(world.node(1), tinySpec(),
                                             &ghost->namespaces());
    EXPECT_EQ(inst->task().namespaces().cgroup.name,
              ghost->namespaces().cgroup.name);
}

} // namespace
} // namespace cxlfork::faas
