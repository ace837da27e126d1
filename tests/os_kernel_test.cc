/**
 * @file
 * NodeOs surface tests: task lifecycle, mapping entry points, fault
 * time accounting, metrics, and error handling not covered by the
 * fault/fork suites.
 */

#include <gtest/gtest.h>

#include "test_util.hh"

namespace cxlfork::os {
namespace {

using mem::kPageSize;
using test::World;

class KernelTest : public ::testing::Test
{
  protected:
    KernelTest() : world(test::smallConfig()), node(world.node(0)) {}

    World world;
    NodeOs &node;
};

TEST_F(KernelTest, TaskLifecycle)
{
    EXPECT_EQ(node.taskCount(), 0u);
    auto t1 = node.createTask("a");
    auto t2 = node.createTask("b");
    EXPECT_EQ(node.taskCount(), 2u);
    EXPECT_NE(t1->pid(), t2->pid());
    EXPECT_EQ(node.findTask(t1->pid()), t1);
    node.exitTask(t1);
    EXPECT_EQ(node.taskCount(), 1u);
    EXPECT_EQ(node.findTask(t1->pid()), nullptr);
    EXPECT_EQ(t1->state(), TaskState::Zombie);
}

TEST_F(KernelTest, TasksInDistinctNamespacesGetIndependentPids)
{
    auto nsA = world.nsRegistry.hostSet();
    auto nsB = world.nsRegistry.hostSet();
    auto t1 = node.createTask("a", &nsA);
    auto t2 = node.createTask("b", &nsB);
    EXPECT_EQ(t1->pid(), t2->pid()) << "fresh PID namespaces both start at 1";
}

TEST_F(KernelTest, CreateTaskChargesTime)
{
    const auto before = node.clock().now();
    node.createTask("t");
    EXPECT_GE(node.clock().now() - before,
              world.machine->costs().taskCreate);
}

TEST_F(KernelTest, MapVmaValidatesFileExistence)
{
    auto task = node.createTask("t");
    Vma vma;
    vma.start = mem::VirtAddr{0x10000};
    vma.end = mem::VirtAddr{0x20000};
    vma.kind = VmaKind::FilePrivate;
    vma.filePath = "/no/such/file";
    EXPECT_THROW(node.mapVma(*task, vma), sim::FatalError);

    world.vfs->create("/some/file", kPageSize * 16);
    vma.filePath = "/some/file";
    EXPECT_NO_THROW(node.mapVma(*task, std::move(vma)));
}

TEST_F(KernelTest, MapFilePrivateRequiresFile)
{
    auto task = node.createTask("t");
    EXPECT_THROW(node.mapFilePrivate(*task, "/nope", kVmaRead),
                 sim::FatalError);
}

TEST_F(KernelTest, FaultTimeAccumulatesOnlyOnFaults)
{
    auto task = node.createTask("t");
    Vma &vma = node.mapAnon(*task, 8 * kPageSize, kVmaRead | kVmaWrite, "h");
    const auto f0 = node.faultTime();
    node.touchRange(*task, vma.start, vma.end, true);
    const auto f1 = node.faultTime();
    EXPECT_GT(f1, f0);
    // Hits add nothing.
    node.touchRange(*task, vma.start, vma.end, false);
    EXPECT_EQ(node.faultTime(), f1);
}

TEST_F(KernelTest, StatsCountersNameFaultKinds)
{
    auto task = node.createTask("t");
    Vma &vma = node.mapAnon(*task, kPageSize, kVmaRead | kVmaWrite, "h");
    node.access(*task, vma.start, true, 1);
    const sim::MetricsRegistry &m = world.machine->metrics();
    EXPECT_EQ(m.counterValue("os.fault.minor"), 1u);
    EXPECT_EQ(m.counterValue("os.task.created"), 1u);
}

TEST_F(KernelTest, NodesHaveIndependentClocks)
{
    NodeOs &other = world.node(1);
    auto task = node.createTask("t");
    (void)task;
    EXPECT_GT(node.clock().now().toNs(), 0.0);
    EXPECT_EQ(other.clock().now().toNs(), 0.0);
}

TEST_F(KernelTest, FaultKindNamesAreStable)
{
    EXPECT_STREQ(faultKindName(FaultKind::None), "none");
    EXPECT_STREQ(faultKindName(FaultKind::Minor), "minor");
    EXPECT_STREQ(faultKindName(FaultKind::Major), "major");
    EXPECT_STREQ(faultKindName(FaultKind::CowLocal), "cow-local");
    EXPECT_STREQ(faultKindName(FaultKind::CowCxl), "cow-cxl");
    EXPECT_STREQ(faultKindName(FaultKind::CxlMigrate), "cxl-migrate");
    EXPECT_STREQ(faultKindName(FaultKind::CxlMapThrough), "cxl-map");
    EXPECT_STREQ(tieringPolicyName(TieringPolicy::MigrateOnWrite),
                 "migrate-on-write");
    EXPECT_STREQ(tieringPolicyName(TieringPolicy::MigrateOnAccess),
                 "migrate-on-access");
    EXPECT_STREQ(tieringPolicyName(TieringPolicy::Hybrid), "hybrid");
}

TEST_F(KernelTest, InvalidNodeIdRejected)
{
    EXPECT_THROW(NodeOs bad(9, *world.machine, world.vfs,
                            world.nsRegistry),
                 sim::FatalError);
}

TEST_F(KernelTest, WriteThenReadRoundTripsContent)
{
    auto task = node.createTask("t");
    Vma &vma = node.mapAnon(*task, kPageSize, kVmaRead | kVmaWrite, "h");
    node.write(*task, vma.start, 0x1234);
    EXPECT_EQ(node.read(*task, vma.start), 0x1234u);
    node.write(*task, vma.start, 0x5678);
    EXPECT_EQ(node.read(*task, vma.start), 0x5678u);
}

} // namespace
} // namespace cxlfork::os
