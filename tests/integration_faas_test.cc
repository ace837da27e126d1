/**
 * @file
 * End-to-end integration: the full FaaS pipeline over real Table-1
 * workloads — cold deploy, warm-up, checkpoint with each mechanism,
 * restore into a ghost container on the other node, execute, verify
 * content and accounting — plus a porter smoke run on a real trace.
 */

#include <gtest/gtest.h>

#include "faas/container.hh"
#include "faas/workloads.hh"
#include "porter/autoscaler.hh"
#include "porter/cluster.hh"
#include "porter/trace.hh"
#include "rfork/criu.hh"
#include "rfork/cxlfork.hh"
#include "rfork/mechanism.hh"
#include "rfork/mitosis.hh"

#include "porter_test_util.hh"

namespace cxlfork {
namespace {

porter::ClusterConfig
integrationConfig()
{
    porter::ClusterConfig cfg;
    cfg.machine.numNodes = 2;
    cfg.machine.dramPerNodeBytes = mem::gib(1);
    cfg.machine.cxlCapacityBytes = mem::gib(1);
    return cfg;
}

class FaasIntegration
    : public ::testing::TestWithParam<std::tuple<const char *, const char *>>
{
};

TEST_P(FaasIntegration, FullPipelineProducesCorrectClone)
{
    const auto [fnName, mechName] = GetParam();
    const faas::FunctionSpec spec = *faas::findWorkload(fnName);

    porter::Cluster cluster(integrationConfig());
    os::NodeOs &node0 = cluster.node(0);
    os::NodeOs &node1 = cluster.node(1);

    // Deploy cold, warm up the JIT, reset A/D as CXLporter does.
    auto parent = faas::FunctionInstance::deployCold(node0, spec);
    for (int i = 0; i < 3; ++i)
        parent->invoke();
    parent->task().mm().pageTable().clearAccessedBits(true);
    const auto parentResult = parent->invoke();

    // Checkpoint.
    auto mech = rfork::makeMechanism(*rfork::parseMechanism(mechName),
                                     cluster.fabric());
    rfork::CheckpointStats cs;
    auto handle = mech->checkpoint(node0, parent->task(), &cs);
    EXPECT_GT(cs.pages, spec.footprintBytes / mem::kPageSize * 9 / 10);

    // Restore into a triggered ghost container on the other node.
    auto ghost = cluster.containers(1).provisionGhost(spec.name);
    cluster.containers(1).trigger(*ghost);
    rfork::RestoreOptions opts;
    opts.container = &ghost->namespaces();
    auto childTask = mech->restore(handle, node1, opts);
    auto child =
        faas::FunctionInstance::adoptRestored(node1, spec, childTask);

    // The clone executes and reads correct read-only state.
    const auto childResult = child->invoke();
    EXPECT_GT(childResult.latency, spec.computeTime);
    child->layout().forEachPage(
        os::SegClass::ReadOnly, 32, [&](mem::VirtAddr va, uint64_t idx) {
            EXPECT_EQ(node1.read(child->task(), va),
                      spec.pageToken(os::SegClass::ReadOnly, idx, 0));
        });
    // Library pages match the shared root FS.
    const auto &seg = child->layout().segments.front();
    ASSERT_EQ(seg.kind, os::VmaKind::FilePrivate);
    auto inode = cluster.vfs().lookup(seg.filePath);
    ASSERT_NE(inode, nullptr);
    EXPECT_EQ(node1.read(child->task(), seg.start), inode->pageContent(0));

    // Parent unaffected; its next invocation still works.
    EXPECT_GT(parent->invoke().latency, spec.computeTime);
    (void)parentResult;
}

INSTANTIATE_TEST_SUITE_P(
    WorkloadsXMechanisms, FaasIntegration,
    ::testing::Combine(::testing::Values("Float", "Json", "Linpack",
                                         "Chameleon", "Pyaes"),
                       ::testing::Values("cxlfork", "criu", "mitosis")),
    [](const auto &info) {
        return std::string(std::get<0>(info.param)) + "_" +
               std::get<1>(info.param);
    });

TEST(FaasIntegrationHeavy, BfsAcrossMechanismsAgreesOnContent)
{
    // One heavier function, all mechanisms against the same parent.
    const faas::FunctionSpec spec = *faas::findWorkload("BFS");
    porter::Cluster cluster(integrationConfig());
    auto parent =
        faas::FunctionInstance::deployCold(cluster.node(0), spec);
    parent->invoke();
    parent->task().mm().pageTable().clearAccessedBits(true);
    parent->invoke();

    rfork::CxlFork cxlf(cluster.fabric());
    rfork::CriuCxl criu(cluster.fabric());
    rfork::MitosisCxl mito(cluster.fabric());

    auto c1 = cxlf.restore(cxlf.checkpoint(cluster.node(0), parent->task()),
                           cluster.node(1));
    auto c2 = criu.restore(criu.checkpoint(cluster.node(0), parent->task()),
                           cluster.node(1));
    auto c3 = mito.restore(mito.checkpoint(cluster.node(0), parent->task()),
                           cluster.node(1));

    const faas::FunctionLayout layout = faas::FunctionLayout::compute(spec);
    layout.forEachPage(os::SegClass::ReadOnly, 64,
                       [&](mem::VirtAddr va, uint64_t) {
                           const uint64_t a = cluster.node(1).read(*c1, va);
                           EXPECT_EQ(a, cluster.node(1).read(*c2, va));
                           EXPECT_EQ(a, cluster.node(1).read(*c3, va));
                       });
}

TEST(PorterIntegration, SmokeRunOnRealWorkloads)
{
    std::vector<faas::FunctionSpec> functions;
    std::vector<std::string> names;
    for (const char *n : {"Float", "Json"}) {
        functions.push_back(*faas::findWorkload(n));
        names.push_back(n);
    }
    porter::TraceConfig tc;
    tc.totalRps = 30;
    tc.duration = sim::SimTime::sec(12);
    tc.seed = 5;
    const auto trace = porter::TraceGenerator(names, tc).generate();

    porter::PerfModel perf;
    porter::PorterConfig cfg;
    cfg.mechanism = porter::Mechanism::CxlFork;
    porter::PorterSim sim(cfg, functions, perf);
    const auto m = runAudited(sim, trace);
    EXPECT_EQ(m.latency.count(), trace.size());
    EXPECT_GT(m.warmHits + m.restores + m.coldStarts, 0u);
    EXPECT_GT(m.p99Ms(), m.p50Ms() * 0.99);
    EXPECT_GT(m.completedRps, 0.0);
}

} // namespace
} // namespace cxlfork
