/**
 * @file
 * Differential coherence oracle over the Table-1 workloads.
 *
 * The directory must be invisible to restore *semantics*: for every
 * Table-1 function, a CXLfork checkpoint/restore with the directory
 * off, in HDM-H mode, and in HDM-D mode must produce byte-identical
 * child memory, identical post-restore CoW behaviour, and identical
 * event counters — only simulated time and the `cxl.coherence.*`
 * counters themselves may differ. Any other divergence means the
 * directory changed what the mechanisms *do* rather than what they
 * cost, or (worse) that a fork path is missing a flush/invalidate the
 * HDM-D model requires.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "cxl/coherence.hh"
#include "faas/function.hh"
#include "faas/workloads.hh"
#include "porter/cluster.hh"
#include "rfork/mechanism.hh"

namespace cxlfork::cxl {
namespace {

using mem::kPageSize;

constexpr uint64_t kPagesPerSegment = 192; ///< Verification cap per class.
constexpr uint64_t kCowProbes = 4;
constexpr uint64_t kCowToken = 0xc0ffee00;

porter::ClusterConfig
oracleCluster(CoherenceMode mode)
{
    porter::ClusterConfig cc;
    cc.machine.numNodes = 2;
    cc.machine.dramPerNodeBytes = mem::gib(2);
    cc.machine.cxlCapacityBytes = mem::gib(2);
    cc.machine.llcBytes = mem::mib(64);
    cc.coherence.mode = mode;
    return cc;
}

/** Everything one scenario run observes. */
struct Observation
{
    std::vector<uint64_t> pageTokens; ///< Child reads, fixed order.
    std::vector<uint64_t> cowTokens;  ///< Child + parent around CoW breaks.
    std::map<std::string, uint64_t> counters; ///< Sans cxl.coherence.*.
};

Observation
runScenario(const faas::FunctionSpec &spec, CoherenceMode mode,
            const std::string &mech)
{
    porter::Cluster cluster(oracleCluster(mode));
    Observation obs;

    auto parent =
        faas::FunctionInstance::deployCold(cluster.node(0), spec);
    auto mechanism =
        rfork::makeMechanism(*rfork::parseMechanism(mech), cluster.fabric());
    mechanism->checkpointPublished(cluster.checkpoints(),
                                   {spec.user, spec.name}, cluster.node(0),
                                   parent->task(), nullptr,
                                   rfork::PublishPolicy::TwoPhase);
    auto cid = cluster.checkpoints().lookup(spec.user, spec.name);
    EXPECT_TRUE(cid.has_value()) << spec.name;
    auto handle = cluster.checkpoints().get(*cid);
    EXPECT_NE(handle, nullptr) << spec.name;

    auto child = mechanism->restore(handle, cluster.node(1));
    const faas::FunctionLayout layout =
        faas::FunctionLayout::compute(spec);
    std::vector<mem::VirtAddr> writable;
    for (os::SegClass seg :
         {os::SegClass::Init, os::SegClass::ReadOnly,
          os::SegClass::ReadWrite}) {
        layout.forEachPage(seg, kPagesPerSegment,
                           [&](mem::VirtAddr va, uint64_t) {
                               if (seg == os::SegClass::ReadWrite)
                                   writable.push_back(va);
                               obs.pageTokens.push_back(
                                   cluster.node(1).read(*child, va));
                           });
    }

    // Post-restore CoW differential: the child breaks a few writable
    // pages; its new tokens and the parent's untouched originals both
    // go into the observation.
    for (uint64_t i = 0; i < kCowProbes && i < writable.size(); ++i) {
        const mem::VirtAddr va =
            writable[(i * 37) % writable.size()];
        cluster.node(1).write(*child, va, kCowToken + i);
        obs.cowTokens.push_back(cluster.node(1).read(*child, va));
        obs.cowTokens.push_back(cluster.node(0).read(parent->task(), va));
    }

    cluster.node(1).exitTask(child);
    parent->destroy();

    for (const auto &[name, ctr] :
         cluster.machine().metrics().counters()) {
        if (name.rfind("cxl.coherence.", 0) == 0)
            continue;
        obs.counters.emplace(name, ctr.value());
    }
    return obs;
}

void
expectIdentical(const Observation &base, const Observation &other,
                const std::string &what)
{
    ASSERT_EQ(base.pageTokens.size(), other.pageTokens.size()) << what;
    for (size_t i = 0; i < base.pageTokens.size(); ++i) {
        ASSERT_EQ(other.pageTokens[i], base.pageTokens[i])
            << what << ": child page " << i
            << " diverged — the directory changed restored memory";
    }
    ASSERT_EQ(base.cowTokens, other.cowTokens)
        << what << ": CoW-break behaviour diverged";
    EXPECT_EQ(base.counters, other.counters)
        << what << ": event counters diverged (only simulated time and "
        << "cxl.coherence.* may differ)";
}

class CoherenceOracle
    : public ::testing::TestWithParam<faas::WorkloadEntry>
{
};

TEST_P(CoherenceOracle, DirectoryOnOffRestoresIdentically)
{
    const faas::FunctionSpec &spec = GetParam().spec;
    const Observation off =
        runScenario(spec, CoherenceMode::Off, "cxlfork");
    const Observation hdmh =
        runScenario(spec, CoherenceMode::HdmH, "cxlfork");
    const Observation hdmd =
        runScenario(spec, CoherenceMode::HdmD, "cxlfork");
    expectIdentical(off, hdmh, spec.name + " hdm-h");
    expectIdentical(off, hdmd, spec.name + " hdm-d");
}

INSTANTIATE_TEST_SUITE_P(
    Table1, CoherenceOracle,
    ::testing::ValuesIn(faas::table1Workloads()),
    [](const ::testing::TestParamInfo<faas::WorkloadEntry> &info) {
        return info.param.spec.name;
    });

TEST(CoherenceOracleMechanisms, AllMechanismsRestoreIdentically)
{
    // The CoW/attach threading differs per mechanism; prove each one
    // is semantics-neutral on a small workload.
    const faas::FunctionSpec spec = *faas::findWorkload("Float");
    for (const char *mech : {"cxlfork", "criu", "mitosis"}) {
        const Observation off =
            runScenario(spec, CoherenceMode::Off, mech);
        const Observation hdmh =
            runScenario(spec, CoherenceMode::HdmH, mech);
        const Observation hdmd =
            runScenario(spec, CoherenceMode::HdmD, mech);
        expectIdentical(off, hdmh, std::string(mech) + " hdm-h");
        expectIdentical(off, hdmd, std::string(mech) + " hdm-d");
    }
}

} // namespace
} // namespace cxlfork::cxl
