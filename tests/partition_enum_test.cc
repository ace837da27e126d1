/**
 * @file
 * Partition-site enumeration (porter::sweep with Fault::Sever over the
 * partition preset): sever the restoring node's link at
 * EVERY transaction site of the restore path (plus the sever-free
 * control), and audit restorable-or-absent after each episode — the
 * ladder serves the restore byte-identical from another rung, or the
 * function degrades to an honest cold start; no stale-epoch record
 * may publish and no frame may leak, at any severance point. The
 * partition twin of PR 4's crash enumeration, riding the same site
 * counter. Labeled `partition` (ctest -L partition).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>

#include "cxl/link_health.hh"
#include "porter/scenario.hh"

namespace cxlfork {
namespace {

using rfork::MechanismKind;
using porter::Fault;
using porter::Scenario;
using porter::SweepReport;

/**
 * Cut the restoring node off and read over its link: the verify's
 * first read fails with a fabric partition, which a soak counts as a
 * retryable flap.
 */
void
plantPartitionedRead(porter::Cluster &cluster, mem::NodeId n)
{
    cluster.linkHealth()->sever(n);
    cluster.machine().cxlTransaction(cluster.node(n).clock(),
                                     "planted verify read", n);
}

Scenario
enumBaseConfig(MechanismKind mech)
{
    Scenario cfg = Scenario::partition();
    cfg.mechanism = mech;
    cfg.heapPages = 6; // small heap keeps the site count tractable
    return cfg;
}

class PartitionEnumAllMechanisms
    : public ::testing::TestWithParam<MechanismKind>
{
};

TEST_P(PartitionEnumAllMechanisms, RestorableOrAbsentAtEverySite)
{
    const Scenario cfg = enumBaseConfig(GetParam());
    const SweepReport rep = porter::sweep(cfg, Fault::Sever);
    EXPECT_TRUE(rep.pass) << rep.firstViolation;
    EXPECT_GT(rep.sites, 0u) << "no transaction sites to sever at all";
    // sites + 1: every severance point plus the sever-free control.
    EXPECT_EQ(rep.results.size(), rep.sites + 1);
    for (const auto &r : rep.results) {
        EXPECT_FALSE(r.violation) << "site " << r.site << ": "
                                  << r.detail;
        EXPECT_EQ(r.framesLeaked, 0u) << "site " << r.site;
    }
    // The control episode (no severance) must restore directly.
    const auto &control = rep.results.back();
    EXPECT_FALSE(control.fired);
    EXPECT_TRUE(control.restored) << control.detail;
    EXPECT_EQ(control.rung, porter::LadderRung::Direct);
}

INSTANTIATE_TEST_SUITE_P(
    Mechanisms, PartitionEnumAllMechanisms,
    ::testing::Values(MechanismKind::CxlFork, MechanismKind::CriuCxl,
                      MechanismKind::MitosisCxl, MechanismKind::LocalFork),
    [](const ::testing::TestParamInfo<MechanismKind> &info) {
        std::string name = rfork::mechanismName(info.param);
        name.erase(std::remove_if(name.begin(), name.end(),
                                  [](char c) { return !std::isalnum(c); }),
                   name.end());
        return name;
    });

TEST(PartitionEnum, SeveranceActuallyLandsSomewhere)
{
    // The sweep is vacuous if no armed site ever fires or the ladder
    // never gets pushed off the direct rung.
    const SweepReport rep =
        porter::sweep(enumBaseConfig(MechanismKind::CxlFork), Fault::Sever);
    uint64_t fired = 0, offDirect = 0;
    for (const auto &r : rep.results) {
        fired += r.fired;
        offDirect += r.restored && r.rung != porter::LadderRung::Direct;
    }
    EXPECT_GT(fired, 0u) << "no armed severance ever fired";
    EXPECT_GT(offDirect, 0u)
        << "every severed restore still rode the direct rung";
}

TEST(PartitionEnum, ReadFailureAfterAServedRestoreIsAViolation)
{
    // A replay runs calm, so its one degradation is the ladder
    // exhausted under the armed sever. A verify read that fails once
    // the control's restore was served must fail the replay.
    const Scenario cfg = enumBaseConfig(MechanismKind::CxlFork);
    const uint64_t control = porter::countSites(cfg, Fault::Sever);
    const porter::SiteResult r =
        porter::runAtSite(cfg, Fault::Sever, control, plantPartitionedRead);
    EXPECT_TRUE(r.restored);
    EXPECT_TRUE(r.violation);
    EXPECT_NE(r.detail.find("verify read failed at page 0"),
              std::string::npos)
        << r.detail;
    EXPECT_EQ(r.framesLeaked, 0u);
}

TEST(PartitionEnum, SweepIsDeterministic)
{
    const Scenario cfg = enumBaseConfig(MechanismKind::CriuCxl);
    const SweepReport a = porter::sweep(cfg, Fault::Sever);
    const SweepReport b = porter::sweep(cfg, Fault::Sever);
    ASSERT_EQ(a.results.size(), b.results.size());
    for (size_t i = 0; i < a.results.size(); ++i) {
        EXPECT_EQ(a.results[i].fired, b.results[i].fired) << i;
        EXPECT_EQ(a.results[i].restored, b.results[i].restored) << i;
        EXPECT_EQ(int(a.results[i].rung), int(b.results[i].rung)) << i;
        EXPECT_EQ(a.results[i].imageAvailable,
                  b.results[i].imageAvailable)
            << i;
    }
}

} // namespace
} // namespace cxlfork
