/**
 * @file
 * Pins the exact reports of the scenario presets.
 *
 * For each mechanism, the chaos and partition soak reports (restore
 * latencies included) and every SiteResult of the crash and severance
 * sweeps, at the tools' default presets, are folded into an FNV-1a
 * hash and compared with a recorded value. Each hash folds the fields
 * the crash, chaos and partition harnesses reported before they became
 * one scenario, in their order. The other scenario tests check
 * run-to-run determinism; this one pins the reports across commits, so
 * a refactor that moves one RNG draw, one site or one counter fails
 * here.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cctype>
#include <cstdint>
#include <string>

#include "porter/scenario.hh"

namespace cxlfork {
namespace {

using Kind = rfork::MechanismKind;

/** FNV-1a over the little-endian bytes of each folded field. */
class Fingerprint
{
  public:
    void
    add(uint64_t v)
    {
        for (int i = 0; i < 64; i += 8)
            h_ = (h_ ^ ((v >> i) & 0xff)) * 0x100000001b3ull;
    }
    void add(bool b) { add(uint64_t(b)); }
    void add(double d) { add(std::bit_cast<uint64_t>(d)); }
    void add(sim::SimTime t) { add(t.toNs()); }
    void
    add(const std::string &s)
    {
        add(uint64_t(s.size()));
        for (char c : s)
            h_ = (h_ ^ uint8_t(c)) * 0x100000001b3ull;
    }
    uint64_t value() const { return h_; }

  private:
    uint64_t h_ = 0xcbf29ce484222325ull;
};

uint64_t
chaosFingerprint(Kind k)
{
    porter::Scenario s = porter::Scenario::chaos();
    s.mechanism = k;
    const porter::Report r = porter::run(s);
    Fingerprint f;
    for (uint64_t v :
         {r.rounds, r.invocations, r.checkpointsPublished, r.restoresOk,
          r.coldStarts, r.transientFailures, r.checkpointsLost, r.pagesLost,
          r.repairs, r.replicasWritten, r.peakReplicaBytes, r.strikes,
          r.crashesInjected, r.recoveries, r.scrubRepairs, r.framesLeaked})
        f.add(v);
    f.add(r.pass);
    f.add(r.firstViolation);
    return f.value();
}

uint64_t
partitionSoakFingerprint(Kind k)
{
    porter::Scenario s = porter::Scenario::partition();
    s.mechanism = k;
    const porter::Report r = porter::run(s);
    Fingerprint f;
    for (uint64_t v :
         {r.rounds, r.invocations, r.checkpointsPublished, r.restoresOk,
          r.directRestores, r.retriedRestores, r.reroutes, r.failovers,
          r.coldStarts, r.heartbeatMisses, r.quarantines, r.rejoins,
          r.publishPartitioned, r.stalePublishesRejected, r.doublePublishes,
          r.staleRecordsReclaimed, r.transientFailures, r.severedTxns,
          r.degradedTxns, r.framesLeaked})
        f.add(v);
    f.add(r.pass);
    f.add(r.firstViolation);
    f.add(uint64_t(r.restoreLatenciesUs.size()));
    for (double us : r.restoreLatenciesUs)
        f.add(us);
    return f.value();
}

uint64_t
crashEnumFingerprint(Kind k)
{
    porter::Scenario s = porter::Scenario::crash();
    s.mechanism = k;
    const porter::SweepReport r = porter::sweep(s, porter::Fault::Crash);
    Fingerprint f;
    f.add(r.sites);
    f.add(uint64_t(r.results.size()));
    for (const porter::SiteResult &s : r.results) {
        f.add(s.site);
        f.add(s.fired);
        f.add(s.imageAvailable);
        f.add(s.restored);
        f.add(s.violation);
        f.add(s.detail);
        f.add(s.framesLeaked);
        f.add(s.framesReclaimed);
        f.add(s.recoveryTime);
    }
    f.add(r.pass);
    f.add(r.firstViolation);
    return f.value();
}

uint64_t
partitionEnumFingerprint(Kind k)
{
    porter::Scenario s = porter::Scenario::partition();
    s.mechanism = k;
    const porter::SweepReport r = porter::sweep(s, porter::Fault::Sever);
    Fingerprint f;
    f.add(r.sites);
    f.add(uint64_t(r.results.size()));
    for (const porter::SiteResult &s : r.results) {
        f.add(s.site);
        f.add(s.fired);
        f.add(s.imageAvailable);
        f.add(s.restored);
        f.add(s.violation);
        f.add(s.detail);
        f.add(uint64_t(s.rung));
        f.add(s.framesLeaked);
    }
    f.add(r.pass);
    f.add(r.firstViolation);
    return f.value();
}

/**
 * Values recorded by this test before the three harnesses moved onto
 * harness_core.hh; that move, and the fold into one scenario, had to
 * leave every report unchanged.
 */
struct Pinned
{
    Kind kind;
    uint64_t chaos;
    uint64_t partitionSoak;
    uint64_t crashEnum;
    uint64_t partitionEnum;
};

class HarnessFingerprint : public ::testing::TestWithParam<Pinned>
{
};

TEST_P(HarnessFingerprint, ReportsMatchRecorded)
{
    const Pinned &p = GetParam();
    EXPECT_EQ(chaosFingerprint(p.kind), p.chaos);
    EXPECT_EQ(partitionSoakFingerprint(p.kind), p.partitionSoak);
    EXPECT_EQ(crashEnumFingerprint(p.kind), p.crashEnum);
    EXPECT_EQ(partitionEnumFingerprint(p.kind), p.partitionEnum);
}

INSTANTIATE_TEST_SUITE_P(
    Mechanisms, HarnessFingerprint,
    ::testing::Values(
        Pinned{Kind::CxlFork, 0x49285024c25ec302, 0x1737548f032f9b85,
               0xf31c5d68781f2bae, 0xfce650688c17fa87},
        Pinned{Kind::CriuCxl, 0x54081e46a88eb037, 0x14c4317d1352ea66,
               0xceb727cc7bffd72e, 0xaf82081d8b7f1005},
        Pinned{Kind::MitosisCxl, 0x0c4b9b8cd0d1be2f, 0x2405755117de26ab,
               0xf0f6db86c7761dec, 0xa836113c90b3ca64},
        Pinned{Kind::LocalFork, 0x54ad1da9ce276674, 0xa3e13c17ce4b1bcf,
               0xf4d389bbd26093de, 0x70ca03086de17b25}),
    [](const ::testing::TestParamInfo<Pinned> &info) {
        std::string name = rfork::mechanismName(info.param.kind);
        std::erase_if(name, [](char c) { return !std::isalnum(c); });
        return name;
    });

} // namespace
} // namespace cxlfork
