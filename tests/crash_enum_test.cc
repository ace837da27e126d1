/**
 * @file
 * Deterministic crash-point enumeration (porter::sweep with
 * Fault::Crash over the crash preset): for every mechanism, run
 * checkpoint-publish with a crash injected at every site k, recover
 * the node, and audit the machine-wide invariants (no leaked frames,
 * consistent allocators, lookup restorable-or-absent). Also proves the
 * harness has teeth: reverting two-phase publication to direct put
 * (PublishPolicy::DirectPutUnsafe) must make the enumeration fail.
 */

#include <gtest/gtest.h>

#include "cxl/link_health.hh"
#include "porter/scenario.hh"
#include "sim/error.hh"

namespace cxlfork::porter {
namespace {

using rfork::MechanismKind;

/** Small footprint keeps the per-site cluster rebuild cheap. */
constexpr uint64_t kHeapPages = 8;

Scenario
configFor(MechanismKind m,
          rfork::PublishPolicy policy = rfork::PublishPolicy::TwoPhase)
{
    Scenario cfg = Scenario::crash();
    cfg.mechanism = m;
    cfg.heapPages = kHeapPages;
    cfg.policy = policy;
    return cfg;
}

/**
 * Cut the restoring node off and read over its link: the verify's
 * first read fails with a fabric partition, which a soak counts as a
 * retryable flap.
 */
void
plantPartitionedRead(Cluster &cluster, mem::NodeId n)
{
    cluster.linkHealth()->sever(n);
    cluster.machine().cxlTransaction(cluster.node(n).clock(),
                                     "planted verify read", n);
}

std::string
describe(const SweepReport &rep)
{
    if (rep.pass)
        return "pass";
    return rep.firstViolation;
}

TEST(CrashEnum, SiteCountIsDeterministic)
{
    const Scenario cfg = configFor(MechanismKind::CxlFork);
    const uint64_t a = countSites(cfg, Fault::Crash);
    const uint64_t b = countSites(cfg, Fault::Crash);
    EXPECT_EQ(a, b);
    // A checkpoint that allocates frames and journals must pass through
    // a meaningful number of crash sites: at least stage, one
    // allocation per page, publish, and the post-publish site.
    EXPECT_GE(a, kHeapPages + 4);
}

TEST(CrashEnum, EverySiteRecoversCxlFork)
{
    const SweepReport rep =
        sweep(configFor(MechanismKind::CxlFork), Fault::Crash);
    EXPECT_TRUE(rep.pass) << describe(rep);
    EXPECT_EQ(rep.results.size(), rep.sites + 1);
    // The crash-free control must publish a restorable image.
    const SiteResult &control = rep.results.back();
    EXPECT_FALSE(control.fired);
    EXPECT_TRUE(control.imageAvailable);
    EXPECT_TRUE(control.restored);
}

TEST(CrashEnum, EverySiteRecoversCriu)
{
    const SweepReport rep =
        sweep(configFor(MechanismKind::CriuCxl), Fault::Crash);
    EXPECT_TRUE(rep.pass) << describe(rep);
    EXPECT_TRUE(rep.results.back().restored);
}

TEST(CrashEnum, EverySiteRecoversMitosis)
{
    const SweepReport rep =
        sweep(configFor(MechanismKind::MitosisCxl), Fault::Crash);
    EXPECT_TRUE(rep.pass) << describe(rep);
    EXPECT_TRUE(rep.results.back().restored);
    // A Mitosis checkpoint dies with its node: no crashed run may
    // leave the image available (it pins the dead node's DRAM).
    for (uint64_t k = 0; k < rep.sites; ++k)
        EXPECT_FALSE(rep.results[k].imageAvailable)
            << "site " << k << " left a node-coupled image published";
}

TEST(CrashEnum, EverySiteRecoversLocalFork)
{
    const SweepReport rep =
        sweep(configFor(MechanismKind::LocalFork), Fault::Crash);
    EXPECT_TRUE(rep.pass) << describe(rep);
    EXPECT_TRUE(rep.results.back().restored);
    for (uint64_t k = 0; k < rep.sites; ++k)
        EXPECT_FALSE(rep.results[k].imageAvailable)
            << "site " << k << " kept a dead parent published";
}

TEST(CrashEnum, LatePublishCrashesLeaveRestorableImage)
{
    // For decoupled mechanisms, a crash at the post-publish site must
    // leave the already-published image restorable from another node —
    // the CXL-persistence property the paper's Sec. 5 store relies on.
    for (MechanismKind m :
         {MechanismKind::CxlFork, MechanismKind::CriuCxl}) {
        const Scenario cfg = configFor(m);
        const uint64_t sites = countSites(cfg, Fault::Crash);
        ASSERT_GT(sites, 0u);
        const SiteResult last = runAtSite(cfg, Fault::Crash, sites - 1);
        EXPECT_TRUE(last.fired) << rfork::mechanismName(m);
        EXPECT_FALSE(last.violation)
            << rfork::mechanismName(m) << ": " << last.detail;
        EXPECT_TRUE(last.imageAvailable) << rfork::mechanismName(m);
        EXPECT_TRUE(last.restored) << rfork::mechanismName(m);
    }
}

TEST(CrashEnum, ReadFailureAfterAServedRestoreIsAViolation)
{
    // A replay runs calm: a restore or verify read that fails is a
    // violation, whatever its type. With the link model on, cut the
    // restoring node off once the control's restore was served.
    Scenario cfg = configFor(MechanismKind::CxlFork);
    cfg.cluster.link.enabled = true;
    const uint64_t control = countSites(cfg, Fault::Crash);
    const SiteResult r =
        runAtSite(cfg, Fault::Crash, control, plantPartitionedRead);
    EXPECT_FALSE(r.fired);
    EXPECT_TRUE(r.restored);
    EXPECT_TRUE(r.violation);
    EXPECT_NE(r.detail.find("verify read failed at page 0"),
              std::string::npos)
        << r.detail;
    EXPECT_EQ(r.framesLeaked, 0u);
}

TEST(CrashEnum, SomeMidBuildCrashIsCompletedOrReclaimed)
{
    // Across the sweep, recovery must exercise both verdicts for
    // CXLfork: early crashes reclaim (incomplete image), while the
    // crash at the publish-step site completes the fully-built orphan.
    const SweepReport rep =
        sweep(configFor(MechanismKind::CxlFork), Fault::Crash);
    ASSERT_TRUE(rep.pass) << describe(rep);
    bool sawReclaimed = false;
    bool sawCompleted = false;
    for (uint64_t k = 0; k < rep.sites; ++k) {
        if (!rep.results[k].fired)
            continue;
        if (rep.results[k].imageAvailable)
            sawCompleted = true;
        else
            sawReclaimed = true;
    }
    EXPECT_TRUE(sawReclaimed);
    EXPECT_TRUE(sawCompleted);
}

TEST(CrashEnum, DirectPutUnsafeFailsTheEnumeration)
{
    // The negative control: with publication reverted to direct put,
    // lookup() exposes half-built images and the invariant audit must
    // catch at least one site. If this test ever "passes" the sweep,
    // the harness lost its teeth.
    const SweepReport rep = sweep(
        configFor(MechanismKind::CxlFork,
                  rfork::PublishPolicy::DirectPutUnsafe),
        Fault::Crash);
    EXPECT_FALSE(rep.pass);
    uint64_t violations = 0;
    bool sawTornExposure = false;
    for (const SiteResult &r : rep.results) {
        violations += r.violation;
        if (r.detail.find("half-built") != std::string::npos)
            sawTornExposure = true;
    }
    EXPECT_GT(violations, 1u);
    EXPECT_TRUE(sawTornExposure);
}

// --- The sweep again with content dedup on.
//
// tokenPeriod folds the heap contents onto four distinct tokens, so
// the page store takes shared references (and walks its pagestore.hit
// crash site) during every checkpoint build. Recovery must release the
// staged manifest's refcounts exactly once: a double release trips the
// allocator audit (refcount underflow / early free), a missed one
// trips the census check (frames still held after reclamation), and
// auditAll() additionally cross-checks the store's content index.

Scenario
dedupConfigFor(MechanismKind m,
               rfork::PublishPolicy policy = rfork::PublishPolicy::TwoPhase)
{
    Scenario cfg = configFor(m, policy);
    cfg.cluster.pageStore.dedup = true;
    cfg.tokens.period = 4;
    return cfg;
}

TEST(CrashEnumDedup, SiteCountIsDeterministic)
{
    const Scenario cfg = dedupConfigFor(MechanismKind::CxlFork);
    const uint64_t a = countSites(cfg, Fault::Crash);
    EXPECT_EQ(a, countSites(cfg, Fault::Crash));
    EXPECT_GE(a, kHeapPages + 4);
}

TEST(CrashEnumDedup, EverySiteRecoversCxlFork)
{
    const SweepReport rep =
        sweep(dedupConfigFor(MechanismKind::CxlFork), Fault::Crash);
    EXPECT_TRUE(rep.pass) << describe(rep);
    EXPECT_EQ(rep.results.size(), rep.sites + 1);
    const SiteResult &control = rep.results.back();
    EXPECT_FALSE(control.fired);
    EXPECT_TRUE(control.imageAvailable);
    EXPECT_TRUE(control.restored);
}

TEST(CrashEnumDedup, EverySiteRecoversCriu)
{
    const SweepReport rep =
        sweep(dedupConfigFor(MechanismKind::CriuCxl), Fault::Crash);
    EXPECT_TRUE(rep.pass) << describe(rep);
    EXPECT_TRUE(rep.results.back().restored);
}

TEST(CrashEnumDedup, SharedHeapStillRecoversWithoutDedup)
{
    // Control: the same folded heap without the content index. Proves
    // any dedup-sweep failure is the store's, not the workload's.
    Scenario cfg = configFor(MechanismKind::CxlFork);
    cfg.tokens.period = 4;
    const SweepReport rep = sweep(cfg, Fault::Crash);
    EXPECT_TRUE(rep.pass) << describe(rep);
}

TEST(CrashEnumDedup, DirectPutUnsafeStillFailsTheEnumeration)
{
    // The harness keeps its teeth with dedup on: reverting two-phase
    // publication must still be caught.
    const SweepReport rep = sweep(
        dedupConfigFor(MechanismKind::CxlFork,
                       rfork::PublishPolicy::DirectPutUnsafe),
        Fault::Crash);
    EXPECT_FALSE(rep.pass);
}

// --- The sweep again with the coherence directory armed.
//
// The directory adds its own crash sites (coherence.read / .write /
// .flush) to every checkpoint build, and recoverNode runs the
// directory's crash-cleanup pass. The sweep proves a crash *inside* a
// coherence operation recovers as cleanly as every other site — no
// leaked frames, no stale visibility, restorable-or-absent lookup.

Scenario
coherenceConfigFor(MechanismKind m, cxl::CoherenceMode mode)
{
    Scenario cfg = configFor(m);
    cfg.cluster.coherence.mode = mode;
    return cfg;
}

TEST(CrashEnumCoherence, DirectoryAddsCrashSites)
{
    const uint64_t off =
        countSites(configFor(MechanismKind::CxlFork), Fault::Crash);
    const uint64_t hdmh = countSites(
        coherenceConfigFor(MechanismKind::CxlFork, cxl::CoherenceMode::HdmH),
        Fault::Crash);
    EXPECT_GT(hdmh, off)
        << "an armed directory must walk its own crash sites";
    // And the directory-off sweep is exactly the pre-coherence one.
    EXPECT_EQ(off,
              countSites(configFor(MechanismKind::CxlFork), Fault::Crash));
}

TEST(CrashEnumCoherence, EverySiteRecoversCxlForkHdmH)
{
    const SweepReport rep = sweep(
        coherenceConfigFor(MechanismKind::CxlFork, cxl::CoherenceMode::HdmH),
        Fault::Crash);
    EXPECT_TRUE(rep.pass) << describe(rep);
    const SiteResult &control = rep.results.back();
    EXPECT_TRUE(control.restored);
}

TEST(CrashEnumCoherence, EverySiteRecoversCxlForkHdmD)
{
    // HDM-D is the brutal variant: a crash between a checkpoint write
    // and its flush leaves unflushed pending stores that recovery must
    // discard — a restore that *succeeds with stale bytes* would fail
    // the page-token verification inside the harness.
    const SweepReport rep = sweep(
        coherenceConfigFor(MechanismKind::CxlFork, cxl::CoherenceMode::HdmD),
        Fault::Crash);
    EXPECT_TRUE(rep.pass) << describe(rep);
    EXPECT_TRUE(rep.results.back().restored);
}

TEST(CrashEnumCoherence, EverySiteRecoversCriuHdmD)
{
    const SweepReport rep = sweep(
        coherenceConfigFor(MechanismKind::CriuCxl, cxl::CoherenceMode::HdmD),
        Fault::Crash);
    EXPECT_TRUE(rep.pass) << describe(rep);
    EXPECT_TRUE(rep.results.back().restored);
}

// --- The sweep again with the fabric queue model armed.
//
// The queue hook charges latency but sits *after* the crash point in
// cxlTransaction and the coherence paths bypass it for crash purposes,
// so arming it must not add, remove, or reorder a single crash site —
// and every site must still recover restorable-or-absent with zero
// leaks while contention delays stretch the simulated timeline.

Scenario
contentionConfigFor(MechanismKind m)
{
    Scenario cfg = configFor(m);
    cfg.cluster.contention.enabled = true;
    return cfg;
}

TEST(CrashEnumContention, QueueAddsNoCrashSites)
{
    const uint64_t off =
        countSites(configFor(MechanismKind::CxlFork), Fault::Crash);
    const uint64_t armed =
        countSites(contentionConfigFor(MechanismKind::CxlFork), Fault::Crash);
    EXPECT_EQ(armed, off)
        << "the queue model is a latency hook, not a failure domain: "
           "arming it must not shift the deterministic site enumeration";
}

TEST(CrashEnumContention, EverySiteRecoversCxlForkQueued)
{
    const SweepReport rep =
        sweep(contentionConfigFor(MechanismKind::CxlFork), Fault::Crash);
    EXPECT_TRUE(rep.pass) << describe(rep);
    EXPECT_EQ(rep.results.size(), rep.sites + 1);
    EXPECT_TRUE(rep.results.back().restored);
}

TEST(CrashEnumContention, EverySiteRecoversCriuQueued)
{
    const SweepReport rep =
        sweep(contentionConfigFor(MechanismKind::CriuCxl), Fault::Crash);
    EXPECT_TRUE(rep.pass) << describe(rep);
    EXPECT_TRUE(rep.results.back().restored);
}

TEST(CrashEnum, CrashMetricsLandInMachineRegistry)
{
    ClusterConfig cc;
    cc.machine.numNodes = 2;
    cc.machine.dramPerNodeBytes = mem::mib(128);
    cc.machine.cxlCapacityBytes = mem::mib(256);
    cc.machine.llcBytes = mem::mib(8);
    Cluster cluster(cc);
    sim::FaultInjector &faults = cluster.machine().faults();
    faults.beginCrashCount();
    faults.crashPoint("a");
    faults.crashPoint("b");
    EXPECT_EQ(faults.crashSitesSeen(), 2u);
    faults.armCrashSite(1);
    faults.crashPoint("a");
    EXPECT_THROW(faults.crashPoint("b"), sim::NodeCrashError);
    // One-shot: after firing the injector disarms itself.
    faults.crashPoint("c");
    EXPECT_EQ(faults.stats().crashesInjected, 1u);
    EXPECT_EQ(cluster.machine()
                  .metrics()
                  .counter("sim.faults.crashes_injected")
                  .value(),
              1u);
}

} // namespace
} // namespace cxlfork::porter
