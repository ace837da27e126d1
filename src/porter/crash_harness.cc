#include "crash_harness.hh"

#include "sim/error.hh"
#include "sim/log.hh"

namespace cxlfork::porter {

namespace {

using harness::kUser;
constexpr const char *kFunction = "crashfn";

ClusterConfig
crashCluster(const CrashEnumConfig &cfg)
{
    ClusterConfig cc = harness::smallCluster(2);
    cc.pageStore = cfg.pageStore;
    cc.coherence.mode = cfg.coherence;
    cc.contention = cfg.contention;
    return cc;
}

/** A fresh rig whose parent holds generation 0's tokens. */
struct CrashRig : harness::Rig
{
    explicit CrashRig(const CrashEnumConfig &cfg)
        : Rig(crashCluster(cfg), cfg.mechanism, kFunction, cfg.heapPages,
              {0xc0ffee, cfg.tokenPeriod})
    {
        parent.fill(0);
    }
};

} // namespace

uint64_t
countCrashSites(const CrashEnumConfig &cfg)
{
    CrashRig rig(cfg);
    sim::FaultInjector &faults = rig.cluster.machine().faults();
    faults.beginCrashCount();
    rig.mech->checkpointPublished(rig.cluster.checkpoints(),
                                  {kUser, kFunction}, rig.cluster.node(0),
                                  *rig.parent.task, nullptr, cfg.policy);
    const uint64_t sites = faults.crashSitesSeen();
    faults.disarmCrash();
    return sites;
}

CrashSiteResult
runCrashAtSite(const CrashEnumConfig &cfg, uint64_t site)
{
    CrashSiteResult r;
    r.site = site;

    CrashRig rig(cfg);
    Cluster &cluster = rig.cluster;
    mem::Machine &machine = cluster.machine();
    harness::TokenHeap &parent = rig.parent;
    rfork::CheckpointStore &store = cluster.checkpoints();
    harness::Verdict v;

    machine.faults().armCrashSite(site);
    try {
        rig.mech->checkpointPublished(store, {kUser, kFunction},
                                      cluster.node(0), *parent.task,
                                      nullptr, cfg.policy);
    } catch (const sim::NodeCrashError &) {
        r.crashed = true;
    }
    machine.faults().disarmCrash();

    if (r.crashed) {
        // The instant after the crash, before any recovery ran: another
        // node's lookup() must not see a half-built image. (A fully
        // built one is fine — crashing after publish is legal.) This is
        // exactly the window PublishPolicy::DirectPutUnsafe reopens.
        if (auto cid = store.lookup(kUser, kFunction)) {
            auto h = store.get(*cid);
            if (!h || !h->complete())
                v.fail("lookup exposes a half-built image before recovery");
        }

        // The node dies: its processes go with it, then it restarts and
        // runs the journal recovery pass.
        parent.exit();
        const NodeRecovery rec = cluster.recoverNode(0);
        r.framesReclaimed = rec.framesReclaimed;
        r.recoveryTime = rec.recoveryTime;
        if (store.stagedCount() != 0)
            v.fail("STAGED journal record survived recovery");
    }

    // Restorable-or-absent: whatever lookup() returns now must restore
    // on another node and reproduce every page token.
    std::optional<cxl::Cid> cid = store.lookup(kUser, kFunction);
    r.imageAvailable = cid.has_value();
    if (!r.crashed && !r.imageAvailable)
        v.fail("completed checkpoint was never published");
    if (cid) {
        auto handle = store.get(*cid);
        if (!handle) {
            v.fail("published CID has no stored object");
        } else {
            os::NodeOs &target = rig.restoreNode();
            try {
                auto child = rig.mech->restore(handle, target);
                r.restored = true;
                auto bad = parent.verify(target, *child, parent.image());
                if (bad) {
                    v.fail(sim::format(
                        "restored page %llu has token %#llx, want %#llx",
                        (unsigned long long)bad->page,
                        (unsigned long long)bad->got,
                        (unsigned long long)bad->want));
                }
                target.exitTask(child);
            } catch (const sim::SimError &e) {
                v.fail(std::string("published image failed to restore: ") +
                       e.what());
            }
        }
        store.reclaim(*cid);
    }

    parent.exit();
    r.framesLeaked = rig.audit(v);
    r.violation = v.failed;
    r.detail = v.detail;
    return r;
}

CrashEnumReport
enumerateCrashSites(const CrashEnumConfig &cfg)
{
    return harness::sweepSites(
        cfg.mechanism, countCrashSites(cfg), "crash",
        &CrashSiteResult::crashed,
        [&](uint64_t k) { return runCrashAtSite(cfg, k); });
}

} // namespace cxlfork::porter
