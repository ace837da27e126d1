/**
 * @file
 * The core under the fault scenario (scenario.hh): a small
 * cluster with one mechanism and a node-0 parent whose heap holds
 * seeded page tokens (Rig, TokenHeap), a long-lived soak's
 * published-CID bookkeeping (Soak), a first-violation recorder
 * (Verdict), one teardown audit, and one count -> replay-each-site ->
 * control sweep (sweepSites).
 *
 * The audit is the union of every preset's checks: the frame census
 * balances to the baseline (no leak, no double free); the CXL and
 * every DRAM allocator pass auditLive(); the page store passes its
 * audit; with RAS on, the RAS audit passes and no replica frame
 * survives; with a coherence directory, every directory invariant
 * holds; and no STAGED journal record survives.
 */

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "porter/cluster.hh"
#include "rfork/mechanism.hh"
#include "sim/log.hh"
#include "sim/rng.hh"

namespace cxlfork::porter::harness {

inline constexpr const char *kUser = "tenant0";

/**
 * 128 MiB DRAM per node, 256 MiB CXL, an 8 MiB LLC: small, because the
 * allocators reserve metadata in proportion to capacity.
 */
ClusterConfig smallCluster(uint32_t numNodes);

/**
 * Page i of generation g holds 0x9e3779b97f4a7c15 * (j + 1) ^
 * (salt + g * 0x01000193), with j = i mod period (j = i when period is
 * 0). A period makes a dedup-enabled checkpoint share its own frames.
 */
struct PageTokens
{
    uint64_t salt = 0;
    uint64_t period = 0;

    uint64_t
    operator()(uint64_t gen, uint64_t page) const
    {
        const uint64_t j = period ? page % period : page;
        return 0x9e3779b97f4a7c15ull * (j + 1) ^
               (salt + gen * 0x0100'0193ull);
    }
};

/** Where a heap lives and which token generation it holds. */
struct HeapImage
{
    uint64_t generation = 0;
    mem::VirtAddr start{0};
};

struct TokenMismatch
{
    uint64_t page, got, want;
};

/** A process whose anonymous heap holds one generation of tokens. */
struct TokenHeap
{
    TokenHeap(os::NodeOs &n, const char *fn, uint64_t p, PageTokens t)
        : node(n), function(fn), pages(p), tokens(t)
    {}

    os::NodeOs &node;
    const char *function;
    uint64_t pages;
    PageTokens tokens;
    std::shared_ptr<os::Task> task; ///< Null before fill(), after exit().
    mem::VirtAddr start{0};         ///< The last heap's address.
    uint64_t generation = ~uint64_t(0);

    /** Create the task and heap if they are gone, then write `gen`. */
    void fill(uint64_t gen);
    void exit();
    HeapImage image() const { return {generation, start}; }

    /**
     * The first page of `child`'s copy of `img`, read on `at`, whose
     * token is wrong. Reads may throw; each caller keeps its own
     * exception policy. `*reached` holds the page being read.
     */
    std::optional<TokenMismatch> verify(os::NodeOs &at, os::Task &child,
                                        const HeapImage &img,
                                        uint64_t *reached = nullptr) const;
};

/** The first violated invariant of a run; later ones are dropped. */
struct Verdict
{
    explicit Verdict(std::string p = {}) : prefix(std::move(p)) {}

    std::string prefix; ///< Starts the recorded detail.
    bool failed = false;
    std::string detail;

    void
    fail(const std::string &why)
    {
        if (!failed) {
            failed = true;
            detail = prefix + why;
        }
    }
};

/**
 * The teardown audit (see the file comment) of `cluster` into `v`, its
 * frame census against `baselineFrames`.
 * @return the frames in use above the baseline.
 */
uint64_t auditCluster(Cluster &cluster, uint64_t baselineFrames, Verdict &v);

/** A harness cluster, its mechanism and the node-0 parent. */
struct Rig
{
    /**
     * The census baseline is taken once the mechanism exists; the
     * parent's task is created by its first fill().
     */
    Rig(const ClusterConfig &cc, rfork::MechanismKind kind,
        const char *function, uint64_t heapPages, PageTokens tokens);

    /** auditCluster() of this rig's cluster and baseline. */
    uint64_t
    audit(Verdict &v)
    {
        return auditCluster(cluster, baselineFrames, v);
    }

    Cluster cluster;
    rfork::MechanismKind kind;
    std::unique_ptr<rfork::RemoteForkMechanism> mech;
    uint64_t baselineFrames = 0;
    TokenHeap parent;
};

/**
 * A long-lived soak: the parent republished as new generations, and
 * every published CID with the heap image it must restore. Violations
 * start with the mechanism's name.
 */
struct Soak : Rig
{
    Soak(const ClusterConfig &cc, rfork::MechanismKind kind,
         const char *function, uint64_t heapPages, PageTokens tokens,
         uint64_t seed);

    void fail(const std::string &why) { verdict.fail(why); }

    struct Hit
    {
        cxl::Cid cid;
        std::shared_ptr<rfork::CheckpointHandle> handle;
        HeapImage expected;
    };

    /**
     * The function's published checkpoint, if it has a stored object
     * and a record; a miss counts in `*coldStarts`, anything else is a
     * violation.
     */
    std::optional<Hit> lookupPublished(uint64_t *coldStarts);

    /** Record `cid` as the parent's image; reclaim every older one. */
    void supersede(cxl::Cid cid);

    /**
     * After node 0's recovery: no STAGED record may survive, and an
     * unrecorded lookup hit is the interrupted publish of `pendingGen`,
     * completed by recovery.
     */
    void afterRecovery(uint64_t pendingGen);

    /** Drop every record the store no longer holds. */
    void pruneReclaimed();

    /** Reclaim everything published, exit the parent, audit. */
    uint64_t teardown();

    sim::Rng rng;
    std::map<cxl::Cid, HeapImage> published;
    Verdict verdict;
};

/** The report of a count -> replay-each-site -> control sweep. */
template <class Result>
struct SiteSweepReport
{
    uint64_t sites = 0; ///< Sites counted in the dry run.
    /** One entry per k in [0, sites]; k == sites is the control. */
    std::vector<Result> results;
    bool pass = true;
    std::string firstViolation;
};

/**
 * Run `runAt(k)` for every counted site and then the fault-free
 * control (k == sites). The count must agree with the replays: every
 * k below it fires (`Result::*fired`), the control does not. `fault`
 * names the fault in a drift violation.
 */
template <class Result, class RunAt>
SiteSweepReport<Result>
sweepSites(rfork::MechanismKind kind, uint64_t sites, const char *fault,
           bool Result::*fired, RunAt runAt)
{
    SiteSweepReport<Result> rep;
    rep.sites = sites;
    rep.results.reserve(sites + 1);
    for (uint64_t k = 0; k <= sites; ++k) {
        Result r = runAt(k);
        if (!r.violation && (k < sites) != r.*fired) {
            r.violation = true;
            r.detail = k < sites ? sim::format("armed %s site never fired "
                                               "(count drift)", fault)
                                 : sim::format("%s fired past the counted "
                                               "site range", fault);
        }
        if (r.violation && rep.pass) {
            rep.pass = false;
            rep.firstViolation = sim::format(
                "%s site %llu: %s", rfork::mechanismName(kind),
                (unsigned long long)k, r.detail.c_str());
        }
        rep.results.push_back(std::move(r));
    }
    return rep;
}

} // namespace cxlfork::porter::harness
