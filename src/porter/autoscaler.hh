/**
 * @file
 * CXLporter: the horizontal FaaS autoscaler (paper Sec. 5).
 *
 * An event-driven cluster simulation that dispatches an invocation
 * trace against warm instances, ghost containers and rfork restores.
 * It implements the paper's five operations: judiciously-timed
 * checkpoints (after the 16th invocation), the checkpoint object
 * store, the ghost-container pool, dynamic tiering-policy control
 * (SLO + HighMem threshold + periodic A-bit reset), and dynamic
 * keep-alive windows (shortened to 10 s under memory pressure).
 *
 * Request latencies use PerfProfiles measured through the page-level
 * machinery; the cluster dynamics (queueing, eviction, memory
 * pressure, burst amplification) are simulated here.
 */

#pragma once

#include <array>
#include <deque>
#include <map>
#include <set>
#include <unordered_map>
#include <vector>

#include "perf_model.hh"
#include "sim/event_queue.hh"
#include "sim/metrics.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"
#include "sim/trace.hh"
#include "trace.hh"

namespace cxlfork::porter {

/**
 * Cluster-level failure injection (all disabled by default). The
 * autoscaler layer is analytic, so it draws from its own seeded stream
 * rather than the page-level FaultInjector: crashes take whole nodes
 * (and every container on them) down for nodeRecovery, restores can
 * hit transient CXL faults (retried with backoff, charged to the
 * spawn latency) or find their checkpoint torn (degrade to a cold
 * start and rebuild the checkpoint).
 */
struct PorterFaults
{
    uint64_t seed = 0xc1a5'7e12ULL;
    sim::SimTime nodeMtbf;      ///< Mean time between crashes per node;
                                ///< zero disables node crashes.
    sim::SimTime nodeRecovery = sim::SimTime::sec(30);
    double corruptRestoreRate = 0.0;  ///< P(restore finds image torn).
    double transientRestoreRate = 0.0;///< P(restore attempt transient).
    uint32_t maxRestoreRetries = 2;
    sim::SimTime restoreRetryBackoff = sim::SimTime::ms(1);
    double retryBackoffMultiplier = 2.0;

    bool anyEnabled() const
    {
        return nodeMtbf > sim::SimTime::zero() ||
               corruptRestoreRate > 0.0 || transientRestoreRate > 0.0;
    }
};

/** Autoscaler configuration (one porter variant). */
struct PorterConfig
{
    Mechanism mechanism = Mechanism::CxlFork;

    /**
     * CXLfork only: dynamically manage tiering (the paper's "CXLporter
     * adjusts the policy based on past performance and memory
     * pressure"). When false, the static policy below is always used
     * (the CXLfork-MoW bars of Fig. 10).
     */
    bool dynamicTiering = true;
    os::TieringPolicy staticPolicy = os::TieringPolicy::MigrateOnWrite;

    uint32_t numNodes = 2;
    uint32_t coresPerNode = 8;
    uint64_t memPerNodeBytes = mem::gib(8);
    double memoryScale = 1.0; ///< Fig. 10c: 1.0 / 0.5 / 0.25.

    sim::SimTime keepAlive = sim::SimTime::sec(600);
    sim::SimTime keepAlivePressured = sim::SimTime::sec(10);
    double highMemFrac = 0.9;
    double sloFactor = 1.25; ///< SLO = factor x warm local exec.
    uint32_t ghostsPerFunction = 2;
    uint32_t checkpointAfterInvocations = 16;
    sim::SimTime controllerPeriod = sim::SimTime::sec(5);
    sim::SimTime abitResetPeriod = sim::SimTime::sec(30);
    sim::SimTime containerCreate = sim::SimTime::ms(130);
    sim::SimTime ghostTrigger = sim::SimTime::us(300);

    /**
     * Shared CXL device capacity available for checkpoints. CXLporter
     * reclaims checkpoints under CXL memory pressure (Sec. 5, "Object
     * Store of Checkpoints").
     */
    uint64_t cxlCapacityBytes = mem::gib(16);

    /**
     * Account checkpoint residency content-deduplicated: the measured
     * shared portion of a checkpoint (PerfProfile's
     * checkpointSharedCxlBytes — the runtime layers tenants have in
     * common) is charged against cxlCapacityBytes once per content
     * group while any member checkpoint is resident, not once per
     * checkpoint. Feeds the Fig. 10c memory-constrained comparison.
     */
    bool dedupCapacity = false;

    /** Failure injection; disabled (all-zero rates) by default. */
    PorterFaults faults;
};

/** Results of one porter run. */
struct PorterMetrics
{
    sim::Histogram latency; ///< End-to-end request latency (ns).
    std::map<std::string, sim::Histogram> perFunction;
    uint64_t requests = 0;
    uint64_t warmHits = 0;
    uint64_t restores = 0;
    uint64_t coldStarts = 0;
    uint64_t ghostHits = 0;
    uint64_t evictions = 0;
    uint64_t queuedForMemory = 0;
    uint64_t queuedForCores = 0;
    uint64_t tieringPromotions = 0;
    uint64_t abitResets = 0;
    uint64_t checkpointsTaken = 0;
    uint64_t checkpointsReclaimed = 0;
    uint64_t peakCxlBytes = 0;
    uint64_t peakMemBytes = 0;
    double completedRps = 0.0;

    // Failure/recovery accounting (all zero when injection is off).
    uint64_t nodeCrashes = 0;
    uint64_t nodeRecoveries = 0;
    uint64_t lostInstances = 0;     ///< Containers killed by crashes.
    uint64_t restoreFailovers = 0;  ///< In-flight work re-dispatched.
    uint64_t restoreRetries = 0;    ///< Transient restore re-attempts.
    uint64_t corruptRestores = 0;   ///< Checkpoints found torn.
    uint64_t degradedColdStarts = 0;///< Restores degraded to cold start.

    double p50Ms() const { return latency.p50() / 1e6; }
    double p99Ms() const { return latency.p99() / 1e6; }
};

/** The CXLporter simulation. */
class PorterSim
{
  public:
    PorterSim(PorterConfig cfg, std::vector<faas::FunctionSpec> functions,
              PerfModel &perf);

    /**
     * Run a trace to completion and return the metrics. Events refer
     * to the trace's requests, so it must not change during the run.
     * @throws sim::FatalError if a request names an unknown function.
     */
    PorterMetrics run(const std::vector<Request> &trace);

    /**
     * Observe scaling decisions and the failover ladder through an
     * external tracer/metrics registry (usually the Machine's). Every
     * decision becomes a `porter.<event>` instant on the acting node's
     * track plus a matching counter. Pure observation: attaching
     * changes no simulation result. Either pointer may be null.
     */
    void attachObservability(sim::Tracer *tracer,
                             sim::MetricsRegistry *metrics);

  private:
    struct Instance
    {
        uint32_t fnIdx = 0;
        uint32_t node = 0;
        bool busy = false;
        sim::SimTime idleSince;
        uint64_t memBytes = 0;
        os::TieringPolicy policy = os::TieringPolicy::MigrateOnWrite;
        uint64_t generation = 0; ///< Guards stale eviction timers.
    };

    static constexpr size_t kTieringPolicies =
        size_t(os::TieringPolicy::Hybrid) + 1;

    /** Idle instance on a node, ordered longest-idle first. */
    using IdleKey = std::pair<sim::SimTime, uint64_t>; // (idleSince, id)

    struct NodeState
    {
        uint64_t memCapacity = 0;
        uint64_t memUsed = 0;
        uint64_t idleBytes = 0; ///< memBytes of this node's idle instances.
        uint32_t busyCores = 0;
        bool up = true;
        std::deque<uint64_t> coreQueue; ///< request ids waiting for a core
        std::set<IdleKey> idleByAge;    ///< reclaimOnNode's victim order
    };

    struct PendingRequest
    {
        const Request *req;
        sim::SimTime enqueued;
    };

    struct CoreWaiter
    {
        const Request *req;
        sim::SimTime arrival;
        sim::SimTime duration;
    };

    struct FnState
    {
        uint64_t invocations = 0;
        bool checkpointed = false;
        uint64_t checkpointBytes = 0;   ///< Charged to the device (the
                                        ///< unique part under dedup).
        uint64_t contentGroup = 0;      ///< Functions with equal keys
                                        ///< share checkpoint content.
        uint64_t sharedBytes = 0;       ///< Group-shared portion this
                                        ///< checkpoint references.
        sim::SimTime lastRestore;       ///< For LRU reclamation.
        uint32_t ghostsAvailable = 0;
        os::TieringPolicy restorePolicy =
            os::TieringPolicy::MigrateOnWrite;
        sim::Summary recentLatencyMs; ///< Since the last controller tick.
        /** Idle instance ids per node, lowest id first. */
        std::vector<std::set<uint64_t>> idleOnNode;
        /** Lazily cached profileFor() results, by policy. */
        std::array<const PerfProfile *, kTieringPolicies> profiles{};
        sim::Histogram *latency = nullptr; ///< metrics_.perFunction entry.
    };

    void arrive(const Request &req);
    void dispatch(const Request &req, sim::SimTime arrival);
    bool tryWarmHit(const Request &req, sim::SimTime arrival);
    void spawnAndRun(const Request &req, sim::SimTime arrival);
    void complete(uint64_t instanceId, const Request &req,
                  sim::SimTime arrival);
    void scheduleEviction(uint64_t instanceId);
    void evict(uint64_t instanceId, bool drainQueue = true);
    /**
     * Enter / leave the idle indexes (idleOnNode, idleByAge, idleBytes),
     * which hold exactly the instances with busy == false.
     */
    void addIdle(uint64_t id, const Instance &inst);
    void removeIdle(uint64_t id, const Instance &inst);
    uint64_t freeBytes(const NodeState &n) const
    {
        return n.memUsed >= n.memCapacity ? 0 : n.memCapacity - n.memUsed;
    }
    bool reclaimOnNode(uint32_t node, uint64_t needBytes);
    uint32_t pickNode(uint64_t needBytes) const;
    void controllerTick();
    void drainMemQueue();
    void takeCheckpoint(uint32_t fnIdx, uint32_t node);
    uint64_t checkpointNeedBytes(const FnState &fn,
                                 const PerfProfile &prof) const;
    void chargeCheckpoint(FnState &fn, const PerfProfile &prof);
    void releaseCheckpoint(FnState &fn);
    void scheduleCrashes(const std::vector<Request> &trace);
    void crashNode(uint32_t node);
    void recoverNode(uint32_t node);
    double memPressure() const;
    sim::SimTime keepAliveNow() const;
    void note(const char *event, uint32_t track);

    /** Function index of a request of the trace being run. */
    uint32_t fnOf(const Request &req) const
    {
        return traceFn_[size_t(&req - traceBase_)];
    }
    const PerfProfile &profileFor(uint32_t fnIdx, os::TieringPolicy policy);

    PorterConfig cfg_;
    std::vector<faas::FunctionSpec> functions_;
    PerfModel &perf_;

    sim::EventQueue events_;
    std::vector<NodeState> nodes_;
    std::vector<FnState> fnStates_;
    std::unordered_map<std::string, uint32_t> fnIndex_; ///< name -> index
    /** The running trace and each of its requests' function index. */
    const Request *traceBase_ = nullptr;
    std::vector<uint32_t> traceFn_;
    std::map<uint64_t, Instance> instances_;
    uint64_t nextInstanceId_ = 1;
    std::deque<PendingRequest> memQueue_;
    std::map<uint64_t, CoreWaiter> coreWaiters_;
    sim::SimTime abitAccum_;
    uint64_t cxlUsed_ = 0;
    /** Resident checkpoints per content group (dedupCapacity only). */
    std::map<uint64_t, uint32_t> groupRefs_;
    sim::Rng faultRng_;
    PorterMetrics metrics_;
    sim::Tracer *tracer_ = nullptr;
    sim::MetricsRegistry *obsMetrics_ = nullptr;
};

} // namespace cxlfork::porter
