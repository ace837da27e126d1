#include "autoscaler.hh"

#include <algorithm>
#include <cmath>

#include "sim/log.hh"

namespace cxlfork::porter {

using sim::SimTime;

namespace {

constexpr uint64_t kShellBytes = 512ull << 10; // bare container shell

/**
 * Functions whose specs agree on everything that determines page
 * content produce identical checkpoint pages (pageToken is independent
 * of the tenant), so their checkpoints share frames under dedup.
 */
uint64_t
contentKey(const faas::FunctionSpec &s)
{
    auto mix = [](uint64_t h, uint64_t v) {
        return (h ^ v) * 0x9e3779b97f4a7c15ull;
    };
    uint64_t h = mix(0x5ee0u, s.seed);
    h = mix(h, s.footprintBytes);
    h = mix(h, s.workingSetBytes);
    h = mix(h, uint64_t(s.initFrac * 1e9));
    h = mix(h, uint64_t(s.roFrac * 1e9));
    h = mix(h, uint64_t(s.libFracOfInit * 1e9));
    h = mix(h, s.vmaCount);
    return h;
}

} // namespace

PorterSim::PorterSim(PorterConfig cfg,
                     std::vector<faas::FunctionSpec> functions,
                     PerfModel &perf)
    : cfg_(std::move(cfg)), functions_(std::move(functions)), perf_(perf),
      faultRng_(cfg_.faults.seed)
{
    if (functions_.empty())
        sim::fatal("PorterSim needs at least one function");
    if (cfg_.faults.nodeMtbf > SimTime::zero() &&
        !(cfg_.faults.nodeRecovery > SimTime::zero())) {
        sim::fatal("node crashes need a positive recovery time");
    }
    nodes_.resize(cfg_.numNodes);
    for (NodeState &n : nodes_) {
        n.memCapacity =
            uint64_t(double(cfg_.memPerNodeBytes) * cfg_.memoryScale);
    }
    fnStates_.resize(functions_.size());
    for (size_t i = 0; i < fnStates_.size(); ++i) {
        FnState &f = fnStates_[i];
        f.restorePolicy = cfg_.dynamicTiering
                              ? os::TieringPolicy::MigrateOnWrite
                              : cfg_.staticPolicy;
        if (cfg_.mechanism != Mechanism::CriuCxl)
            f.ghostsAvailable = cfg_.ghostsPerFunction;
        f.contentGroup = contentKey(functions_[i]);
        f.idleOnNode.resize(nodes_.size());
        fnIndex_.emplace(functions_[i].name, uint32_t(i));
    }
}

void
PorterSim::attachObservability(sim::Tracer *tracer,
                               sim::MetricsRegistry *metrics)
{
    tracer_ = tracer;
    obsMetrics_ = metrics;
}

void
PorterSim::note(const char *event, uint32_t track)
{
    if (obsMetrics_)
        obsMetrics_->counter(std::string("porter.") + event).inc();
    if (tracer_ && tracer_->enabled()) {
        tracer_->instantAt(events_.now(), track,
                           std::string("porter.") + event, "porter");
    }
}

const PerfProfile &
PorterSim::profileFor(uint32_t fnIdx, os::TieringPolicy policy)
{
    // Only CXLfork differentiates policies; the baselines have one
    // behaviour each.
    if (cfg_.mechanism != Mechanism::CxlFork)
        policy = os::TieringPolicy::MigrateOnAccess;
    const PerfProfile *&prof = fnStates_[fnIdx].profiles[size_t(policy)];
    if (!prof)
        prof = &perf_.profile(functions_[fnIdx], cfg_.mechanism, policy);
    return *prof;
}

double
PorterSim::memPressure() const
{
    double worst = 0.0;
    for (const NodeState &n : nodes_) {
        if (n.memCapacity)
            worst = std::max(worst,
                             double(n.memUsed) / double(n.memCapacity));
    }
    return worst;
}

SimTime
PorterSim::keepAliveNow() const
{
    return memPressure() >= cfg_.highMemFrac ? cfg_.keepAlivePressured
                                             : cfg_.keepAlive;
}

PorterMetrics
PorterSim::run(const std::vector<Request> &trace)
{
    // Resolve every request's function before scheduling anything, so
    // a trace naming an unknown function is an input error, not a
    // simulator fault midway through the run.
    traceBase_ = trace.data();
    traceFn_.resize(trace.size());
    for (size_t i = 0; i < trace.size(); ++i) {
        const auto it = fnIndex_.find(trace[i].function);
        if (it == fnIndex_.end()) {
            sim::fatal("trace request %llu names unknown function '%s'",
                       (unsigned long long)trace[i].id,
                       trace[i].function.c_str());
        }
        traceFn_[i] = it->second;
    }

    metrics_ = PorterMetrics{};
    metrics_.requests = trace.size();
    for (FnState &f : fnStates_)
        f.latency = nullptr;

    // Arrivals take the sorted lane in (arrival, trace position) order:
    // the order the heap would dispatch them in.
    std::vector<const Request *> arrivals(trace.size());
    for (size_t i = 0; i < trace.size(); ++i)
        arrivals[i] = &trace[i];
    const auto byArrival = [](const Request *a, const Request *b) {
        return a->arrival < b->arrival;
    };
    if (!std::is_sorted(arrivals.begin(), arrivals.end(), byArrival))
        std::stable_sort(arrivals.begin(), arrivals.end(), byArrival);
    for (const Request *req : arrivals)
        events_.scheduleSorted(req->arrival, [this, req] { arrive(*req); });
    if (!trace.empty()) {
        events_.schedule(trace.front().arrival + cfg_.controllerPeriod,
                         [this] { controllerTick(); });
    }
    scheduleCrashes(trace);
    events_.run();

    if (!trace.empty()) {
        const double span =
            (events_.now() - trace.front().arrival).toSec();
        if (span > 0)
            metrics_.completedRps = double(metrics_.requests) / span;
    }
    for (const NodeState &n : nodes_)
        metrics_.peakMemBytes = std::max(metrics_.peakMemBytes, n.memUsed);
    return metrics_;
}

void
PorterSim::scheduleCrashes(const std::vector<Request> &trace)
{
    if (!(cfg_.faults.nodeMtbf > SimTime::zero()) || trace.empty())
        return;
    // Crash/recovery events are bounded by the trace horizon so the
    // event queue always drains; crashes after the last arrival would
    // only delay completions nobody measures.
    const SimTime begin = trace.front().arrival;
    SimTime horizon = begin;
    for (const Request &req : trace)
        horizon = std::max(horizon, req.arrival);
    auto expDraw = [&] {
        // Exponential inter-crash gap; clamp the tail draw so a
        // pathological uniform() == 0 cannot stall the schedule.
        const double u = std::max(faultRng_.uniform(), 1e-12);
        return cfg_.faults.nodeMtbf * -std::log(u);
    };
    for (uint32_t i = 0; i < nodes_.size(); ++i) {
        SimTime t = begin + expDraw();
        while (t < horizon) {
            events_.schedule(t, [this, i] { crashNode(i); });
            const SimTime rec = t + cfg_.faults.nodeRecovery;
            events_.schedule(rec, [this, i] { recoverNode(i); });
            t = rec + expDraw();
        }
    }
}

void
PorterSim::crashNode(uint32_t node)
{
    NodeState &ns = nodes_[node];
    if (!ns.up)
        return;
    ns.up = false;
    ++metrics_.nodeCrashes;
    note("node_crash", node);

    // Every container on the node dies with it. In-flight work is not
    // cancelled here: its completion event fires at the original time,
    // finds the instance gone, and fails over (detection by timeout).
    for (auto it = instances_.begin(); it != instances_.end();) {
        if (it->second.node == node) {
            ++metrics_.lostInstances;
            it = instances_.erase(it);
        } else {
            ++it;
        }
    }
    ns.memUsed = 0;
    ns.idleBytes = 0;
    ns.busyCores = 0;
    ns.idleByAge.clear();
    for (FnState &fn : fnStates_)
        fn.idleOnNode[node].clear();

    // Requests parked on the node's core queue restart elsewhere now.
    std::deque<uint64_t> waiters = std::move(ns.coreQueue);
    ns.coreQueue.clear();
    for (uint64_t waiterId : waiters) {
        auto w = coreWaiters_.find(waiterId);
        if (w == coreWaiters_.end())
            continue;
        const CoreWaiter waiter = w->second;
        coreWaiters_.erase(w);
        ++metrics_.restoreFailovers;
        note("failover", node);
        dispatch(*waiter.req, waiter.arrival);
    }
}

void
PorterSim::recoverNode(uint32_t node)
{
    NodeState &ns = nodes_[node];
    if (ns.up)
        return;
    ns.up = true;
    ++metrics_.nodeRecoveries;
    note("node_recover", node);
    // Fresh capacity: requests stuck waiting for memory can place now.
    drainMemQueue();
}

void
PorterSim::arrive(const Request &req)
{
    dispatch(req, events_.now());
}

void
PorterSim::dispatch(const Request &req, SimTime arrival)
{
    if (tryWarmHit(req, arrival))
        return;
    spawnAndRun(req, arrival);
}

bool
PorterSim::tryWarmHit(const Request &req, SimTime arrival)
{
    const uint32_t fnIdx = fnOf(req);

    // Prefer the lowest-id idle instance on a node with a free core,
    // else the lowest-id idle instance anywhere.
    const FnState &fn = fnStates_[fnIdx];
    uint64_t bestId = 0;
    bool bestCoreFree = false;
    for (uint32_t n = 0; n < nodes_.size(); ++n) {
        if (fn.idleOnNode[n].empty())
            continue;
        const uint64_t id = *fn.idleOnNode[n].begin();
        const bool coreFree = nodes_[n].busyCores < cfg_.coresPerNode;
        if (bestId == 0 || (coreFree && !bestCoreFree) ||
            (coreFree == bestCoreFree && id < bestId)) {
            bestId = id;
            bestCoreFree = coreFree;
        }
    }
    if (bestId == 0)
        return false;

    Instance &inst = instances_.find(bestId)->second;
    removeIdle(bestId, inst);
    inst.busy = true;
    ++inst.generation;
    ++metrics_.warmHits;
    note("warm_hit", inst.node);
    const SimTime dur = profileFor(fnIdx, inst.policy).warmExecLatency;

    NodeState &node = nodes_[inst.node];
    if (node.busyCores < cfg_.coresPerNode) {
        ++node.busyCores;
        events_.scheduleAfter(dur, [this, bestId, r = &req, arrival] {
            complete(bestId, *r, arrival);
        });
    } else {
        ++metrics_.queuedForCores;
        // Reserve the instance; the core-release path starts us.
        node.coreQueue.push_back(bestId);
        coreWaiters_[bestId] = {&req, arrival, dur};
    }
    return true;
}

void
PorterSim::spawnAndRun(const Request &req, SimTime arrival)
{
    const uint32_t fnIdx = fnOf(req);
    FnState &fn = fnStates_[fnIdx];

    // Policy for this restore: dynamic control falls back to the
    // memory-frugal MoW under memory pressure (Sec. 5 HighMem).
    os::TieringPolicy policy = fn.restorePolicy;
    if (cfg_.mechanism == Mechanism::CxlFork && cfg_.dynamicTiering &&
        memPressure() >= cfg_.highMemFrac) {
        policy = os::TieringPolicy::MigrateOnWrite;
    }
    const PerfProfile &prof = profileFor(fnIdx, policy);

    // Degradation ladder (failure model): a restore that finds its
    // checkpoint torn reclaims it and degrades to a cold start; a
    // restore hitting transient CXL faults retries with backoff and
    // only degrades once the retry budget is spent.
    bool viaRestore = fn.checkpointed;
    SimTime retryTime;
    if (viaRestore && cfg_.faults.corruptRestoreRate > 0.0 &&
        faultRng_.chance(cfg_.faults.corruptRestoreRate)) {
        releaseCheckpoint(fn);
        ++metrics_.corruptRestores;
        ++metrics_.degradedColdStarts;
        note("corrupt_restore", 0);
        note("degraded_cold_start", 0);
        viaRestore = false;
    }
    bool viaGhost = viaRestore && fn.ghostsAvailable > 0;
    if (viaRestore && cfg_.faults.transientRestoreRate > 0.0) {
        SimTime backoff = cfg_.faults.restoreRetryBackoff;
        uint32_t attempt = 0;
        while (faultRng_.chance(cfg_.faults.transientRestoreRate)) {
            if (attempt >= cfg_.faults.maxRestoreRetries) {
                // Budget spent; the checkpoint itself is intact, so
                // only this request falls back to a cold start.
                ++metrics_.degradedColdStarts;
                note("degraded_cold_start", 0);
                viaRestore = false;
                viaGhost = false;
                break;
            }
            ++attempt;
            ++metrics_.restoreRetries;
            note("restore_retry", 0);
            retryTime += backoff;
            backoff = backoff * cfg_.faults.retryBackoffMultiplier;
        }
    }

    SimTime spawnCost = retryTime;
    uint64_t memNeed = 0;
    if (viaRestore) {
        spawnCost += viaGhost ? cfg_.ghostTrigger : cfg_.containerCreate;
        spawnCost += prof.restoreLatency + prof.coldExecLatency;
        memNeed = prof.localBytesAfterExec + kShellBytes;
    } else {
        spawnCost += cfg_.containerCreate + prof.coldStartLatency +
                     prof.coldStartExec;
        memNeed = prof.coldLocalBytes + kShellBytes;
    }

    const uint32_t node = pickNode(memNeed);
    if (node == ~0u ||
        (freeBytes(nodes_[node]) < memNeed &&
         !reclaimOnNode(node, memNeed))) {
        // No node can hold the instance right now; wait for memory.
        ++metrics_.queuedForMemory;
        memQueue_.push_back({&req, arrival});
        return;
    }
    if (viaRestore) {
        ++metrics_.restores;
        note("restore", node);
        fn.lastRestore = events_.now();
        if (viaGhost) {
            --fn.ghostsAvailable;
            ++metrics_.ghostHits;
            note("ghost_hit", node);
            // Background re-provisioning refills the pool off the
            // critical path.
            events_.scheduleAfter(cfg_.containerCreate, [this, fnIdx] {
                ++fnStates_[fnIdx].ghostsAvailable;
            });
        }
    } else {
        ++metrics_.coldStarts;
        note("cold_start", node);
    }

    const uint64_t id = nextInstanceId_++;
    Instance inst;
    inst.fnIdx = fnIdx;
    inst.node = node;
    inst.busy = true;
    inst.memBytes = memNeed;
    inst.policy = policy;
    instances_[id] = inst;
    nodes_[node].memUsed += memNeed;
    metrics_.peakMemBytes =
        std::max(metrics_.peakMemBytes, nodes_[node].memUsed);

    NodeState &ns = nodes_[node];
    if (ns.busyCores < cfg_.coresPerNode) {
        ++ns.busyCores;
        events_.scheduleAfter(spawnCost, [this, id, r = &req, arrival] {
            complete(id, *r, arrival);
        });
    } else {
        ++metrics_.queuedForCores;
        ns.coreQueue.push_back(id);
        coreWaiters_[id] = {&req, arrival, spawnCost};
    }
}

void
PorterSim::complete(uint64_t instanceId, const Request &req,
                    SimTime arrival)
{
    auto it = instances_.find(instanceId);
    if (it == instances_.end()) {
        // The instance's node crashed while this request was in
        // flight. The crash already zeroed that node's accounting;
        // fail the request over — re-dispatch against the surviving
        // nodes, keeping the original arrival so the wasted attempt
        // shows up in its latency.
        ++metrics_.restoreFailovers;
        note("failover", 0);
        dispatch(req, arrival);
        return;
    }
    Instance &inst = it->second;
    NodeState &node = nodes_[inst.node];

    const SimTime latency = events_.now() - arrival;
    metrics_.latency.add(latency);
    FnState &fn = fnStates_[inst.fnIdx];
    if (!fn.latency)
        fn.latency = &metrics_.perFunction[req.function];
    fn.latency->add(latency);
    fn.recentLatencyMs.add(latency.toMs());
    ++fn.invocations;
    if (!fn.checkpointed &&
        fn.invocations >= cfg_.checkpointAfterInvocations) {
        takeCheckpoint(inst.fnIdx, inst.node);
    }

    inst.busy = false;
    inst.idleSince = events_.now();
    addIdle(instanceId, inst);
    ++inst.generation;
    scheduleEviction(instanceId);

    // Release the core to the next waiter on this node.
    CXLF_ASSERT(node.busyCores > 0);
    --node.busyCores;
    while (!node.coreQueue.empty()) {
        const uint64_t waiterId = node.coreQueue.front();
        node.coreQueue.pop_front();
        auto w = coreWaiters_.find(waiterId);
        if (w == coreWaiters_.end())
            continue; // instance evicted meanwhile
        const CoreWaiter waiter = w->second;
        coreWaiters_.erase(w);
        ++node.busyCores;
        events_.scheduleAfter(waiter.duration,
                              [this, waiterId, r = waiter.req,
                               arrival = waiter.arrival] {
                                  complete(waiterId, *r, arrival);
                              });
        break;
    }

    drainMemQueue();
}

uint64_t
PorterSim::checkpointNeedBytes(const FnState &fn,
                               const PerfProfile &prof) const
{
    if (!cfg_.dedupCapacity)
        return prof.checkpointCxlBytes;
    const uint64_t shared =
        std::min(prof.checkpointSharedCxlBytes, prof.checkpointCxlBytes);
    const auto it = groupRefs_.find(fn.contentGroup);
    const bool resident = it != groupRefs_.end() && it->second > 0;
    return prof.checkpointCxlBytes - (resident ? shared : 0);
}

void
PorterSim::chargeCheckpoint(FnState &fn, const PerfProfile &prof)
{
    uint64_t unique = prof.checkpointCxlBytes;
    fn.sharedBytes = 0;
    if (cfg_.dedupCapacity) {
        const uint64_t shared = std::min(prof.checkpointSharedCxlBytes,
                                         prof.checkpointCxlBytes);
        if (shared > 0) {
            unique -= shared;
            fn.sharedBytes = shared;
            // The shared layer occupies the device once per content
            // group, however many tenant checkpoints reference it.
            if (groupRefs_[fn.contentGroup]++ == 0)
                cxlUsed_ += shared;
        }
    }
    fn.checkpointed = true;
    fn.checkpointBytes = unique;
    cxlUsed_ += unique;
}

void
PorterSim::releaseCheckpoint(FnState &fn)
{
    cxlUsed_ -= fn.checkpointBytes;
    fn.checkpointed = false;
    fn.checkpointBytes = 0;
    if (fn.sharedBytes > 0) {
        uint32_t &refs = groupRefs_[fn.contentGroup];
        if (--refs == 0)
            cxlUsed_ -= fn.sharedBytes;
        fn.sharedBytes = 0;
    }
}

void
PorterSim::takeCheckpoint(uint32_t fnIdx, uint32_t node)
{
    FnState &fn = fnStates_[fnIdx];
    const PerfProfile &prof =
        profileFor(fnIdx, os::TieringPolicy::MigrateOnWrite);

    // Reclaim LRU checkpoints while the device cannot hold the new one
    // (Sec. 5: "CXLporter is also responsible for reclaiming
    // checkpoints under CXL memory pressure"). The need is re-derived
    // per iteration: evicting the last other member of this content
    // group makes the shared layer chargeable again.
    while (cxlUsed_ + checkpointNeedBytes(fn, prof) >
           cfg_.cxlCapacityBytes) {
        uint32_t victim = ~0u;
        sim::SimTime oldest = events_.now() + sim::SimTime::sec(1);
        for (uint32_t i = 0; i < fnStates_.size(); ++i) {
            FnState &other = fnStates_[i];
            if (i == fnIdx || !other.checkpointed)
                continue;
            if (other.lastRestore < oldest) {
                oldest = other.lastRestore;
                victim = i;
            }
        }
        if (victim == ~0u)
            return; // device full of busier checkpoints: skip for now
        releaseCheckpoint(fnStates_[victim]);
        ++metrics_.checkpointsReclaimed;
        note("checkpoint_reclaim", node);
    }

    // Checkpoint taken now, off the request critical path. Mitosis
    // pins a shadow copy in the parent node's local memory as well.
    chargeCheckpoint(fn, prof);
    fn.lastRestore = events_.now();
    metrics_.peakCxlBytes = std::max(metrics_.peakCxlBytes, cxlUsed_);
    ++metrics_.checkpointsTaken;
    note("checkpoint", node);
    if (prof.checkpointLocalBytes > 0) {
        nodes_[node].memUsed += prof.checkpointLocalBytes;
        metrics_.peakMemBytes =
            std::max(metrics_.peakMemBytes, nodes_[node].memUsed);
    }
}

void
PorterSim::scheduleEviction(uint64_t instanceId)
{
    auto it = instances_.find(instanceId);
    if (it == instances_.end())
        return;
    const uint64_t gen = it->second.generation;
    const SimTime window = keepAliveNow();
    events_.scheduleAfter(window, [this, instanceId, gen] {
        auto jt = instances_.find(instanceId);
        if (jt == instances_.end() || jt->second.busy ||
            jt->second.generation != gen) {
            return;
        }
        const SimTime idle = events_.now() - jt->second.idleSince;
        if (idle >= keepAliveNow()) {
            evict(instanceId);
        } else {
            scheduleEviction(instanceId);
        }
    });
}

void
PorterSim::evict(uint64_t instanceId, bool drainQueue)
{
    auto it = instances_.find(instanceId);
    if (it == instances_.end())
        return;
    Instance &inst = it->second;
    CXLF_ASSERT(!inst.busy);
    const uint32_t nodeIdx = inst.node;
    removeIdle(instanceId, inst);
    nodes_[nodeIdx].memUsed -= inst.memBytes;
    instances_.erase(it);
    ++metrics_.evictions;
    note("evict", nodeIdx);
    // Reclaim paths must not re-enter the spawn logic mid-reclaim, or
    // queued requests would steal the memory being freed.
    if (drainQueue)
        drainMemQueue();
}

void
PorterSim::addIdle(uint64_t id, const Instance &inst)
{
    NodeState &ns = nodes_[inst.node];
    ns.idleBytes += inst.memBytes;
    ns.idleByAge.emplace(inst.idleSince, id);
    fnStates_[inst.fnIdx].idleOnNode[inst.node].insert(id);
}

void
PorterSim::removeIdle(uint64_t id, const Instance &inst)
{
    NodeState &ns = nodes_[inst.node];
    ns.idleBytes -= inst.memBytes;
    ns.idleByAge.erase({inst.idleSince, id});
    fnStates_[inst.fnIdx].idleOnNode[inst.node].erase(id);
}

bool
PorterSim::reclaimOnNode(uint32_t node, uint64_t needBytes)
{
    NodeState &ns = nodes_[node];
    while (freeBytes(ns) < needBytes) {
        // Evict the longest-idle instance on this node (lowest id on
        // ties).
        if (ns.idleByAge.empty())
            return false;
        evict(ns.idleByAge.begin()->second, /*drainQueue=*/false);
    }
    return true;
}

uint32_t
PorterSim::pickNode(uint64_t needBytes) const
{
    uint32_t best = ~0u;
    uint64_t bestFree = 0;
    for (uint32_t i = 0; i < nodes_.size(); ++i) {
        const NodeState &n = nodes_[i];
        if (!n.up)
            continue;
        // Free now plus what idle instances could release.
        const uint64_t freeNow = freeBytes(n);
        const uint64_t reclaimable = freeNow + n.idleBytes;
        if (reclaimable >= needBytes && (best == ~0u || freeNow > bestFree)) {
            best = i;
            bestFree = freeNow;
        }
    }
    return best;
}

void
PorterSim::controllerTick()
{
    // Dynamic tiering control (CXLfork variants only).
    if (cfg_.mechanism == Mechanism::CxlFork && cfg_.dynamicTiering) {
        const bool pressured = memPressure() >= cfg_.highMemFrac;
        for (uint32_t i = 0; i < functions_.size(); ++i) {
            FnState &fn = fnStates_[i];
            if (fn.recentLatencyMs.count() == 0)
                continue;
            const double sloMs =
                cfg_.sloFactor *
                profileFor(i, os::TieringPolicy::MigrateOnWrite)
                    .warmLocalExec.toMs();
            if (!pressured && fn.recentLatencyMs.mean() > sloMs &&
                fn.restorePolicy != os::TieringPolicy::Hybrid) {
                fn.restorePolicy = os::TieringPolicy::Hybrid;
                ++metrics_.tieringPromotions;
                note("tiering_promotion", 0);
                // Live instances switch too: their A-bit-hot pages get
                // fetched into local memory on access, so account the
                // extra local footprint now.
                const PerfProfile &hyb =
                    profileFor(i, os::TieringPolicy::Hybrid);
                const uint64_t newMem =
                    hyb.localBytesAfterExec + kShellBytes;
                for (auto &[id, inst] : instances_) {
                    if (inst.fnIdx != i ||
                        inst.policy == os::TieringPolicy::Hybrid) {
                        continue;
                    }
                    if (newMem > inst.memBytes) {
                        NodeState &ns = nodes_[inst.node];
                        ns.memUsed += newMem - inst.memBytes;
                        if (!inst.busy)
                            ns.idleBytes += newMem - inst.memBytes;
                        inst.memBytes = newMem;
                        metrics_.peakMemBytes =
                            std::max(metrics_.peakMemBytes, ns.memUsed);
                    }
                    inst.policy = os::TieringPolicy::Hybrid;
                }
            }
            fn.recentLatencyMs = sim::Summary{};
        }
    }

    // Periodic A-bit reset to re-estimate hot sets (Sec. 4.3).
    abitAccum_ += cfg_.controllerPeriod;
    if (abitAccum_ >= cfg_.abitResetPeriod) {
        abitAccum_ = SimTime::zero();
        ++metrics_.abitResets;
    }

    // Keep ticking while there is work left.
    if (!events_.empty()) {
        events_.scheduleAfter(cfg_.controllerPeriod,
                              [this] { controllerTick(); });
    }
}

void
PorterSim::drainMemQueue()
{
    // Retry queued requests; stop at the first one that still cannot
    // be placed to preserve FIFO fairness.
    while (!memQueue_.empty()) {
        const PendingRequest pending = memQueue_.front();
        if (tryWarmHit(*pending.req, pending.enqueued)) {
            memQueue_.pop_front();
            continue;
        }
        // Probe placement without enqueueing again on failure.
        const uint32_t fnIdx = fnOf(*pending.req);
        const FnState &fn = fnStates_[fnIdx];
        const PerfProfile &prof = profileFor(fnIdx, fn.restorePolicy);
        const uint64_t memNeed =
            (fn.checkpointed ? prof.localBytesAfterExec
                             : prof.coldLocalBytes) +
            kShellBytes;
        if (pickNode(memNeed) == ~0u)
            break;
        memQueue_.pop_front();
        spawnAndRun(*pending.req, pending.enqueued);
    }
}

} // namespace cxlfork::porter
