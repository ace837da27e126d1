#include "autoscaler.hh"

#include <algorithm>
#include <cmath>
#include <functional>
#include <numeric>

#include "sim/log.hh"

namespace cxlfork::porter {

using sim::SimTime;

namespace {

constexpr uint64_t kShellBytes = 512ull << 10; // bare container shell

/** Memory pressure at which the porter goes frugal (Sec. 5 HighMem). */
constexpr double kHighMemFrac = 0.9;

/**
 * Transient restore faults: attempts retried before the request
 * degrades to a cold start, the first backoff, and its growth factor.
 */
constexpr uint32_t kMaxRestoreRetries = 2;
constexpr SimTime kRestoreRetryBackoff = SimTime::ms(1);
constexpr double kRetryBackoffMultiplier = 2.0;

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
    if (cfg_.numNodes == 0)
        sim::fatal("PorterSim needs at least one node");
    if (!std::isfinite(cfg_.memoryScale) || !(cfg_.memoryScale > 0.0)) {
        sim::fatal("PorterSim: memory scale %g is not a positive number",
                   cfg_.memoryScale);
    }
    // The budget is a whole number of bytes below 2^64; a product at or
    // past that would not convert.
    const double capacity = double(cfg_.memPerNodeBytes) * cfg_.memoryScale;
    if (!(capacity >= 1.0) || capacity >= 0x1p64) {
        sim::fatal("PorterSim: node memory %llu B x %g leaves no usable "
                   "budget",
                   (unsigned long long)cfg_.memPerNodeBytes,
                   cfg_.memoryScale);
    }
    if (cfg_.faults.nodeMtbf > SimTime::zero() &&
        !(cfg_.faults.nodeRecovery > SimTime::zero())) {
        sim::fatal("node crashes need a positive recovery time");
    }
    nodes_.resize(cfg_.numNodes);
    for (NodeState &n : nodes_)
        n.memCapacity = uint64_t(capacity);
    fnStates_.resize(functions_.size());
    for (size_t i = 0; i < fnStates_.size(); ++i) {
        FnState &f = fnStates_[i];
        if (cfg_.mechanism != Mechanism::CriuCxl)
            f.ghostsAvailable = cfg_.ghostsPerFunction;
        f.contentGroup = contentKey(functions_[i]);
        f.idleOnNode.resize(nodes_.size());
        // The first of two functions with one name takes its requests.
        const uint32_t idx = FunctionId::intern(functions_[i].name).index();
        if (idx >= fnOfId_.size())
            fnOfId_.resize(idx + 1, kNoFunction);
        if (fnOfId_[idx] == kNoFunction)
            fnOfId_[idx] = uint32_t(i);
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
    return memPressure() >= kHighMemFrac ? cfg_.keepAlivePressured
                                         : cfg_.keepAlive;
}

PorterMetrics
PorterSim::run(const std::vector<Request> &trace)
{
    // The cluster state, the clock and the metrics carry over from a
    // finished run; a second trace would be scheduled in its past.
    if (ran_)
        sim::fatal("PorterSim::run called twice; use a fresh PorterSim "
                   "per trace");
    // Check every request's function before scheduling anything, so
    // a trace naming an unknown function is an input error, not a
    // simulator fault midway through the run.
    for (const Request &req : trace) {
        if (!req.function.valid()) {
            sim::fatal("trace request %llu names no function",
                       (unsigned long long)req.id);
        }
        const uint32_t idx = req.function.index();
        if (idx >= fnOfId_.size() || fnOfId_[idx] == kNoFunction) {
            sim::fatal("trace request %llu names unknown function '%s'",
                       (unsigned long long)req.id,
                       req.function.name().c_str());
        }
    }
    traceBase_ = trace.data();
    ran_ = true;

    metrics_ = PorterMetrics{};
    metrics_.requests = trace.size();
    for (FnState &f : fnStates_)
        f.latency = nullptr;

    // Arrivals take the sorted lane in (arrival, trace position) order:
    // the order the heap would dispatch them in.
    std::vector<uint64_t> arrivals(trace.size());
    std::iota(arrivals.begin(), arrivals.end(), uint64_t(0));
    const auto byArrival = [&trace](uint64_t a, uint64_t b) {
        return trace[a].arrival < trace[b].arrival;
    };
    if (!std::is_sorted(arrivals.begin(), arrivals.end(), byArrival))
        std::stable_sort(arrivals.begin(), arrivals.end(), byArrival);
    events_.reserveSorted(kArrivalLane, arrivals.size());
    for (uint64_t i : arrivals) {
        events_.scheduleSorted(trace[i].arrival, {kArrive, 0, i},
                               kArrivalLane);
    }
    if (!trace.empty()) {
        events_.scheduleSorted(trace.front().arrival + cfg_.controllerPeriod,
                               {kControllerTick, 0, 0}, kControllerLane);
    }
    scheduleCrashes(trace);
    events_.run([this](sim::EventQueue::Event ev) { handle(ev); });

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
PorterSim::handle(sim::EventQueue::Event ev)
{
    switch (EventKind(ev.kind)) {
    case kArrive:
        dispatch(traceBase_[ev.b], events_.now());
        return;
    case kComplete:
        complete(ev.b);
        return;
    case kEvictIfIdle:
        evictIfIdle(ev.b, ev.a);
        return;
    case kGhostRefill:
        ++fnStates_[ev.a].ghostsAvailable;
        return;
    case kControllerTick:
        controllerTick();
        return;
    case kCrash:
        crashNode(ev.a);
        return;
    case kRecover:
        recoverNode(ev.a);
        return;
    }
    sim::panic("PorterSim: unknown event kind %u", ev.kind);
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
            events_.schedule(t, {kCrash, i, 0});
            const SimTime rec = t + cfg_.faults.nodeRecovery;
            events_.schedule(rec, {kRecover, i, 0});
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

    // Mitosis keeps checkpoint page content in the parent's DRAM, so
    // a checkpoint pinned here is lost with the node.
    for (FnState &fn : fnStates_) {
        if (fn.checkpointed && fn.shadowBytes > 0 && fn.shadowNode == node) {
            releaseCheckpoint(fn);
            note("checkpoint_lost", node);
        }
    }

    // Every container on the node dies with it. In-flight work is not
    // cancelled here: its completion event fires at the original time,
    // finds the instance gone, and fails over (detection by timeout).
    for (Instance &inst : instances_) {
        if (inst.live && inst.node == node) {
            ++metrics_.lostInstances;
            inst.live = false;
        }
    }
    ns.memUsed = 0;
    ns.idleBytes = 0;
    ns.busyCores = 0;
    // The dead instances keep their stale links; nothing reads them.
    ns.ageHead = ns.ageTail = ns.ageCount = 0;
    for (FnState &fn : fnStates_)
        fn.idleOnNode[node].clear();

    // Requests parked on the node's core queue restart elsewhere now.
    std::deque<uint64_t> waiters = std::move(ns.coreQueue);
    ns.coreQueue.clear();
    for (uint64_t waiterId : waiters) {
        Instance &waiter = instances_[waiterId];
        if (!waiter.waiting)
            continue;
        waiter.waiting = false;
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
        const uint64_t id = fn.idleOnNode[n].back();
        const bool coreFree = nodes_[n].busyCores < cfg_.coresPerNode;
        if (bestId == 0 || (coreFree && !bestCoreFree) ||
            (coreFree == bestCoreFree && id < bestId)) {
            bestId = id;
            bestCoreFree = coreFree;
        }
    }
    if (bestId == 0)
        return false;

    Instance &inst = instances_[bestId];
    removeIdle(bestId);
    inst.busy = true;
    ++inst.generation;
    ++metrics_.warmHits;
    note("warm_hit", inst.node);
    runOrQueue(bestId, req, arrival,
               profileFor(fnIdx, inst.policy).warmExecLatency);
    return true;
}

void
PorterSim::runOrQueue(uint64_t id, const Request &req, SimTime arrival,
                      SimTime duration)
{
    Instance &inst = instances_[id];
    inst.req = &req;
    inst.arrival = arrival;
    inst.duration = duration;
    NodeState &ns = nodes_[inst.node];
    if (ns.busyCores < cfg_.coresPerNode) {
        startOnCore(id);
    } else {
        ++metrics_.queuedForCores;
        // Reserve the instance; the core-release path starts it.
        inst.waiting = true;
        ns.coreQueue.push_back(id);
    }
}

void
PorterSim::startOnCore(uint64_t instanceId)
{
    Instance &inst = instances_[instanceId];
    inst.waiting = false;
    ++nodes_[inst.node].busyCores;
    // The request lives in the slot, so the event carries only the id.
    events_.scheduleAfter(inst.duration, {kComplete, 0, instanceId});
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
        memPressure() >= kHighMemFrac) {
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
        SimTime backoff = kRestoreRetryBackoff;
        uint32_t attempt = 0;
        while (faultRng_.chance(cfg_.faults.transientRestoreRate)) {
            if (attempt >= kMaxRestoreRetries) {
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
            backoff = backoff * kRetryBackoffMultiplier;
        }
    }

    const sim::CostParams &costs = perf_.costs();
    SimTime spawnCost = retryTime;
    uint64_t memNeed = 0;
    if (viaRestore) {
        spawnCost += viaGhost ? costs.ghostTrigger : costs.containerCreate;
        spawnCost += prof.restoreLatency + prof.coldExecLatency;
        memNeed = prof.localBytesAfterExec + kShellBytes;
    } else {
        spawnCost += costs.containerCreate + prof.coldStartLatency +
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
            events_.scheduleSorted(events_.now() + costs.containerCreate,
                                   {kGhostRefill, fnIdx, 0},
                                   kGhostRefillLane);
        }
    } else {
        ++metrics_.coldStarts;
        note("cold_start", node);
    }

    // The idle-age list links ids in 32 bits.
    const uint64_t id = instances_.size();
    if (id > UINT32_MAX)
        sim::fatal("PorterSim: more than 2^32 instances in one run");
    Instance &inst = instances_.emplace_back();
    inst.fnIdx = fnIdx;
    inst.node = node;
    inst.live = true;
    inst.busy = true;
    inst.memBytes = memNeed;
    inst.policy = policy;
    nodes_[node].memUsed += memNeed;
    metrics_.peakMemBytes =
        std::max(metrics_.peakMemBytes, nodes_[node].memUsed);
    runOrQueue(id, req, arrival, spawnCost);
}

void
PorterSim::complete(uint64_t instanceId)
{
    Instance &inst = instances_[instanceId];
    const Request &req = *inst.req;
    const SimTime arrival = inst.arrival;
    if (!inst.live) {
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
    NodeState &node = nodes_[inst.node];

    const SimTime latency = events_.now() - arrival;
    metrics_.latency.add(latency);
    FnState &fn = fnStates_[inst.fnIdx];
    if (!fn.latency)
        fn.latency = &metrics_.perFunction[functions_[inst.fnIdx].name];
    fn.latency->add(latency);
    fn.recentLatencyMs.add(latency.toMs());
    ++fn.invocations;
    if (!fn.checkpointed &&
        fn.invocations >= cfg_.checkpointAfterInvocations) {
        takeCheckpoint(inst.fnIdx, inst.node);
    }

    inst.busy = false;
    inst.idleSince = events_.now();
    addIdle(instanceId);
    ++inst.generation;
    scheduleEviction(instanceId);

    // Release the core to the next waiter on this node.
    CXLF_ASSERT(node.busyCores > 0);
    --node.busyCores;
    while (!node.coreQueue.empty()) {
        const uint64_t waiterId = node.coreQueue.front();
        node.coreQueue.pop_front();
        if (!instances_[waiterId].waiting)
            continue;
        startOnCore(waiterId);
        break;
    }

    drainMemQueue();
}

uint64_t
PorterSim::sharedCheckpointBytes(uint32_t fnIdx,
                                 const PerfProfile &prof) const
{
    return std::min(perf_.sharedCxlBytes(functions_[fnIdx], cfg_.mechanism),
                    prof.checkpointCxlBytes);
}

uint64_t
PorterSim::checkpointNeedBytes(uint32_t fnIdx,
                               const PerfProfile &prof) const
{
    if (!cfg_.dedupCapacity)
        return prof.checkpointCxlBytes;
    const auto it = groupRefs_.find(fnStates_[fnIdx].contentGroup);
    if (it == groupRefs_.end() || it->second == 0)
        return prof.checkpointCxlBytes;
    return prof.checkpointCxlBytes - sharedCheckpointBytes(fnIdx, prof);
}

void
PorterSim::chargeCheckpoint(uint32_t fnIdx, const PerfProfile &prof)
{
    FnState &fn = fnStates_[fnIdx];
    uint64_t unique = prof.checkpointCxlBytes;
    fn.sharedBytes = 0;
    if (cfg_.dedupCapacity) {
        const uint64_t shared = sharedCheckpointBytes(fnIdx, prof);
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
    nodes_[fn.shadowNode].memUsed -= fn.shadowBytes;
    fn.shadowBytes = 0;
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
    while (cxlUsed_ + checkpointNeedBytes(fnIdx, prof) >
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
    chargeCheckpoint(fnIdx, prof);
    fn.lastRestore = events_.now();
    metrics_.peakCxlBytes = std::max(metrics_.peakCxlBytes, cxlUsed_);
    ++metrics_.checkpointsTaken;
    note("checkpoint", node);
    if (prof.checkpointLocalBytes > 0) {
        fn.shadowBytes = prof.checkpointLocalBytes;
        fn.shadowNode = node;
        nodes_[node].memUsed += prof.checkpointLocalBytes;
        metrics_.peakMemBytes =
            std::max(metrics_.peakMemBytes, nodes_[node].memUsed);
    }
}

void
PorterSim::scheduleEviction(uint64_t instanceId)
{
    // Each window has its own lane: a timer is due at now + window and
    // now never decreases, so every lane stays sorted.
    const SimTime window = keepAliveNow();
    const size_t lane = window == cfg_.keepAlivePressured
                            ? kPressuredKeepAliveLane
                            : kKeepAliveLane;
    events_.scheduleSorted(
        events_.now() + window,
        {kEvictIfIdle, instances_[instanceId].generation, instanceId},
        lane);
}

void
PorterSim::evictIfIdle(uint64_t instanceId, uint32_t generation)
{
    // A stale timer (the instance has run since, or is gone) does
    // nothing; it still keeps the queue non-empty until it fires.
    const Instance &inst = instances_[instanceId];
    if (!inst.live || inst.busy || inst.generation != generation)
        return;
    if (events_.now() - inst.idleSince >= keepAliveNow())
        evict(instanceId);
    else
        scheduleEviction(instanceId);
}

void
PorterSim::evict(uint64_t instanceId, bool drainQueue)
{
    Instance &inst = instances_[instanceId];
    CXLF_ASSERT(inst.live && !inst.busy);
    const uint32_t nodeIdx = inst.node;
    removeIdle(instanceId);
    nodes_[nodeIdx].memUsed -= inst.memBytes;
    inst.live = false;
    ++metrics_.evictions;
    note("evict", nodeIdx);
    // Reclaim paths must not re-enter the spawn logic mid-reclaim, or
    // queued requests would steal the memory being freed.
    if (drainQueue)
        drainMemQueue();
}

// An instance goes idle at now, the latest idleSince, so it usually
// joins the idle-age list at its tail; on a tie it goes before the
// higher ids idle since the same time. Warm hits take the lowest id,
// kept at the end of the small sorted idleOnNode vector.

void
PorterSim::addIdle(uint64_t id)
{
    Instance &inst = instances_[id];
    NodeState &ns = nodes_[inst.node];
    ns.idleBytes += inst.memBytes;
    // Walk back from the tail past the entries ordered after this one.
    uint32_t prev = ns.ageTail;
    while (prev != 0 && !idleBefore(prev, id))
        prev = instances_[prev].agePrev;
    const uint32_t next = prev ? instances_[prev].ageNext : ns.ageHead;
    inst.agePrev = prev;
    inst.ageNext = next;
    (prev ? instances_[prev].ageNext : ns.ageHead) = uint32_t(id);
    (next ? instances_[next].agePrev : ns.ageTail) = uint32_t(id);
    ++ns.ageCount;
    IdleIds &ids = fnStates_[inst.fnIdx].idleOnNode[inst.node];
    ids.insert(std::upper_bound(ids.begin(), ids.end(), id,
                                std::greater<>()),
               id);
}

void
PorterSim::removeIdle(uint64_t id)
{
    Instance &inst = instances_[id];
    NodeState &ns = nodes_[inst.node];
    ns.idleBytes -= inst.memBytes;
    (inst.agePrev ? instances_[inst.agePrev].ageNext : ns.ageHead) =
        inst.ageNext;
    (inst.ageNext ? instances_[inst.ageNext].agePrev : ns.ageTail) =
        inst.agePrev;
    inst.agePrev = inst.ageNext = 0;
    --ns.ageCount;
    IdleIds &ids = fnStates_[inst.fnIdx].idleOnNode[inst.node];
    ids.erase(std::lower_bound(ids.begin(), ids.end(), id,
                               std::greater<>()));
}

bool
PorterSim::reclaimOnNode(uint32_t node, uint64_t needBytes)
{
    NodeState &ns = nodes_[node];
    while (freeBytes(ns) < needBytes) {
        // Evict the longest-idle instance on this node (lowest id on
        // ties).
        if (ns.ageHead == 0)
            return false;
        evict(ns.ageHead, /*drainQueue=*/false);
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
        const bool pressured = memPressure() >= kHighMemFrac;
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
                for (Instance &inst : instances_) {
                    if (!inst.live || inst.fnIdx != i ||
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
        events_.scheduleSorted(events_.now() + cfg_.controllerPeriod,
                               {kControllerTick, 0, 0}, kControllerLane);
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

std::string
PorterSim::auditAccounting() const
{
    auto fail = [](const char *what, uint64_t where, uint64_t got,
                   uint64_t want) {
        return std::string(what) + " on " + std::to_string(where) +
               ": " + std::to_string(got) + ", want " +
               std::to_string(want);
    };

    // Recount every node from the instance table and the shadows.
    struct Tally
    {
        uint64_t mem = 0, idleBytes = 0, idle = 0, running = 0;
    };
    std::vector<Tally> tally(nodes_.size());
    std::vector<uint64_t> idlePerFnNode(fnStates_.size() * nodes_.size());
    for (uint64_t id = 1; id < instances_.size(); ++id) {
        const Instance &inst = instances_[id];
        if (!inst.live)
            continue;
        Tally &t = tally[inst.node];
        t.mem += inst.memBytes;
        if (inst.busy) {
            t.running += !inst.waiting;
            continue;
        }
        t.idleBytes += inst.memBytes;
        ++t.idle;
        ++idlePerFnNode[inst.fnIdx * nodes_.size() + inst.node];
        const IdleIds &ids = fnStates_[inst.fnIdx].idleOnNode[inst.node];
        if (!std::binary_search(ids.begin(), ids.end(), id,
                                std::greater<>())) {
            return fail("idle instance missing from idleOnNode", id, 0, 1);
        }
    }
    for (const FnState &fn : fnStates_) {
        if (fn.checkpointed)
            tally[fn.shadowNode].mem += fn.shadowBytes;
        else if (fn.shadowBytes > 0)
            return fail("shadow of a released checkpoint on node",
                        fn.shadowNode, fn.shadowBytes, 0);
    }
    for (uint32_t n = 0; n < nodes_.size(); ++n) {
        const NodeState &ns = nodes_[n];
        const Tally &t = tally[n];
        if (ns.memUsed != t.mem)
            return fail("memUsed", n, ns.memUsed, t.mem);
        if (ns.idleBytes != t.idleBytes)
            return fail("idleBytes", n, ns.idleBytes, t.idleBytes);
        // The idle-age list, head to tail: strictly ascending
        // (idleSince, id), every entry a live idle instance of this
        // node, back-links consistent. With the count equal to the idle
        // tally, every idle instance is on it exactly once.
        uint64_t listed = 0;
        uint32_t prev = 0;
        for (uint32_t id = ns.ageHead; id != 0;
             prev = id, id = instances_[id].ageNext) {
            if (id >= instances_.size() || ++listed > t.idle)
                return fail("idle-age list length", n, listed, t.idle);
            const Instance &inst = instances_[id];
            if (!inst.live || inst.busy || inst.node != n)
                return fail("idle-age list entry not idle here", n, id, 0);
            if (inst.agePrev != prev)
                return fail("idle-age back-link of", id, inst.agePrev, prev);
            if (prev != 0 && !idleBefore(prev, id))
                return fail("idle-age order after", prev, id, 0);
        }
        if (ns.ageTail != prev)
            return fail("idle-age tail", n, ns.ageTail, prev);
        if (listed != t.idle || ns.ageCount != t.idle)
            return fail("idle-age count", n, ns.ageCount, t.idle);
        if (ns.busyCores != t.running || ns.busyCores > cfg_.coresPerNode)
            return fail("busyCores", n, ns.busyCores, t.running);
        for (uint32_t f = 0; f < fnStates_.size(); ++f) {
            const uint64_t want = idlePerFnNode[f * nodes_.size() + n];
            if (fnStates_[f].idleOnNode[n].size() != want) {
                return fail("idleOnNode size", n,
                            fnStates_[f].idleOnNode[n].size(), want);
            }
        }
    }

    // The device: every resident checkpoint's charged bytes, plus each
    // referenced content group's shared layer once.
    uint64_t cxl = 0;
    std::map<uint64_t, std::pair<uint32_t, uint64_t>> groups;
    for (const FnState &fn : fnStates_) {
        if (!fn.checkpointed)
            continue;
        cxl += fn.checkpointBytes;
        if (fn.sharedBytes > 0) {
            auto &[refs, shared] = groups[fn.contentGroup];
            ++refs;
            shared = fn.sharedBytes;
        }
    }
    for (const auto &[group, refsShared] : groups) {
        cxl += refsShared.second;
        const auto it = groupRefs_.find(group);
        const uint32_t refs = it == groupRefs_.end() ? 0 : it->second;
        if (refs != refsShared.first)
            return fail("groupRefs of group", group, refs, refsShared.first);
    }
    for (const auto &[group, refs] : groupRefs_) {
        if (refs > 0 && !groups.contains(group))
            return fail("groupRefs of group", group, refs, 0);
    }
    if (cxlUsed_ != cxl)
        return fail("cxlUsed", 0, cxlUsed_, cxl);
    return "";
}

} // namespace cxlfork::porter
