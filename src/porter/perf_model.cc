#include "perf_model.hh"

#include "cluster.hh"

namespace cxlfork::porter {

using faas::FunctionInstance;
using faas::FunctionSpec;
using sim::SimTime;

const PerfProfile &
PerfModel::profile(const FunctionSpec &spec, Mechanism mech,
                   os::TieringPolicy policy)
{
    const ProfileKey key{spec.name, mech, policy};
    {
        std::lock_guard<std::mutex> lock(mu_);
        const auto it = cache_.find(key);
        if (it != cache_.end())
            return it->second;
    }
    // Measure outside the lock: concurrent sweep points may duplicate
    // a measurement, but measure() is deterministic so both compute
    // the same profile and emplace keeps the first.
    PerfProfile p = measure(spec, mech, policy);
    std::lock_guard<std::mutex> lock(mu_);
    return cache_.emplace(key, p).first->second;
}

PerfProfile
PerfModel::measure(const FunctionSpec &spec, Mechanism mech,
                   os::TieringPolicy policy)
{
    // A scratch world big enough for the largest Table-1 function.
    ClusterConfig cfg;
    cfg.machine.numNodes = 2;
    cfg.machine.dramPerNodeBytes = mem::gib(4);
    cfg.machine.cxlCapacityBytes = mem::gib(4);
    cfg.machine.costs = costs_;
    Cluster cluster(cfg);
    os::NodeOs &node0 = cluster.node(0);
    os::NodeOs &node1 = cluster.node(1);

    PerfProfile p;

    // Cold start: full deployment plus first execution.
    const SimTime t0 = node0.clock().now();
    auto parent = FunctionInstance::deployCold(node0, spec);
    p.coldStartLatency = node0.clock().now() - t0;
    p.coldStartExec = parent->invoke().latency;
    p.coldLocalBytes = parent->localBytes();

    // Warm it up (JIT steady state) and capture local-speed warm exec.
    parent->invoke();
    p.warmLocalExec = parent->invoke().latency;

    // Establish the steady access pattern before checkpointing
    // (CXLporter clears A/D after the first invocation, Sec. 5).
    parent->task().mm().pageTable().clearAccessedBits(/*alsoDirty=*/true);
    parent->invoke();

    std::unique_ptr<rfork::RemoteForkMechanism> rf =
        rfork::makeMechanism(kindOf(mech), cluster.fabric());

    rfork::CheckpointStats cs;
    auto handle = rf->checkpoint(node0, parent->task(), &cs);
    p.checkpointLatency = cs.latency;
    p.checkpointCxlBytes = handle->cxlBytes();
    p.checkpointLocalBytes = handle->localBytes();

    rfork::RestoreOptions opts;
    opts.policy = policy;
    rfork::RestoreStats rs;
    auto childTask = rf->restore(handle, node1, opts, &rs);
    p.restoreLatency = rs.latency;

    auto child = FunctionInstance::adoptRestored(node1, spec, childTask);
    p.coldExecLatency = child->invoke().latency;
    p.localBytesAfterExec = child->localBytes();
    p.warmExecLatency = child->invoke().latency;
    return p;
}

uint64_t
PerfModel::sharedCxlBytes(const FunctionSpec &spec, Mechanism mech)
{
    const std::pair<std::string, Mechanism> key{spec.name, mech};
    {
        std::lock_guard<std::mutex> lock(mu_);
        const auto it = sharedCache_.find(key);
        if (it != sharedCache_.end())
            return it->second;
    }
    // Measured outside the lock, as in profile().
    const uint64_t bytes = measureSharedCxlBytes(spec, mech);
    std::lock_guard<std::mutex> lock(mu_);
    return sharedCache_.emplace(key, bytes).first->second;
}

uint64_t
PerfModel::measureSharedCxlBytes(const FunctionSpec &spec,
                                 Mechanism mech)
{
    // Mitosis keeps page content in the parent node's DRAM; its device
    // footprint is metadata only, so cross-tenant dedup saves nothing.
    if (mech == Mechanism::MitosisCxl)
        return 0;

    // A dedup-enabled scratch world: checkpoint the same function
    // content twice, as two tenants would, and compare what each
    // checkpoint added to the device. The second delta is the unique
    // (non-shareable) part; the difference is what dedup saves.
    ClusterConfig cfg;
    cfg.machine.numNodes = 2;
    cfg.machine.dramPerNodeBytes = mem::gib(4);
    cfg.machine.cxlCapacityBytes = mem::gib(4);
    cfg.machine.costs = costs_;
    cfg.pageStore.dedup = true;
    Cluster cluster(cfg);
    ++dedupWorlds_;
    os::NodeOs &node0 = cluster.node(0);

    std::unique_ptr<rfork::RemoteForkMechanism> rf =
        rfork::makeMechanism(kindOf(mech), cluster.fabric());

    // Both tenants follow measure()'s exact pre-checkpoint sequence so
    // the checkpointed content matches the profiled checkpoint.
    auto prepare = [&](const FunctionSpec &s) {
        auto inst = FunctionInstance::deployCold(node0, s);
        inst->invoke();
        inst->invoke();
        inst->task().mm().pageTable().clearAccessedBits(/*alsoDirty=*/true);
        inst->invoke();
        return inst;
    };

    mem::FrameAllocator &cxl = cluster.machine().cxl();
    auto a = prepare(spec);
    const uint64_t before1 = cxl.usedBytes();
    auto h1 = rf->checkpoint(node0, a->task());
    const uint64_t delta1 = cxl.usedBytes() - before1;

    FunctionSpec peer = spec;
    peer.user = spec.user + "+peer";
    auto b = prepare(peer);
    const uint64_t before2 = cxl.usedBytes();
    auto h2 = rf->checkpoint(node0, b->task());
    const uint64_t delta2 = cxl.usedBytes() - before2;

    return delta1 > delta2 ? delta1 - delta2 : 0;
}

} // namespace cxlfork::porter
