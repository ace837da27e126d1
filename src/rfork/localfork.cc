#include "localfork.hh"

#include "prefetch.hh"
#include "sim/log.hh"

namespace cxlfork::rfork {

std::shared_ptr<CheckpointHandle>
LocalFork::checkpoint(os::NodeOs &node, os::Task &parent,
                      CheckpointStats *stats)
{
    // fork() has no checkpoint phase: the live parent is the state.
    if (stats)
        *stats = CheckpointStats{};
    auto task = node.findTask(parent.pid());
    if (!task)
        sim::fatal("LocalFork: parent pid %d not on node %u", parent.pid(),
                   node.id());
    auto handle = std::make_shared<LocalForkHandle>(std::move(task), &node);
    // Even a zero-copy "checkpoint" gets a journal record under
    // checkpointPublished: the record is what lets recovery observe
    // that the image died with its node.
    stageHandle(handle, node);
    return handle;
}

std::shared_ptr<os::Task>
LocalFork::restore(const std::shared_ptr<CheckpointHandle> &handle,
                   os::NodeOs &target, const RestoreOptions &opts,
                   RestoreStats *stats)
{
    auto h = std::dynamic_pointer_cast<LocalForkHandle>(handle);
    if (!h)
        sim::fatal("handle is not a LocalFork handle");
    if (h->node() != &target) {
        sim::fatal("LocalFork cannot cross nodes (parent on node %u, "
                   "restore requested on node %u)",
                   h->node()->id(), target.id());
    }
    mem::Machine &machine = target.machine();
    if (handleMachine_ != &machine) {
        handleMachine_ = &machine;
        metrics_ = MechanismMetrics(machine.metrics(), "localfork");
    }
    const sim::SimTime start = target.clock().now();
    sim::SpanScope restoreSpan = machine.tracer().span(
        target.clock(), target.id(), "localfork.restore", "rfork.restore");
    sim::SpanScope forkSpan = machine.tracer().span(
        target.clock(), target.id(), "restore.local_fork", "rfork.phase");
    auto child =
        target.localFork(*h->parent(), h->parent()->name() + "+fork");
    forkSpan.finish();
    RestoreStats rs;
    // Speculative prefetch pre-breaks the CoW sharing the fork just
    // created for write-predicted pages, trading batched local copies
    // now for avoided CoW faults (and shootdowns) later.
    if (opts.prefetch)
        runSpeculativePrefetch(target, *child, *opts.prefetch, &rs);
    restoreSpan.finish();
    metrics_.restores->inc();
    rs.latency = target.clock().now() - start;
    rs.memoryState = rs.latency - rs.prefetchTime;
    metrics_.restoreNs->record(rs.latency);
    if (stats)
        *stats = rs;
    return child;
}

} // namespace cxlfork::rfork
