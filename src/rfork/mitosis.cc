#include "mitosis.hh"

#include "prefetch.hh"
#include "sim/error.hh"
#include "sim/log.hh"
#include "state_capture.hh"

namespace cxlfork::rfork {

using mem::kPageSize;
using os::Pte;
using os::TablePage;
using sim::SimTime;

namespace {

/**
 * Simulated size of one serialized page descriptor: the page-map
 * entry plus the page-table and ownership metadata Mitosis ships so
 * the child's lazy faults can locate parent pages.
 */
constexpr uint64_t kPageDescBytes = 128;

} // namespace

MitosisHandle::~MitosisHandle()
{
    for (mem::PhysAddr f : shadowFrames_)
        machine_.putFrame(f);
    for (mem::PhysAddr f : leafBackings_)
        machine_.putFrame(f);
}

void
MitosisHandle::addLeaf(uint64_t baseVpn, std::shared_ptr<TablePage> leaf)
{
    leafBackings_.push_back(leaf->backing());
    auto [it, ok] = leaves_.emplace(baseVpn, std::move(leaf));
    CXLF_ASSERT(ok);
}

Pte
MitosisHandle::checkpointPte(mem::VirtAddr va) const
{
    if (parentFailed_) {
        throw sim::NodeFailedError(sim::format(
            "Mitosis remote fault against failed parent node %u",
            parentNode_));
    }
    const uint64_t vpn = va.pageNumber();
    const uint64_t base = vpn & ~uint64_t(TablePage::kEntries - 1);
    if (!cursorLeaf_ || cursorBase_ != base) {
        auto it = leaves_.find(base);
        if (it == leaves_.end())
            return Pte();
        cursorBase_ = base;
        cursorLeaf_ = it->second.get();
    }
    const Pte p = cursorLeaf_->pte(uint32_t(vpn - base));
    return p.present() ? p : Pte();
}

sim::SimTime
MitosisHandle::migrateCost(const sim::CostParams &c) const
{
    // RDMA replaced by CXL copies: the parent side stores the page to
    // the shared CXL memory, the child side fetches it (Sec. 6.2), and
    // the child must first resolve the page through the deserialized
    // remote descriptors before either copy can be issued.
    const sim::SimTime descriptorLookup = sim::SimTime::us(2.0);
    return c.faultTrap + c.cxlCowOverhead + descriptorLookup +
           c.cxlWrite(kPageSize) + c.cxlRead(kPageSize) +
           2.0 * c.cxlLatency;
}

sim::SimTime
MitosisHandle::prefetchPageCost(const sim::CostParams &c) const
{
    // The batch amortizes trap and descriptor lookups, but every page
    // still moves parent -> device -> child: both bandwidth charges
    // stay (latency is amortized by the batch's miss stream).
    return c.cxlWrite(kPageSize) + c.cxlRead(kPageSize);
}

std::shared_ptr<CheckpointHandle>
MitosisCxl::checkpoint(os::NodeOs &node, os::Task &parent,
                       CheckpointStats *stats)
{
    mem::Machine &machine = fabric_.machine();
    const sim::CostParams &costs = machine.costs();
    sim::SimClock &clock = node.clock();
    const SimTime start = clock.now();
    CheckpointStats cs;

    sim::SpanScope ckptSpan = machine.tracer().span(
        clock, node.id(), "mitosis.checkpoint", "rfork.checkpoint");
    ckptSpan.attr("task", parent.name());

    auto handle = std::make_shared<MitosisHandle>(machine, node.id(),
                                                  parent.name());
    // Staged before any shadow frame is allocated: a crash mid-copy
    // leaves a discoverable orphan whose reclamation frees the partial
    // shadow set (the journal record, not the C++ unwind, owns it).
    stageHandle(handle, node);

    // Shadow-copy the parent's memory into the parent node's DRAM.
    parent.mm().pageTable().forEachLeaf([&](uint64_t baseVpn,
                                            TablePage &leaf) {
        const mem::PhysAddr backing =
            node.localDram().alloc(mem::FrameUse::PageTable);
        auto shadowLeaf = std::make_shared<TablePage>(0, backing, false);
        uint32_t present = 0;
        // Shadow frames are registered with the handle as they are
        // allocated, so its destructor frees them on unwind; the leaf
        // backing is only registered by addLeaf and must be released
        // here if a shadow-copy allocation throws first.
        try {
            for (uint32_t i = 0; i < TablePage::kEntries; ++i) {
                const Pte &src = leaf.pte(i);
                if (!src.present())
                    continue;
                ++present;
                const uint64_t content = machine.frame(src.frame()).content;
                const mem::PhysAddr shadow =
                    node.localDram().alloc(mem::FrameUse::Data, content);
                handle->addShadowFrame(shadow);
                clock.advance(costs.dramCopy(kPageSize));
                cs.bytesLocal += kPageSize;
                ++cs.pages;
                Pte dst = Pte::make(shadow, false);
                if (src.accessed())
                    dst.set(Pte::kAccessed);
                if (src.dirty())
                    dst.set(Pte::kDirty);
                shadowLeaf->pte(i) = dst;
            }
        } catch (...) {
            node.localDram().decRef(backing);
            throw;
        }
        if (present == 0) {
            node.localDram().decRef(backing);
            return;
        }
        clock.advance(costs.dramCopy(kPageSize));
        ++cs.leaves;
        handle->addLeaf(baseVpn, std::move(shadowLeaf));
    });

    // Serialize the OS-maintained state: global state, registers,
    // VMAs, and one descriptor per checkpointed page.
    proto::GlobalStateMsg global = captureGlobalState(parent);
    std::vector<os::Vma> vmaRecords;
    parent.mm().vmas().forEach(
        [&](const os::Vma &v) { vmaRecords.push_back(v); });

    proto::Encoder enc;
    global.encode(enc);
    for (const os::Vma &v : vmaRecords)
        toMsg(v).encode(enc);

    uint64_t metaBytes = global.simulatedBytes() +
                         proto::CpuMsg::simulatedBytes() +
                         cs.pages * kPageDescBytes;
    for (const os::Vma &v : vmaRecords)
        metaBytes += toMsg(v).simulatedBytes();
    const uint64_t records = global.recordCount() + vmaRecords.size() + 1;
    clock.advance(costs.serializeCost(metaBytes) +
                  costs.serializeRecord * double(records));
    cs.vmas = vmaRecords.size();

    handle->setOsState(enc.take(), metaBytes, records, std::move(global),
                       parent.cpu(), std::move(vmaRecords));
    handle->markComplete();

    cs.latency = clock.now() - start;
    ckptSpan.attr("pages", cs.pages).attr("bytes_local", cs.bytesLocal);
    metrics_.checkpoints->inc();
    metrics_.checkpointNs->record(cs.latency);
    if (stats)
        *stats = cs;
    return handle;
}

std::shared_ptr<os::Task>
MitosisCxl::restore(const std::shared_ptr<CheckpointHandle> &handle,
                    os::NodeOs &target, const RestoreOptions &opts,
                    RestoreStats *stats)
{
    auto h = std::dynamic_pointer_cast<MitosisHandle>(handle);
    if (!h)
        sim::fatal("handle is not a Mitosis checkpoint");
    if (h->parentFailed()) {
        throw sim::NodeFailedError(sim::format(
            "Mitosis restore of %s: parent node %u has failed",
            h->name().c_str(), h->parentNode()));
    }
    mem::Machine &machine = fabric_.machine();
    const sim::CostParams &costs = machine.costs();
    sim::SimClock &clock = target.clock();
    const SimTime start = clock.now();
    RestoreStats rs;

    sim::SpanScope restoreSpan = machine.tracer().span(
        clock, target.id(), "mitosis.restore", "rfork.restore");
    restoreSpan.attr("image", h->name());

    // Transfer the serialized OS state across the fabric (parent
    // stores it into CXL memory, target fetches it) and deserialize.
    sim::SpanScope metaSpan = machine.tracer().span(
        clock, target.id(), "restore.transfer_meta", "rfork.phase");
    clock.advance(costs.cxlWrite(h->metaSimBytes()) +
                  costs.cxlRead(h->metaSimBytes()) + 2.0 * costs.cxlLatency +
                  costs.deserializeCost(h->metaSimBytes()) +
                  costs.serializeRecord * double(h->metaRecords()));
    metaSpan.attr("bytes", h->metaSimBytes()).finish();

    sim::SpanScope createSpan = machine.tracer().span(
        clock, target.id(), "restore.task_create", "rfork.phase");
    auto task = target.createTask(h->name() + "+mitosis", opts.container);
    createSpan.finish();

    try {

    // Rebuild the full VMA tree and the page-map bookkeeping that lazy
    // remote faults consult.
    const SimTime memStart = clock.now();
    sim::SpanScope memSpan = machine.tracer().span(
        clock, target.id(), "restore.memory_state", "rfork.phase");
    for (const os::Vma &v : h->vmas()) {
        task->mm().vmas().insert(v);
        clock.advance(costs.vmaSetup);
        if (v.kind == os::VmaKind::FilePrivate)
            clock.advance(costs.fileOpen);
    }
    clock.advance(costs.ptPageAlloc * double(h->leafCount()));
    rs.memoryState = clock.now() - memStart;

    // Lazy copies on access: Mitosis always migrates on (first) access.
    task->mm().setBacking(h, os::TieringPolicy::MigrateOnAccess);
    (void)opts; // Mitosis has no tiering choices
    memSpan.finish();

    const SimTime globalStart = clock.now();
    sim::SpanScope globalSpan = machine.tracer().span(
        clock, target.id(), "restore.global_state", "rfork.phase");
    redoGlobalState(target, *task, h->global());
    rs.globalState = clock.now() - globalStart;
    task->cpu() = h->cpu();
    globalSpan.finish();

    // Speculative prefetch turns predicted migrate-on-access faults
    // into one batched pull; each page still pays Mitosis's two fabric
    // crossings (see MitosisCheckpoint::prefetchPageCost).
    if (opts.prefetch)
        runSpeculativePrefetch(target, *task, *opts.prefetch, &rs);

    } catch (...) {
        target.exitTask(task);
        metrics_.restoreFailed->inc();
        throw;
    }

    rs.latency = clock.now() - start;
    restoreSpan.finish();
    metrics_.restores->inc();
    metrics_.restoreNs->record(rs.latency);
    if (stats)
        *stats = rs;
    return task;
}

} // namespace cxlfork::rfork
