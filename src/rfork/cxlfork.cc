#include "cxlfork.hh"

#include "prefetch.hh"
#include "sim/error.hh"
#include "sim/log.hh"
#include "state_capture.hh"

namespace cxlfork::rfork {

using mem::kPageSize;
using os::Pte;
using os::TablePage;
using sim::SimTime;

std::shared_ptr<CheckpointImage>
CxlFork::image(const std::shared_ptr<CheckpointHandle> &handle)
{
    auto img = std::dynamic_pointer_cast<CheckpointImage>(handle);
    if (!img)
        sim::fatal("handle is not a CXLfork checkpoint image");
    return img;
}

std::shared_ptr<CheckpointHandle>
CxlFork::checkpoint(os::NodeOs &node, os::Task &parent,
                    CheckpointStats *stats)
{
    mem::Machine &machine = fabric_.machine();
    const sim::CostParams &costs = machine.costs();
    sim::SimClock &clock = node.clock();
    const SimTime start = clock.now();

    sim::SpanScope ckptSpan = machine.tracer().span(
        clock, node.id(), "cxlfork.checkpoint", "rfork.checkpoint");
    ckptSpan.attr("task", parent.name());

    cxl::PageStore &pages = fabric_.pageStore();
    auto img = std::make_shared<CheckpointImage>(machine, parent.name(),
                                                &pages);
    // Under checkpointPublished the empty image is STAGED now, before
    // any frame is allocated: a crash at any later site leaves every
    // frame reachable through the store's journal, never leaked.
    stageHandle(img, node);
    CheckpointStats cs;

    // (1)-(5) Copy private state as-is to CXL with non-temporal stores:
    // data pages plus the page-table leaves that index them. The
    // checkpointed PTEs are rewritten to map the CXL replicas,
    // write-protected, and keep the parent's A/D bits.
    parent.mm().pageTable().forEachLeaf([&](uint64_t baseVpn,
                                            TablePage &leaf) {
        const mem::PhysAddr leafBacking =
            machine.cxl().alloc(mem::FrameUse::PageTable);
        img->addMetaFrame(leafBacking);
        manifestPage(node, leafBacking);
        auto ckptLeaf =
            std::make_shared<TablePage>(0, leafBacking, false);
        uint32_t present = 0;
        for (uint32_t i = 0; i < TablePage::kEntries; ++i) {
            const Pte &src = leaf.pte(i);
            if (!src.present())
                continue;
            ++present;
            mem::PhysAddr replica;
            if (cfg_.dedupUnmodified && src.cxlCheckpoint() &&
                !pages.dedupEnabled()) {
                // Re-checkpoint of a restored clone: the page is still
                // the (immutable) original on the device — share it.
                // With the content index on, the intern path below
                // reaches the same frame by content and counts the hit.
                replica = src.frame();
                pages.ref(replica);
                img->addDataFrame(replica);
            } else {
                const uint64_t content =
                    machine.frame(src.frame()).content;
                const cxl::InternResult r =
                    pages.intern(content, mem::FrameUse::Data, clock,
                                 node.id());
                replica = r.addr;
                img->addDataFrame(replica);
                if (!r.shared) {
                    // Only a fresh frame pays the non-temporal copy; a
                    // dedup hit already holds the bytes on the device.
                    // The copy covers what the intern actually stored:
                    // a full page normally, the modeled compressed size
                    // with the codec pipeline armed.
                    machine.cxlTransaction(clock, "cxlfork checkpoint copy",
                                           node.id(), replica);
                    clock.advance(costs.cxlWrite(r.storedBytes));
                    cs.bytesToCxl += r.storedBytes;
                    // Publish through the coherence directory: the NT
                    // store stream plus its trailing fence. Under
                    // HDM-D an elided flush leaves remote readers on
                    // the stale zero token — observably wrong data.
                    machine.publishFrame(replica, node.id(), clock);
                }
            }
            manifestPage(node, replica);
            ++cs.pages;

            Pte dst = Pte::make(replica, false);
            dst.set(Pte::kSoftCxl);
            // Preserve the access pattern and the file-backing note.
            if (src.accessed())
                dst.set(Pte::kAccessed);
            if (src.dirty())
                dst.set(Pte::kDirty);
            if (src.fileBacked())
                dst.set(Pte::kSoftFile);
            if (src.userHot())
                dst.set(Pte::kSoftHot);
            ckptLeaf->pte(i) = dst;
        }
        if (present == 0)
            return; // nothing mapped under this leaf
        // The leaf page itself is copied to CXL...
        clock.advance(costs.cxlWrite(kPageSize));
        cs.bytesToCxl += kPageSize;
        ++cs.leaves;
        // ...then rebased: internal pointers become device offsets
        // (Sec. 4.1 step 7), and the leaf is sealed against in-place
        // OS modification.
        rebaser_.rebase(*ckptLeaf);
        clock.advance(costs.pteWrite * present);
        machine.publishFrame(leafBacking, node.id(), clock);
        ckptLeaf->seal();
        img->addLeaf(baseVpn, std::move(ckptLeaf));
    });

    // A metadata record of `bytes` on the device: one frame per page,
    // each pinned in the publish manifest and published to remote
    // readers.
    auto writeMetadata = [&](uint64_t bytes) {
        for (uint64_t i = 0; i < mem::pagesFor(bytes); ++i) {
            const mem::PhysAddr f =
                machine.cxl().alloc(mem::FrameUse::Metadata);
            img->addMetaFrame(f);
            manifestPage(node, f);
            machine.publishFrame(f, node.id(), clock);
        }
        cs.bytesToCxl += bytes;
    };

    // VMA records are checkpointed as-is (native memory copies).
    // Shared anonymous mappings are the documented unsupported case
    // (Sec. 4.1): their pages belong to several processes at once and
    // cannot be decoupled with this process's checkpoint.
    std::vector<os::Vma> vmaRecords;
    vmaRecords.reserve(parent.mm().vmas().liveCount());
    parent.mm().vmas().forEach([&](const os::Vma &v) {
        if (v.kind == os::VmaKind::SharedAnon) {
            sim::fatal("CXLfork: shared anonymous mapping %s is not "
                       "checkpointable (paper Sec. 4.1)",
                       v.name.c_str());
        }
        vmaRecords.push_back(v);
    });
    auto vmaSet = std::make_shared<os::SharedVmaSet>(std::move(vmaRecords));
    cs.vmas = vmaSet->size();
    const uint64_t vmaBytes = vmaSet->footprintBytes();
    writeMetadata(vmaBytes);
    clock.advance(costs.cxlWrite(vmaBytes));
    img->setVmaSet(std::move(vmaSet));

    // Global state is the only part that is serialized (Sec. 4.1
    // "Global State"): file paths/permissions, sockets, mounts, PID ns.
    proto::GlobalStateMsg global = captureGlobalState(parent);
    proto::Encoder enc;
    global.encode(enc);
    const uint64_t globalBytes = global.simulatedBytes();
    writeMetadata(globalBytes);
    clock.advance(costs.serializeCost(globalBytes) +
                  costs.serializeRecord * double(global.recordCount()) +
                  costs.cxlWrite(globalBytes));
    img->setGlobalState(enc.take(), globalBytes, global.recordCount());

    // CPU register context, copied as-is.
    img->setCpu(parent.cpu());
    writeMetadata(proto::CpuMsg::simulatedBytes());
    clock.advance(costs.cxlWrite(proto::CpuMsg::simulatedBytes()));

    // Make the image attachable on this fabric mapping, then seal
    // per-segment CRCs over the finished bits so restores can detect
    // torn writes. Both are crash sites: "all frames written, not yet
    // attachable" and "attachable, CRCs not yet sealed" are distinct
    // recovery states.
    machine.faults().crashPoint("cxlfork.activate");
    img->activate();
    machine.faults().crashPoint("cxlfork.seal");
    img->sealIntegrity();

    // Injected torn write: one of the non-temporal stores silently
    // raced the failure and a device bit differs from what the CRC was
    // sealed over. Restores will catch it.
    if (machine.faults().drawTornWrite() && img->pageCount() > 0) {
        img->corruptDataBit(
            machine.faults().pickVictim(img->pageCount() * 64));
    }

    cs.latency = clock.now() - start;
    ckptSpan.attr("pages", cs.pages)
        .attr("leaves", cs.leaves)
        .attr("bytes_to_cxl", cs.bytesToCxl)
        .finish();
    metrics_.checkpoints->inc();
    pagesCkptCounter_->inc(cs.pages);
    bytesToCxlCounter_->inc(cs.bytesToCxl);
    metrics_.checkpointNs->record(cs.latency);
    if (stats)
        *stats = cs;
    return img;
}

std::shared_ptr<os::Task>
CxlFork::restore(const std::shared_ptr<CheckpointHandle> &handle,
                 os::NodeOs &target, const RestoreOptions &opts,
                 RestoreStats *stats)
{
    auto img = image(handle);
    mem::Machine &machine = fabric_.machine();
    const sim::CostParams &costs = machine.costs();
    sim::SimClock &clock = target.clock();
    const SimTime start = clock.now();
    RestoreStats rs;

    sim::SpanScope restoreSpan = machine.tracer().span(
        clock, target.id(), "cxlfork.restore", "rfork.restore");
    restoreSpan.attr("image", img->name());

    // Reject torn/corrupted checkpoints up front, before any task
    // state exists on this node. The device computes the CRCs inline
    // with the mapped reads, so no extra latency is charged. An image
    // that never finished building (not activated / not sealed — a
    // half-published orphan) is corrupt by definition.
    {
        sim::SpanScope phase = machine.tracer().span(
            clock, target.id(), "restore.integrity", "rfork.phase");
        if (!img->activated() || !img->integritySealed()) {
            crcRejectCounter_->inc();
            throw sim::CorruptImageError(sim::format(
                "checkpoint '%s': incomplete image (%s)",
                img->name().c_str(),
                img->activated() ? "integrity never sealed"
                                 : "never activated"));
        }
        if (auto bad = img->verifyIntegrity()) {
            crcRejectCounter_->inc();
            throw sim::CorruptImageError(sim::format(
                "checkpoint '%s': %s segment failed CRC (torn write?)",
                img->name().c_str(), bad->c_str()));
        }
    }

    // (1) A new process on the new node calls CXLfork-restore.
    sim::SpanScope createSpan = machine.tracer().span(
        clock, target.id(), "restore.task_create", "rfork.phase");
    auto task = target.createTask(img->name() + "+clone", opts.container);
    createSpan.finish();

    // On any fault past this point the half-restored task must not
    // survive on the target: tear it down and let the typed error
    // propagate so tryRestore()/the autoscaler can pick a recovery.
    try {

    // (2)-(3) Re-construct the virtual memory using the checkpointed
    // metadata: attach the VMA leaf set and, under migrate-on-write,
    // the checkpointed page-table leaves — almost constant time.
    const SimTime memStart = clock.now();
    sim::SpanScope memSpan = machine.tracer().span(
        clock, target.id(), "restore.memory_state", "rfork.phase");
    task->mm().vmas().attachShared(img->vmaSet());
    clock.advance(costs.vmaSetup); // one pointer install

    if (opts.policy == os::TieringPolicy::MigrateOnWrite) {
        if (cfg_.attachLeaves) {
            for (const auto &[baseVpn, leaf] : img->leaves()) {
                // Attaching walks the device-resident leaf page: a
                // coherence-visible touch (directory cost and sharer
                // tracking only — the off path and the shared fabric
                // counters stay bit-identical to the pre-coherence
                // tree).
                if (machine.coherence()) {
                    machine.touchFrame(leaf->backing(), target.id(), clock,
                                       "cxlfork leaf attach");
                }
                task->mm().pageTable().attachLeaf(baseVpn, leaf);
                ++rs.leavesAttached;
            }
        } else {
            // Ablation: re-construct the page table by copying every
            // checkpointed leaf to local memory.
            for (const auto &[baseVpn, leaf] : img->leaves()) {
                machine.cxlTransaction(clock, "cxlfork leaf copy",
                                       target.id(), leaf->backing(),
                                       /*isRead=*/true);
                for (uint32_t i = 0; i < TablePage::kEntries; ++i) {
                    const Pte &p = leaf->pte(i);
                    if (p.present()) {
                        task->mm().pageTable().setPte(
                            mem::VirtAddr::fromPageNumber(baseVpn + i), p);
                    }
                }
                clock.advance(costs.cxlRead(kPageSize));
            }
        }
    }
    task->mm().setBacking(img, opts.policy);
    rs.memoryState = clock.now() - memStart;
    memSpan.attr("leaves_attached", rs.leavesAttached).finish();

    // Global state: deserialize the light blob and redo operations.
    const SimTime globalStart = clock.now();
    sim::SpanScope globalSpan = machine.tracer().span(
        clock, target.id(), "restore.global_state", "rfork.phase");
    proto::Decoder dec(img->globalBlob());
    proto::GlobalStateMsg global = proto::GlobalStateMsg::decode(dec);
    clock.advance(costs.deserializeCost(img->globalSimBytes()) +
                  costs.serializeRecord * double(img->globalRecords()));
    redoGlobalState(target, *task, global);
    rs.globalState = clock.now() - globalStart;
    globalSpan.finish();

    // Resume from the checkpointed hardware context.
    sim::SpanScope cpuSpan = machine.tracer().span(
        clock, target.id(), "restore.cpu_state", "rfork.phase");
    task->cpu() = img->cpu();
    clock.advance(costs.cxlRead(proto::CpuMsg::simulatedBytes()));
    cpuSpan.finish();

    // Opportunistic dirty-page prefetch (Sec. 4.2.1): pages the parent
    // wrote are overwhelmingly rewritten by children; pulling them now
    // avoids CXL CoW faults and their TLB shootdowns later.
    if (opts.policy == os::TieringPolicy::MigrateOnWrite &&
        opts.prefetchDirty) {
        const SimTime copyStart = clock.now();
        sim::SpanScope prefetchSpan = machine.tracer().span(
            clock, target.id(), "restore.prefetch", "rfork.phase");
        img->forEachDirty([&](mem::VirtAddr va, const Pte &ckpt) {
            const uint64_t content =
                machine.readFrame(ckpt.frame(), target.id(), clock,
                                  "cxlfork prefetch");
            const mem::PhysAddr local =
                target.localDram().alloc(mem::FrameUse::Data, content);
            Pte fresh = Pte::make(local, true);
            fresh.set(Pte::kDirty);
            task->mm().pageTable().setPte(va, fresh);
            // The prefetched line now lives in the child's DRAM copy.
            machine.evictFrame(ckpt.frame(), target.id(), clock);
            clock.advance(costs.cxlRead(kPageSize));
            ++rs.pagesCopied;
            if (machine.tracer().enabled()) {
                machine.tracer().instant(
                    clock, target.id(), "page_copy", "rfork",
                    {{"vpn", sim::TraceValue::of(va.pageNumber())},
                     {"reason", sim::TraceValue::of("prefetch")}});
            }
        });
        rs.dataCopy = clock.now() - copyStart;
        prefetchSpan.attr("pages_copied", rs.pagesCopied);
    }

    // Trace-trained speculative prefetch: pre-fault the predicted
    // working set in one batch before handing the clone back.
    if (opts.prefetch)
        runSpeculativePrefetch(target, *task, *opts.prefetch, &rs);

    } catch (...) {
        target.exitTask(task);
        metrics_.restoreFailed->inc();
        throw;
    }

    rs.latency = clock.now() - start;
    restoreSpan.attr("pages_copied", rs.pagesCopied)
        .attr("leaves_attached", rs.leavesAttached)
        .finish();
    metrics_.restores->inc();
    pagesPrefetchedCounter_->inc(rs.pagesCopied);
    metrics_.restoreNs->record(rs.latency);
    if (stats)
        *stats = rs;
    return task;
}

} // namespace cxlfork::rfork
