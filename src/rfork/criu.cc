#include "criu.hh"

#include "prefetch.hh"
#include "sim/error.hh"
#include "sim/log.hh"
#include "state_capture.hh"

namespace cxlfork::rfork {

using mem::kPageSize;
using os::Pte;
using sim::SimTime;

namespace {

/** Pages from 0 up to the byte address a: the first VPN at or past a. */
uint64_t
pagesUpTo(uint64_t a)
{
    return a / kPageSize + (a % kPageSize != 0);
}

} // namespace

void
CriuRecords::decode(const std::vector<uint8_t> &data)
{
    proto::Decoder d(data);
    header_ = proto::CriuImageMsg::decodeHeader(d);

    // The VPNs each VMA covers, [first, end), ordered by first page.
    struct Span
    {
        uint64_t first;
        uint64_t end;
    };
    std::vector<Span> spans;
    spans.reserve(header_.vmas.size());
    for (const proto::VmaMsg &v : header_.vmas) {
        const Span sp{pagesUpTo(v.start), pagesUpTo(v.end)};
        if (sp.first < sp.end)
            spans.push_back(sp);
    }
    std::sort(spans.begin(), spans.end(),
              [](const Span &a, const Span &b) { return a.first < b.first; });

    // Records come in ascending VPN order, so a cursor over the spans
    // finds each page's VMA: a span ending at or before one page ends
    // before every later page too.
    const uint64_t count = proto::decodePageCount(d);
    contents_.resize(count);
    runs_.clear();
    size_t span = 0;
    uint64_t next = 0;   // the page that would extend the last run
    uint64_t runEnd = 0; // where the last run must stop
    for (uint64_t i = 0; i < count; ++i) {
        const proto::PageMsg p = proto::PageMsg::decode(d);
        contents_[i] = p.content;
        if (i != 0 && p.vpn == next && next < runEnd) {
            ++runs_.back().pages;
            ++next;
            continue;
        }
        if (i != 0 && p.vpn < next)
            sim::fatal("CRIU image page %#llx out of ascending VPN order",
                       (unsigned long long)p.vpn);
        while (span < spans.size() && spans[span].end <= p.vpn)
            ++span;
        if (span == spans.size() || spans[span].first > p.vpn)
            sim::fatal("CRIU image page %#llx outside any VMA",
                       (unsigned long long)p.vpn);
        const uint64_t leafEnd =
            (p.vpn / os::TablePage::kEntries + 1) * os::TablePage::kEntries;
        runEnd = std::min(spans[span].end, leafEnd);
        runs_.push_back({p.vpn, 1});
        next = p.vpn + 1;
    }
}

std::shared_ptr<CheckpointHandle>
CriuCxl::checkpoint(os::NodeOs &node, os::Task &parent,
                    CheckpointStats *stats)
{
    mem::Machine &machine = fabric_.machine();
    const sim::CostParams &costs = machine.costs();
    sim::SimClock &clock = node.clock();
    const SimTime start = clock.now();
    CheckpointStats cs;

    sim::SpanScope ckptSpan = machine.tracer().span(
        clock, node.id(), "criu.checkpoint", "rfork.checkpoint");
    ckptSpan.attr("task", parent.name());

    // The handle exists (and is staged, under checkpointPublished)
    // before the image file does: a crash mid-serialization or
    // mid-write leaves a discoverable, incomplete orphan whose
    // reclamation also removes whatever part of the file landed.
    const std::string name = sim::format("criu/%s.%llu.img",
                                         parent.name().c_str(),
                                         (unsigned long long)nextImageId_++);
    auto handle = std::make_shared<CriuHandle>(name, &fabric_.sharedFs());
    stageHandle(handle, node);

    // Serialize everything: global state, CPU, VMAs, page map + data.
    proto::CriuImageMsg image;
    image.global = captureGlobalState(parent);
    image.cpu.gpr = parent.cpu().gpr;
    image.cpu.rip = parent.cpu().rip;
    image.cpu.rsp = parent.cpu().rsp;
    image.cpu.fpstate = parent.cpu().fpstate;
    image.vmas = captureVmas(parent);

    parent.mm().pageTable().forEachLeaf(
        [&](uint64_t baseVpn, os::TablePage &leaf) {
            for (uint32_t i = 0; i < os::TablePage::kEntries; ++i) {
                const Pte &pte = leaf.pte(i);
                if (!pte.present())
                    continue;
                proto::PageMsg p;
                p.vpn = baseVpn + i;
                p.content = fabric_.machine().frame(pte.frame()).content;
                image.pages.push_back(p);
            }
        });

    proto::Encoder enc;
    image.encode(enc);
    const uint64_t simBytes = image.simulatedBytes();
    const uint64_t records = image.recordCount();
    clock.advance(costs.serializeCost(simBytes) +
                  costs.serializeRecord * double(records));

    // Cache the image files in the shared in-CXL filesystem (the write
    // cost is charged by SharedFs).
    machine.faults().crashPoint("criu.serialize");
    const cxl::CxlFsFile &file =
        fabric_.sharedFs().write(name, enc.take(), simBytes, clock,
                                 node.id());
    const uint64_t cxlFrees = machine.cxl().freeCount();
    // The image file's cache frames (possibly shared with other images
    // through the page store) go on the STAGED manifest so a crash
    // between here and publish releases them exactly once.
    for (mem::PhysAddr f : file.frames) {
        manifestPage(node, f);
        // Publish the page-cache frames through the coherence
        // directory (no-op without one): restores on other nodes must
        // observe the image bytes, not a stale zero token.
        machine.publishFrame(f, node.id(), clock);
    }
    handle->setContents(simBytes, image.pages.size(), records, cxlFrees);
    machine.faults().crashPoint("criu.commit");
    handle->markCommitted();

    cs.latency = clock.now() - start;
    cs.pages = image.pages.size();
    cs.vmas = image.vmas.size();
    cs.bytesToCxl = simBytes;
    ckptSpan.attr("pages", cs.pages).attr("bytes_to_cxl", cs.bytesToCxl);
    metrics_.checkpoints->inc();
    metrics_.checkpointNs->record(cs.latency);
    if (stats)
        *stats = cs;
    return handle;
}

std::shared_ptr<os::Task>
CriuCxl::restore(const std::shared_ptr<CheckpointHandle> &handle,
                 os::NodeOs &target, const RestoreOptions &opts,
                 RestoreStats *stats)
{
    auto h = std::dynamic_pointer_cast<CriuHandle>(handle);
    if (!h)
        sim::fatal("handle is not a CRIU image");
    mem::Machine &machine = fabric_.machine();
    const sim::CostParams &costs = machine.costs();
    sim::SimClock &clock = target.clock();
    const SimTime start = clock.now();
    RestoreStats rs;

    sim::SpanScope restoreSpan = machine.tracer().span(
        clock, target.id(), "criu.restore", "rfork.restore");
    restoreSpan.attr("image", h->fileName());

    sim::SpanScope readSpan = machine.tracer().span(
        clock, target.id(), "restore.read_image", "rfork.phase");
    const cxl::CxlFsFile *file = fabric_.sharedFs().open(h->fileName());
    if (!file)
        sim::fatal("CRIU image %s missing", h->fileName().c_str());
    // The bulk image read machine-checks on poisoned page-cache frames
    // exactly like the other mechanisms' page reads: a poisoned frame
    // goes through the checked-read chokepoint, which gives an
    // installed RAS manager its repair chance before the typed error
    // escalates. The scan peeks at the poison bit directly so the
    // clean-frame case (every run without poison injection) charges
    // nothing and touches no counters.
    // With the codec pipeline armed every image page pays its one-time
    // decompress on this bulk read (the checked read routes it through
    // the codec stage); off, the scan stays peek-only and free.
    // With no layer armed and no poisoned frame on the device, the scan
    // would do nothing but assert, in frame(), that each image frame is
    // allocated. framesSurelyLive() proves that in constant time, so
    // the scan is skipped; it runs, asserts included, whenever the
    // proof fails.
    const bool compressed = fabric_.pageStore().compressEnabled();
    const bool queued = machine.stage(mem::StageKind::Queue) != nullptr;
    mem::CoherenceModel *const coherence = machine.coherence();
    const bool scan = compressed || queued || coherence ||
                      machine.cxl().poisonedFrames() != 0 ||
                      !h->framesSurelyLive(machine.cxl());
    if (scan) {
        for (mem::PhysAddr fr : file->frames) {
            if (compressed || machine.frame(fr).poisoned) {
                machine.readFrameChecked(fr, clock, "criu image read",
                                         target.id());
            } else if (queued) {
                // Queue armed: the eager bulk read still occupies the
                // device port page by page — this is precisely where an
                // up-front copy loses to lazy faults under contention.
                // The checked read above already routes through the
                // queue; the clean-frame path charges the port directly
                // so it mints no crash site.
                machine.chargePort(clock, "criu image read", target.id(),
                                   fr, /*isRead=*/true, costs.pageSize);
            }
            if (coherence) {
                // Directory on: the bulk read is additionally a
                // coherence-visible touch (sharer tracking + tax,
                // nothing in the shared fabric counters), and the
                // target drops its copy right after the one-shot parse.
                machine.touchFrame(fr, target.id(), clock,
                                   "criu image read");
                machine.evictFrame(fr, target.id(), clock);
            }
        }
    }
    if (!fabric_.sharedFs().verify(h->fileName())) {
        throw sim::CorruptImageError(sim::format(
            "CRIU image %s failed CRC (torn write?)",
            h->fileName().c_str()));
    }

    // Deserialize the image: the header, then every page record, each
    // checked against the image's VMAs, so a malformed image fails
    // here, before the task exists. The handle keeps what it decoded
    // until the file is written again, so the host parses each image
    // once; the simulated restore still pays the full deserialize on
    // every restore. The page payload dominates; the deserialize
    // bandwidth models the combined parse + copy-to-local pass CRIU
    // performs.
    const CriuRecords &image = h->decoded(*file);
    const proto::CriuImageMsg &header = image.header();
    clock.advance(costs.deserializeCost(h->simulatedBytes()) +
                  costs.serializeRecord * double(h->records()));
    readSpan.attr("bytes", h->simulatedBytes()).finish();

    sim::SpanScope createSpan = machine.tracer().span(
        clock, target.id(), "restore.task_create", "rfork.phase");
    auto task = target.createTask(header.global.taskName + "+criu",
                                  opts.container);
    createSpan.finish();

    try {

    // Rebuild the full VMA tree.
    const SimTime memStart = clock.now();
    sim::SpanScope memSpan = machine.tracer().span(
        clock, target.id(), "restore.memory_state", "rfork.phase");
    for (const proto::VmaMsg &vm : header.vmas) {
        task->mm().vmas().insert(fromMsg(vm));
        clock.advance(costs.vmaSetup);
        if (os::VmaKind(vm.kind) == os::VmaKind::FilePrivate)
            clock.advance(costs.fileOpen);
    }

    // Copy every checkpointed page into local memory and map it, a run
    // at a time: one VMA check and one page-table walk per run (a run
    // stays inside one VMA and one leaf), then for each page its frame
    // allocation (crash point first) and its PTE store, in page order.
    // Runs come in ascending VPN order, so the VMA found for one run
    // usually covers the next; look up only on leaving it.
    const os::Vma *vma = nullptr;
    os::VmaTree &vmas = task->mm().vmas();
    os::PageTable &pt = task->mm().pageTable();
    mem::FrameAllocator &dram = target.localDram();
    os::WorkCounters &work = target.work();
    sim::Tracer &tracer = machine.tracer();
    const uint64_t *content = image.contents().data();
    for (const CriuRecords::Run &run : image.runs()) {
        const mem::VirtAddr va = mem::VirtAddr::fromPageNumber(run.vpn);
        if (!vma || !vma->contains(va))
            vma = vmas.findLocal(va);
        // Decoding checked the run against the image's VMAs, and the
        // tree holds exactly those.
        CXLF_ASSERT(vma &&
                    vma->contains(va.plus((run.pages - 1) * kPageSize)));
        const bool writable = vma->writable();
        os::TablePage &leaf = pt.leafForStore(run.vpn);
        for (uint32_t i = 0; i < run.pages; ++i) {
            ++work.criuPagesDecoded;
            const mem::PhysAddr frame =
                dram.alloc(mem::FrameUse::Data, *content++);
            pt.storePte(leaf, run.vpn + i, Pte::make(frame, writable));
            if (tracer.enabled()) {
                tracer.instant(
                    clock, target.id(), "page_copy", "rfork",
                    {{"vpn", sim::TraceValue::of(run.vpn + i)},
                     {"reason", sim::TraceValue::of("criu_copy")}});
            }
        }
        rs.pagesCopied += run.pages;
    }
    rs.memoryState = clock.now() - memStart;
    memSpan.attr("pages_copied", rs.pagesCopied).finish();

    // Redo global state and restore registers.
    const SimTime globalStart = clock.now();
    sim::SpanScope globalSpan = machine.tracer().span(
        clock, target.id(), "restore.global_state", "rfork.phase");
    redoGlobalState(target, *task, header.global);
    rs.globalState = clock.now() - globalStart;
    task->cpu().gpr = header.cpu.gpr;
    task->cpu().rip = header.cpu.rip;
    task->cpu().rsp = header.cpu.rsp;
    task->cpu().fpstate = header.cpu.fpstate;
    globalSpan.finish();

    // Speculative prefetch: CRIU restores eagerly, so most requests
    // find their page resident and count as skips — the schedule costs
    // its issue time and buys little, which the ablation reports
    // honestly.
    if (opts.prefetch)
        runSpeculativePrefetch(target, *task, *opts.prefetch, &rs);

    } catch (...) {
        target.exitTask(task);
        metrics_.restoreFailed->inc();
        throw;
    }

    rs.latency = clock.now() - start;
    restoreSpan.attr("pages_copied", rs.pagesCopied).finish();
    metrics_.restores->inc();
    metrics_.restoreNs->record(rs.latency);
    if (stats)
        *stats = rs;
    return task;
}

} // namespace cxlfork::rfork
