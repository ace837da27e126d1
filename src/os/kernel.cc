#include "kernel.hh"

#include "sim/error.hh"
#include "sim/log.hh"

namespace cxlfork::os {

using mem::kPageSize;
using sim::SimTime;

namespace {

/**
 * Owns a freshly allocated frame across the PTE install. setPte() can
 * itself allocate (leaf pages, leaf CoW) and throw sim::CapacityError;
 * without the guard the data frame would leak and the fault would not
 * be cleanly retryable.
 */
struct FrameGuard
{
    mem::FrameAllocator &owner;
    mem::PhysAddr frame;
    bool armed = true;

    FrameGuard(mem::FrameAllocator &o, mem::PhysAddr f) : owner(o), frame(f)
    {}
    ~FrameGuard()
    {
        if (armed)
            owner.decRef(frame);
    }
    FrameGuard(const FrameGuard &) = delete;
    FrameGuard &operator=(const FrameGuard &) = delete;

    void release() { armed = false; }
};

/** Registry-safe fault-kind suffix (dots and underscores only). */
const char *
faultMetricName(FaultKind k)
{
    switch (k) {
      case FaultKind::None:
        return "none";
      case FaultKind::Minor:
        return "minor";
      case FaultKind::Major:
        return "major";
      case FaultKind::CowLocal:
        return "cow_local";
      case FaultKind::CowCxl:
        return "cow_cxl";
      case FaultKind::CxlMigrate:
        return "cxl_migrate";
      case FaultKind::CxlMapThrough:
        return "cxl_map";
    }
    return "unknown";
}

} // namespace

const char *
faultKindName(FaultKind k)
{
    switch (k) {
      case FaultKind::None:
        return "none";
      case FaultKind::Minor:
        return "minor";
      case FaultKind::Major:
        return "major";
      case FaultKind::CowLocal:
        return "cow-local";
      case FaultKind::CowCxl:
        return "cow-cxl";
      case FaultKind::CxlMigrate:
        return "cxl-migrate";
      case FaultKind::CxlMapThrough:
        return "cxl-map";
    }
    return "?";
}

const char *
tieringPolicyName(TieringPolicy p)
{
    switch (p) {
      case TieringPolicy::MigrateOnWrite:
        return "migrate-on-write";
      case TieringPolicy::MigrateOnAccess:
        return "migrate-on-access";
      case TieringPolicy::Hybrid:
        return "hybrid";
    }
    return "?";
}

NodeOs::NodeOs(mem::NodeId id, mem::Machine &machine,
               std::shared_ptr<Vfs> vfs, NamespaceRegistry &nsRegistry)
    : id_(id), machine_(machine), vfs_(std::move(vfs)),
      nsRegistry_(nsRegistry), hostNs_(nsRegistry.hostSet())
{
    if (id_ >= machine_.numNodes())
        sim::fatal("NodeOs id %u beyond machine nodes", id_);
    // Resolve every metric handle up front; the fault loop and the
    // syscalls then never touch a string-keyed map.
    sim::MetricsRegistry &m = machine_.metrics();
    for (size_t k = 0; k < kFaultKindCount; ++k) {
        faultKindCounters_[k] = &m.counter(
            std::string("os.fault.") + faultMetricName(FaultKind(k)));
    }
    faultFailedCounter_ = &m.counter("os.fault.failed");
    leafCowCounter_ = &m.counter("os.fault.leaf_cow");
    tlbShootdownCounter_ = &m.counter("os.tlb.shootdowns");
    pagesFromCxlCounter_ = &m.counter("os.pages.copied_from_cxl");
    faultLatency_ = &m.latency("os.fault.ns");
    taskCreatedCounter_ = &m.counter("os.task.created");
    taskExitedCounter_ = &m.counter("os.task.exited");
    munmapCounter_ = &m.counter("os.syscall.munmap");
    mprotectCounter_ = &m.counter("os.syscall.mprotect");
    vmaMaterializedCounter_ = &m.counter("os.vma.materialized");
    forkLocalCounter_ = &m.counter("os.fork.local");
    prefetchBatchCounter_ = &m.counter("cxl.prefetch.batches");
    prefetchIssuedCounter_ = &m.counter("cxl.prefetch.issued");
    prefetchMappedCounter_ = &m.counter("cxl.prefetch.mapped");
    prefetchCopiedCounter_ = &m.counter("cxl.prefetch.copied");
    prefetchSkippedCounter_ = &m.counter("cxl.prefetch.skipped");
    prefetchBytesCounter_ = &m.counter("cxl.prefetch.bytes_copied");
}

NodeWorkCounts
NodeOs::workCounts() const
{
    NodeWorkCounts c;
    c.os = work_;
    const mem::FrameAllocator &dram = machine_.nodeDram(id_);
    const mem::FrameAllocator &cxl = machine_.cxl();
    c.framesAllocated[size_t(mem::Tier::LocalDram)] = dram.allocCount();
    c.framesFreed[size_t(mem::Tier::LocalDram)] = dram.freeCount();
    c.framesAllocated[size_t(mem::Tier::Cxl)] = cxl.allocCount();
    c.framesFreed[size_t(mem::Tier::Cxl)] = cxl.freeCount();
    return c;
}

std::shared_ptr<Task>
NodeOs::createTask(const std::string &name, const NamespaceSet *ns)
{
    const NamespaceSet &set = ns ? *ns : hostNs_;
    const int pid = set.pid->allocPid();
    auto mm = std::make_unique<MemoryDescriptor>(machine_, localDram(), clock_,
                                                 work_);
    auto task = std::make_shared<Task>(pid, name, id_, std::move(mm), set);
    tasks_[pid] = task;
    clock_.advance(machine_.costs().taskCreate);
    taskCreatedCounter_->inc();
    return task;
}

void
NodeOs::exitTask(const std::shared_ptr<Task> &task)
{
    task->setState(TaskState::Zombie);
    tasks_.erase(task->pid());
    taskExitedCounter_->inc();
}

std::shared_ptr<Task>
NodeOs::findTask(int pid) const
{
    auto it = tasks_.find(pid);
    return it == tasks_.end() ? nullptr : it->second;
}

Vma &
NodeOs::mapAnon(Task &task, uint64_t bytes, uint8_t perms,
                const std::string &name, SegClass seg)
{
    Vma vma;
    vma.start = task.mm().allocRange(bytes);
    vma.end = vma.start.plus(mem::pagesFor(bytes) * kPageSize);
    vma.perms = perms;
    vma.kind = VmaKind::Anon;
    vma.name = name;
    vma.segClass = seg;
    clock_.advance(machine_.costs().vmaSetup);
    return task.mm().vmas().insert(vma);
}

Vma &
NodeOs::mapFilePrivate(Task &task, const std::string &path, uint8_t perms,
                       SegClass seg)
{
    auto inode = vfs_->lookup(path);
    if (!inode)
        sim::fatal("mapFilePrivate: no such file %s", path.c_str());
    Vma vma;
    vma.start = task.mm().allocRange(inode->sizeBytes);
    vma.end = vma.start.plus(mem::pagesFor(inode->sizeBytes) * kPageSize);
    vma.perms = perms;
    vma.kind = VmaKind::FilePrivate;
    vma.filePath = path;
    vma.name = path;
    vma.segClass = seg;
    clock_.advance(machine_.costs().vmaSetup + machine_.costs().fileOpen);
    return task.mm().vmas().insert(vma);
}

Vma &
NodeOs::mapVma(Task &task, Vma vma)
{
    sim::SimTime cost = machine_.costs().vmaSetup;
    if (vma.kind == VmaKind::FilePrivate) {
        if (!vfs_->exists(vma.filePath))
            sim::fatal("mapVma: no such file %s", vma.filePath.c_str());
        cost += machine_.costs().fileOpen;
    }
    clock_.advance(cost);
    return task.mm().vmas().insert(std::move(vma));
}

void
NodeOs::munmap(Task &task, mem::VirtAddr lo, mem::VirtAddr hi)
{
    task.mm().vmas().removeRange(lo, hi);
    task.mm().pageTable().unmapRange(lo, hi);
    // One invalidation round covers the whole range (batched).
    clock_.advance(machine_.costs().tlbShootdown +
                   machine_.costs().vmaSetup);
    munmapCounter_->inc();
    tlbShootdownCounter_->inc();
}

void
NodeOs::mprotect(Task &task, mem::VirtAddr lo, mem::VirtAddr hi,
                 uint8_t perms)
{
    VmaTree &tree = task.mm().vmas();
    // Materialize any shared (checkpointed) records under the range:
    // a permission change is exactly the rare VMA update that forces
    // the lazy copy of the VMA leaf.
    for (mem::VirtAddr va = lo.pageBase(); va < hi;
         va = va.plus(mem::kPageSize)) {
        if (auto idx = tree.findShared(va)) {
            tree.materialize(*idx);
            clock_.advance(machine_.costs().vmaSetup);
            vmaMaterializedCounter_->inc();
        }
    }
    bool any = false;
    std::vector<Vma *> touched;
    tree.forEach([&](const Vma &v) {
        if (v.start >= lo && v.end <= hi)
            touched.push_back(const_cast<Vma *>(&v));
    });
    for (Vma *v : touched) {
        v->perms = perms;
        clock_.advance(machine_.costs().vmaSetup);
        any = true;
    }
    if (!any)
        sim::fatal("mprotect: no VMA fully contained in range");

    // Apply to existing translations. Collect first: permission stores
    // may clone sealed leaves under us.
    const bool writable = perms & kVmaWrite;
    std::vector<std::pair<mem::VirtAddr, Pte>> updates;
    task.mm().pageTable().forEachPresent(
        lo, hi, [&](mem::VirtAddr va, Pte &pte) {
            Pte next = pte;
            if (!writable) {
                if (!pte.writable())
                    return;
                next.clear(Pte::kWrite);
            } else {
                if (pte.writable())
                    return;
                // CoW / checkpoint / file-backed pages stay read-only;
                // the write fault upgrades them with a private copy.
                if (pte.cow() || pte.cxlCheckpoint() || pte.fileBacked())
                    return;
                const mem::Frame &frame = machine_.frame(pte.frame());
                if (frame.refcount != 1)
                    return;
                next.set(Pte::kWrite);
            }
            updates.emplace_back(va, next);
        });
    for (const auto &[va, pte] : updates)
        task.mm().pageTable().setPte(va, pte);
    if (!updates.empty()) {
        clock_.advance(machine_.costs().tlbShootdown);
        tlbShootdownCounter_->inc();
    }
    mprotectCounter_->inc();
}

Vma *
NodeOs::resolveVma(Task &task, mem::VirtAddr va)
{
    VmaTree &tree = task.mm().vmas();
    if (Vma *v = tree.findLocal(va))
        return v;
    if (auto idx = tree.findShared(va)) {
        // Lazy VMA-leaf materialization (paper Sec. 4.2.1): copy the
        // checkpointed record to local memory and re-register file
        // callbacks only now, during the first fault into the range.
        const Vma &rec = tree.shared()->at(*idx);
        SimTime cost = machine_.costs().vmaSetup +
                       machine_.costs().deserializeCost(
                           64 + rec.filePath.size());
        if (rec.kind == VmaKind::FilePrivate)
            cost += machine_.costs().fileOpen;
        clock_.advance(cost);
        vmaMaterializedCounter_->inc();
        return &tree.materialize(*idx);
    }
    return nullptr;
}

AccessResult
NodeOs::access(Task &task, mem::VirtAddr va, bool isWrite,
               uint64_t contentOnWrite)
{
    PageTable &pt = task.mm().pageTable();
    AccessResult res;
    Pte *pte = pt.findPte(va);
    if (pte && pte->present() && (!isWrite || pte->writable())) {
        // Translation hit: no fault. Record the serving tier and let
        // the hardware walker maintain A/D, through the same walk.
        res.tier = machine_.tierOf(pte->frame());
        if (isWrite) {
            machine_.writeFrame(pte->frame(), id_, contentOnWrite, clock_);
            // A write that hits a writable translation of a sealed
            // (checkpointed) frame is impossible by construction:
            // checkpointed PTEs are always read-only.
        }
        pte->set(isWrite ? Pte::kAccessed | Pte::kDirty : Pte::kAccessed);
        return res;
    }
    const sim::SimTime faultStart = clock_.now();
    // The span closes via RAII on both the normal and the unwind path;
    // its kind attribute is only known after the handler ran.
    sim::SpanScope span =
        machine_.tracer().span(clock_, id_, "os.fault", "os.fault");
    span.attr("vpn", va.pageNumber()).attr("pid", uint64_t(task.pid()));
    try {
        res = handleFault(task, va, pte ? *pte : Pte(), isWrite,
                          contentOnWrite);
    } catch (...) {
        // A failed fault (poisoned frame, dead Mitosis parent, transient
        // escalation, exhaustion) still spent its handler time; account
        // it so retries don't under-report, and leave the translation
        // untouched so the access can simply be replayed.
        faultTime_ += clock_.now() - faultStart;
        span.attr("kind", "failed");
        faultFailedCounter_->inc();
        throw;
    }
    faultTime_ += clock_.now() - faultStart;
    span.attr("kind", faultKindName(res.fault));
    faultKindCounters_[size_t(res.fault)]->inc();
    faultLatency_->record(clock_.now() - faultStart);
    if (faultSink_)
        faultSink_->recordFault(va, res.fault, isWrite, clock_.now());
    return res;
}

AccessResult
NodeOs::migrateFromCheckpoint(Task &task, mem::VirtAddr va, const Vma &vma,
                              Pte ckptPte, bool isWrite,
                              uint64_t contentOnWrite)
{
    // Copy the checkpointed page into a fresh local frame. The source
    // read is checked first (poison / transient CXL faults throw before
    // anything is allocated or installed).
    const uint64_t content =
        machine_.readFrame(ckptPte.frame(), id_, clock_,
                           "checkpoint migrate");
    // The page pull crosses the shared device port: with the fabric
    // queue armed it occupies the read lane like any demand read. The
    // port is charged directly rather than via cxlTransaction so the
    // migration mints no new crash site and pays the link stage only
    // once (readFrame's checked twin already covers both).
    machine_.chargePort(clock_, "checkpoint migrate", id_, ckptPte.frame(),
                        /*isRead=*/true, machine_.costs().pageSize);
    const mem::PhysAddr frame = localDram().alloc(
        mem::FrameUse::Data, isWrite ? contentOnWrite : content);
    FrameGuard guard(localDram(), frame);
    Pte pte = Pte::make(frame, vma.writable());
    pte.set(isWrite ? Pte::kAccessed | Pte::kDirty : Pte::kAccessed);
    const auto setRes = task.mm().pageTable().setPte(va, pte);
    guard.release();
    // The node keeps only its private copy: leave the checkpoint
    // line's sharer set so the directory never thinks we still cache
    // the device page.
    machine_.evictFrame(ckptPte.frame(), id_, clock_);
    clock_.advance(task.mm().backing()->migrateCost(machine_.costs()));
    pagesFromCxlCounter_->inc();
    if (machine_.tracer().enabled()) {
        machine_.tracer().instant(
            clock_, id_, "page_copy", "os",
            {{"vpn", sim::TraceValue::of(va.pageNumber())},
             {"reason", sim::TraceValue::of("migrate")}});
    }
    return {FaultKind::CxlMigrate, mem::Tier::LocalDram, setRes.leafCow};
}

AccessResult
NodeOs::handleFault(Task &task, mem::VirtAddr va, Pte pte, bool isWrite,
                    uint64_t contentOnWrite)
{
    // Each return builds its result right there: a result kept in a
    // local across the calls below is spilled byte by byte and read
    // back wider, a store-forwarding stall on every fault.
    Vma *vma = resolveVma(task, va);
    if (!vma) {
        sim::fatal("segfault: task %s (pid %d) at %#llx",
                   task.name().c_str(), task.pid(),
                   (unsigned long long)va.raw);
    }
    if (isWrite && !vma->writable())
        sim::fatal("write to read-only VMA %s", vma->name.c_str());

    PageTable &pt = task.mm().pageTable();
    const sim::CostParams &costs = machine_.costs();
    // What the access sets in the PTE it ends up using: each install
    // below stores it with the rest, so no walk follows the fault.
    const uint64_t hwBits =
        isWrite ? Pte::kAccessed | Pte::kDirty : Pte::kAccessed;

    if (!pte.present()) {
        // Not-present fault: checkpoint-backed, anonymous, or file.
        if (const CheckpointBacking *backing = task.mm().backing()) {
            if (const Pte ckpt = backing->checkpointPte(va);
                ckpt.present()) {
                switch (task.mm().policy()) {
                  case TieringPolicy::MigrateOnAccess:
                    return migrateFromCheckpoint(task, va, *vma, ckpt,
                                                 isWrite, contentOnWrite);
                  case TieringPolicy::Hybrid:
                    // A-bit set => estimated hot => bring it local.
                    // Writes always need a private copy.
                    if (isWrite || ckpt.accessed()) {
                        return migrateFromCheckpoint(task, va, *vma, ckpt,
                                                     isWrite,
                                                     contentOnWrite);
                    }
                    [[fallthrough]];
                  case TieringPolicy::MigrateOnWrite: {
                    // Map the CXL frame in place, read-only.
                    Pte mapped = Pte::make(ckpt.frame(), false);
                    mapped.set(Pte::kSoftCxl);
                    if (ckpt.userHot())
                        mapped.set(Pte::kSoftHot);
                    if (!isWrite)
                        mapped.set(Pte::kAccessed);
                    const auto setRes = pt.setPte(va, mapped);
                    clock_.advance(costs.faultTrap);
                    if (!isWrite) {
                        return {FaultKind::CxlMapThrough, mem::Tier::Cxl,
                                setRes.leafCow};
                    }
                    // A write immediately takes the CoW path below,
                    // which replaces this translation.
                    pte = mapped;
                    break;
                  }
                }
            }
        }
        if (pte.present()) {
            // Fall-through from hybrid/MoW map + write: handled below.
        } else if (vma->kind == VmaKind::Anon ||
                   vma->kind == VmaKind::SharedAnon) {
            const mem::PhysAddr frame =
                localDram().alloc(mem::FrameUse::Data, contentOnWrite);
            FrameGuard guard(localDram(), frame);
            Pte newPte = Pte::make(frame, vma->writable());
            newPte.set(hwBits);
            pt.setPte(va, newPte);
            guard.release();
            clock_.advance(costs.minorFault);
            return {FaultKind::Minor, mem::Tier::LocalDram};
        } else {
            // Private file mapping: read the page through the FS into
            // the page cache, map read-only; a write CoWs it next.
            auto inode = vfs_->lookup(vma->filePath);
            if (!inode)
                sim::fatal("mapped file vanished: %s", vma->filePath.c_str());
            const uint64_t pageIdx =
                (va.raw - vma->start.raw) / kPageSize +
                vma->fileOffset / kPageSize;
            const mem::PhysAddr frame = localDram().alloc(
                mem::FrameUse::FileCache, inode->pageContent(pageIdx));
            FrameGuard guard(localDram(), frame);
            Pte newPte = Pte::make(frame, false);
            newPte.set(Pte::kSoftFile);
            if (vma->writable())
                newPte.set(Pte::kSoftCow);
            if (!isWrite)
                newPte.set(Pte::kAccessed);
            pt.setPte(va, newPte);
            guard.release();
            clock_.advance(costs.majorFaultFs);
            if (!isWrite)
                return {FaultKind::Major, mem::Tier::LocalDram};
            // Write to a fresh file page: CoW it right away (below).
            pte = newPte;
        }
    }

    // Write to a present but non-writable translation: CoW. Every path
    // above that did not return left exactly that: access() faults on a
    // present page only for a write it does not allow, and the map-in-
    // place and file paths install read-only translations.
    const Pte cur = pte;
    CXLF_ASSERT(cur.present() && isWrite && !cur.writable());

    if (cur.cxlCheckpoint()) {
        // CoW from the CXL tier (paper Sec. 4.2): copy to local memory,
        // keep the checkpoint pristine. The copy reads the device page
        // first, so a poisoned or transiently failing source throws
        // before any local state changes.
        machine_.readFrame(cur.frame(), id_, clock_, "cxl cow copy");
        const mem::PhysAddr frame =
            localDram().alloc(mem::FrameUse::Data, contentOnWrite);
        FrameGuard guard(localDram(), frame);
        Pte newPte = Pte::make(frame, true);
        newPte.set(hwBits);
        const auto setRes = pt.setPte(va, newPte);
        guard.release();
        // The CoW break replaced the CXL mapping with the private
        // copy; the shootdown that follows also drops this node from
        // the directory's sharer set.
        machine_.evictFrame(cur.frame(), id_, clock_);
        clock_.advance(costs.cxlCowFault());
        pagesFromCxlCounter_->inc();
        tlbShootdownCounter_->inc();
        if (machine_.tracer().enabled()) {
            machine_.tracer().instant(
                clock_, id_, "page_copy", "os",
                {{"vpn", sim::TraceValue::of(va.pageNumber())},
                 {"reason", sim::TraceValue::of("cow_cxl")}});
        }
        if (setRes.leafCow)
            leafCowCounter_->inc();
        return {FaultKind::CowCxl, mem::Tier::LocalDram, setRes.leafCow};
    }

    if (cur.cow() || cur.fileBacked()) {
        mem::FrameAllocator &owner = machine_.ownerOf(cur.frame());
        Pte newPte = cur;
        if (owner.frame(cur.frame()).refcount == 1 &&
            owner.frame(cur.frame()).use != mem::FrameUse::FileCache) {
            // Sole owner: re-arm the mapping writable in place.
            newPte.set(Pte::kWrite | hwBits);
            newPte.clear(Pte::kSoftCow);
            machine_.writeFrame(cur.frame(), id_, contentOnWrite, clock_);
            pt.setPte(va, newPte);
            clock_.advance(costs.faultTrap + costs.cowFaultLocal);
        } else {
            const mem::PhysAddr frame =
                localDram().alloc(mem::FrameUse::Data, contentOnWrite);
            FrameGuard guard(localDram(), frame);
            newPte = Pte::make(frame, true);
            newPte.set(hwBits);
            // setPte drops our reference on the shared source frame.
            pt.setPte(va, newPte);
            guard.release();
            clock_.advance(costs.localCowFault());
            tlbShootdownCounter_->inc();
        }
        return {FaultKind::CowLocal, mem::Tier::LocalDram};
    }

    sim::fatal("protection fault: write at %#llx in task %s",
               (unsigned long long)va.raw, task.name().c_str());
}

std::map<FaultKind, uint64_t>
NodeOs::touchRange(Task &task, mem::VirtAddr lo, mem::VirtAddr hi,
                   bool isWrite,
                   const std::function<uint64_t(uint64_t)> &content)
{
    std::map<FaultKind, uint64_t> counts;
    uint64_t pageIdx = 0;
    for (mem::VirtAddr va = lo.pageBase(); va < hi;
         va = va.plus(kPageSize), ++pageIdx) {
        const uint64_t token = content ? content(pageIdx) : 0;
        const AccessResult r = access(task, va, isWrite, token);
        ++counts[r.fault];
    }
    return counts;
}

PrefetchResult
NodeOs::prefetchPages(Task &task, const std::vector<PrefetchRequest> &reqs)
{
    PrefetchResult out;
    if (reqs.empty())
        return out;
    const sim::CostParams &costs = machine_.costs();
    clock_.advance(costs.prefetchBatchSetup);
    prefetchBatchCounter_->inc();
    PageTable &pt = task.mm().pageTable();
    uint64_t cxlTouched = 0;   // fabric accesses to amortize
    bool brokePresent = false; // replaced a live translation

    for (const PrefetchRequest &req : reqs) {
        ++out.issued;
        clock_.advance(costs.prefetchIssue);
        const mem::VirtAddr va = req.va.pageBase();
        const Pte pte = pt.lookup(va);
        if (pte.present() && (!req.wantWrite || pte.writable())) {
            ++out.skipped;
            continue;
        }
        Vma *vma = resolveVma(task, va);
        if (!vma || (req.wantWrite && !vma->writable())) {
            // A mispredicted address outside the address space (or a
            // store predicted into a read-only range) is dropped, not
            // faulted: speculation never segfaults the task.
            ++out.skipped;
            continue;
        }

        if (!pte.present()) {
            const CheckpointBacking *backing = task.mm().backing();
            const Pte ckpt = backing ? backing->checkpointPte(va) : Pte();
            if (ckpt.present()) {
                const TieringPolicy policy = task.mm().policy();
                const bool copyLocal =
                    req.wantWrite ||
                    policy == TieringPolicy::MigrateOnAccess ||
                    (policy == TieringPolicy::Hybrid && ckpt.accessed());
                if (copyLocal) {
                    // Pre-copy with the *checkpointed* content. The
                    // mapping comes up writable (per the VMA) but
                    // clean: a later demand store is a translation hit
                    // that writes its own token, so a mispredict here
                    // costs time, never bytes.
                    const uint64_t content = machine_.readFrame(
                        ckpt.frame(), id_, clock_, "prefetch copy");
                    const mem::PhysAddr frame = localDram().alloc(
                        mem::FrameUse::Data, content);
                    FrameGuard guard(localDram(), frame);
                    pt.setPte(va, Pte::make(frame, vma->writable()));
                    guard.release();
                    machine_.evictFrame(ckpt.frame(), id_, clock_);
                    clock_.advance(backing->prefetchPageCost(costs));
                    ++out.copied;
                    out.bytesCopied += kPageSize;
                    ++cxlTouched;
                    pagesFromCxlCounter_->inc();
                } else {
                    // Read-predicted under map-through policies: install
                    // the device mapping now, skipping the later trap.
                    Pte mapped = Pte::make(ckpt.frame(), false);
                    mapped.set(Pte::kSoftCxl);
                    if (ckpt.userHot())
                        mapped.set(Pte::kSoftHot);
                    pt.setPte(va, mapped);
                    clock_.advance(costs.pteWrite);
                    ++out.mapped;
                    ++cxlTouched;
                }
                continue;
            }
            if (vma->kind == VmaKind::Anon ||
                vma->kind == VmaKind::SharedAnon) {
                // Batched anonymous populate (MAP_POPULATE-style):
                // frame alloc + zero + PTE install, no trap.
                const mem::PhysAddr frame =
                    localDram().alloc(mem::FrameUse::Data, 0);
                FrameGuard guard(localDram(), frame);
                pt.setPte(va, Pte::make(frame, vma->writable()));
                guard.release();
                clock_.advance(costs.ptPageAlloc + costs.pteWrite);
                ++out.mapped;
                continue;
            }
            // Cold file-backed pages keep going through the demand
            // major-fault path (page-cache bookkeeping lives there).
            ++out.skipped;
            continue;
        }

        // Present but not writable with a store predicted: pre-break
        // the CoW, preserving the current content and leaving the page
        // clean.
        const Pte cur = pt.lookup(va);
        if (cur.cxlCheckpoint()) {
            const uint64_t content = machine_.readFrame(
                cur.frame(), id_, clock_, "prefetch cow break");
            const mem::PhysAddr frame =
                localDram().alloc(mem::FrameUse::Data, content);
            FrameGuard guard(localDram(), frame);
            pt.setPte(va, Pte::make(frame, true));
            guard.release();
            machine_.evictFrame(cur.frame(), id_, clock_);
            clock_.advance(costs.cxlRead(kPageSize));
            ++out.copied;
            out.bytesCopied += kPageSize;
            ++cxlTouched;
            brokePresent = true;
            pagesFromCxlCounter_->inc();
            continue;
        }
        if (cur.cow() || cur.fileBacked()) {
            mem::FrameAllocator &owner = machine_.ownerOf(cur.frame());
            const mem::Frame &src = owner.frame(cur.frame());
            if (src.refcount == 1 && src.use != mem::FrameUse::FileCache) {
                // Sole owner: re-arm writable in place, content
                // untouched.
                Pte rearmed = cur;
                rearmed.set(Pte::kWrite);
                rearmed.clear(Pte::kSoftCow);
                pt.setPte(va, rearmed);
                clock_.advance(costs.pteWrite);
                ++out.mapped;
            } else {
                const mem::PhysAddr frame =
                    localDram().alloc(mem::FrameUse::Data, src.content);
                FrameGuard guard(localDram(), frame);
                // setPte drops our reference on the shared source.
                pt.setPte(va, Pte::make(frame, true));
                guard.release();
                clock_.advance(costs.dramCopy(kPageSize) + costs.pteWrite);
                ++out.copied;
                out.bytesCopied += kPageSize;
                brokePresent = true;
            }
            continue;
        }
        ++out.skipped;
    }

    // The batch's miss stream overlaps on the fabric; one invalidation
    // round covers every replaced translation.
    if (cxlTouched)
        clock_.advance(costs.missStreamCost(cxlTouched, costs.cxlLatency));
    if (brokePresent) {
        clock_.advance(costs.tlbShootdown);
        tlbShootdownCounter_->inc();
    }
    prefetchIssuedCounter_->inc(out.issued);
    prefetchMappedCounter_->inc(out.mapped);
    prefetchCopiedCounter_->inc(out.copied);
    prefetchSkippedCounter_->inc(out.skipped);
    prefetchBytesCounter_->inc(out.bytesCopied);
    return out;
}

uint64_t
NodeOs::read(Task &task, mem::VirtAddr va)
{
    access(task, va, false);
    const Pte pte = task.mm().pageTable().lookup(va);
    CXLF_ASSERT(pte.present());
    return machine_.readFrame(pte.frame(), id_, clock_, "read");
}

void
NodeOs::write(Task &task, mem::VirtAddr va, uint64_t content)
{
    access(task, va, true, content);
}

std::shared_ptr<Task>
NodeOs::localFork(Task &parent, const std::string &childName)
{
    auto child = createTask(childName, &parent.namespaces());
    child->cpu() = parent.cpu();

    // Duplicate descriptors (same open files).
    for (const auto &[fd, file] : parent.fds().files())
        child->fds().installFile(file);
    for (const auto &[fd, sock] : parent.fds().sockets())
        child->fds().installSocket(sock);

    // Duplicate the VMA tree.
    parent.mm().vmas().forEach([&](const Vma &vma) {
        child->mm().vmas().insert(vma);
        clock_.advance(machine_.costs().vmaSetup);
    });

    // Duplicate page tables with CoW semantics. Sealed (checkpointed)
    // leaves are re-attached; private leaves are copied and every
    // present PTE on both sides becomes read-only + CoW.
    PageTable &ppt = parent.mm().pageTable();
    PageTable &cpt = child->mm().pageTable();
    ppt.forEachLeaf([&](uint64_t baseVpn, TablePage &leaf) {
        if (leaf.sealed()) {
            cpt.attachLeaf(baseVpn, ppt.leafFor(baseVpn));
            return;
        }
        clock_.advance(machine_.costs().dramCopy(kPageSize));
        for (uint32_t i = 0; i < TablePage::kEntries; ++i) {
            Pte &p = leaf.pte(i);
            if (!p.present())
                continue;
            const mem::VirtAddr va =
                mem::VirtAddr::fromPageNumber(baseVpn + i);
            if (p.cxlCheckpoint()) {
                // Checkpoint-owned frame: child shares the read-only
                // CXL mapping; no refcount transfer.
                cpt.setPte(va, p);
                continue;
            }
            p.clear(Pte::kWrite);
            p.set(Pte::kSoftCow);
            machine_.getFrame(p.frame());
            cpt.setPte(va, p);
        }
    });
    // Child inherits the checkpoint backing, if any (its unattached
    // ranges must keep resolving against the image).
    if (auto backing = parent.mm().backingPtr())
        child->mm().setBacking(std::move(backing), parent.mm().policy());
    forkLocalCounter_->inc();
    return child;
}

} // namespace cxlfork::os
