/**
 * @file
 * NodeOs: one standalone OS instance on one compute node.
 *
 * Owns the node's tasks and clock, implements page-fault handling
 * (minor, major, local CoW, CXL CoW, CXL migrate-on-access, hybrid
 * map-through), local fork, and the memory-touching entry points the
 * FaaS invocation engine drives.
 */

#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "mem/machine.hh"
#include "namespaces.hh"
#include "sim/clock.hh"
#include "sim/stats.hh"
#include "task.hh"
#include "vfs.hh"
#include "work.hh"

namespace cxlfork::os {

/** How an access was resolved. */
enum class FaultKind : uint8_t {
    None,          ///< Translation hit; no fault.
    Minor,         ///< Fresh anonymous page from local memory.
    Major,         ///< File-backed page read through the FS.
    CowLocal,      ///< Copy-on-write from a local frame.
    CowCxl,        ///< Copy-on-write from a checkpointed CXL frame.
    CxlMigrate,    ///< Migrate-on-access copy from the checkpoint tier.
    CxlMapThrough, ///< Hybrid: mapped the CXL frame in place (no copy).
};

constexpr size_t kFaultKindCount = size_t(FaultKind::CxlMapThrough) + 1;

const char *faultKindName(FaultKind k);

/** Outcome of one memory access. */
struct AccessResult
{
    FaultKind fault = FaultKind::None;
    mem::Tier tier = mem::Tier::LocalDram; ///< Tier finally serving the page.
    bool leafCow = false;                  ///< A sealed PT leaf was cloned.
    /**
     * Pads the result to one 32-bit register. At three bytes the
     * compiler builds it byte by byte on the stack and returns it with
     * a wider load, which stalls on store forwarding at every access.
     */
    uint8_t pad = 0;
};
static_assert(sizeof(AccessResult) == 4);

/**
 * Observer of the node's page-fault stream. Installed per NodeOs while
 * an invocation runs under tracing; the working-set predictor trains
 * on the recorded (address, kind, order, time) tuples. Recording is
 * pure observation: it never changes what the fault handler does.
 */
class FaultTraceSink
{
  public:
    virtual ~FaultTraceSink() = default;
    virtual void recordFault(mem::VirtAddr va, FaultKind kind, bool isWrite,
                             sim::SimTime now) = 0;
};

/** One page a speculative batch asks the kernel to pre-fault. */
struct PrefetchRequest
{
    mem::VirtAddr va{0};
    bool wantWrite = false; ///< Predicted store: pre-break CoW too.
};

/** What one speculative batch actually did. */
struct PrefetchResult
{
    uint64_t issued = 0;      ///< Requests examined.
    uint64_t mapped = 0;      ///< Translations installed without a copy.
    uint64_t copied = 0;      ///< Pages copied into local memory.
    uint64_t skipped = 0;     ///< Already resident or not prefetchable.
    uint64_t bytesCopied = 0; ///< Data bytes the copies moved.
};

/**
 * A node's work counts plus the frame traffic of each tier, indexed by
 * mem::Tier: this node's DRAM and the shared CXL device (the device's
 * counts are machine-wide; take deltas around single-node work).
 */
struct NodeWorkCounts
{
    WorkCounters os;
    std::array<uint64_t, 2> framesAllocated{};
    std::array<uint64_t, 2> framesFreed{};

    bool operator==(const NodeWorkCounts &) const = default;
};

/** One OS instance. */
class NodeOs
{
  public:
    NodeOs(mem::NodeId id, mem::Machine &machine, std::shared_ptr<Vfs> vfs,
           NamespaceRegistry &nsRegistry);

    NodeOs(const NodeOs &) = delete;
    NodeOs &operator=(const NodeOs &) = delete;

    mem::NodeId id() const { return id_; }
    mem::Machine &machine() { return machine_; }
    sim::SimClock &clock() { return clock_; }
    Vfs &vfs() { return *vfs_; }
    NamespaceRegistry &nsRegistry() { return nsRegistry_; }

    mem::FrameAllocator &localDram() { return machine_.nodeDram(id_); }

    /**
     * Host-work counts of this node's address spaces (os/work.hh).
     * Mutable so the restore paths above the OS can count their own
     * per-page work here too.
     */
    WorkCounters &work() { return work_; }

    /** work() plus the frames each tier allocated and freed so far. */
    NodeWorkCounts workCounts() const;

    /** Create a task in the given (or host) namespaces. */
    std::shared_ptr<Task> createTask(const std::string &name,
                                     const NamespaceSet *ns = nullptr);

    /** Tear a task down, releasing its memory. */
    void exitTask(const std::shared_ptr<Task> &task);

    std::shared_ptr<Task> findTask(int pid) const;
    size_t taskCount() const { return tasks_.size(); }

    /** Map anonymous memory (unpopulated). */
    Vma &mapAnon(Task &task, uint64_t bytes, uint8_t perms,
                 const std::string &name, SegClass seg = SegClass::None);

    /** Privately map a file from the shared FS (unpopulated). */
    Vma &mapFilePrivate(Task &task, const std::string &path, uint8_t perms,
                        SegClass seg = SegClass::None);

    /** Insert a fully-specified VMA (fixed placement). */
    Vma &mapVma(Task &task, Vma vma);

    /**
     * Remove the mappings in [lo, hi): drops the VMAs (whole-VMA
     * granularity) and releases the process-owned frames. Attached
     * checkpointed PT leaves are detached or leaf-CoWed as needed.
     */
    void munmap(Task &task, mem::VirtAddr lo, mem::VirtAddr hi);

    /**
     * Change the protection of the VMAs fully contained in [lo, hi).
     * Updating PTE permissions on a sealed (checkpointed) leaf clones
     * it first — the paper's "in the rare case of an update, CXLfork
     * copies the corresponding leaf to local memory" (Sec. 4.2.1).
     * Write permission is never granted directly on CoW/CXL-backed
     * pages; their writability keeps flowing through the fault path.
     */
    void mprotect(Task &task, mem::VirtAddr lo, mem::VirtAddr hi,
                  uint8_t perms);

    /**
     * One memory access by the task at va. Faults as needed, maintains
     * A/D bits, charges fault costs to the node clock. Does NOT charge
     * the cache-hierarchy load latency — the invocation engine models
     * that with the CacheModel.
     *
     * @param contentOnWrite New content token stored on a write.
     */
    AccessResult access(Task &task, mem::VirtAddr va, bool isWrite,
                        uint64_t contentOnWrite = 0);

    /** Touch every page in [lo, hi). Returns fault counts by kind. */
    std::map<FaultKind, uint64_t>
    touchRange(Task &task, mem::VirtAddr lo, mem::VirtAddr hi, bool isWrite,
               const std::function<uint64_t(uint64_t pageIdx)> &content = {});

    /**
     * Install (or with nullptr remove) the fault-stream observer. At
     * most one sink at a time; the caller keeps ownership and must
     * outlive the installation.
     */
    void setFaultSink(FaultTraceSink *sink) { faultSink_ = sink; }

    /**
     * Speculatively pre-fault a batch of pages. Populates translations
     * exactly as the demand path would — checkpoint pages are copied
     * in or mapped through per the task's tiering policy, anonymous
     * pages are zero-populated, write-predicted CoW mappings are
     * pre-broken — but always with the page's *current* content and
     * never dirty, so a mispredicted page changes no byte any later
     * access observes. The batch charges one setup, a per-page issue
     * cost, bandwidth for the copies with miss-stream amortization of
     * the fabric latency, and a single TLB shootdown if any present
     * translation was replaced. Pages already resident (or not safely
     * prefetchable, e.g. file-backed cold pages) are counted skipped.
     */
    PrefetchResult prefetchPages(Task &task,
                                 const std::vector<PrefetchRequest> &reqs);

    /**
     * Total simulated time this node spent inside fault handling
     * (minor, major, CoW, migrate). Used by the benches to report the
     * Fig. 7 Restore / Page Faults / Execution breakdown.
     */
    sim::SimTime faultTime() const { return faultTime_; }

    /** Content token currently visible at va (faults in if needed). */
    uint64_t read(Task &task, mem::VirtAddr va);

    /** Store a content token at va (CoW-faults as needed). */
    void write(Task &task, mem::VirtAddr va, uint64_t content);

    /**
     * Classic same-node fork(): duplicate VMAs, share all frames
     * copy-on-write, duplicate page tables (attached sealed leaves are
     * re-attached, not copied).
     */
    std::shared_ptr<Task> localFork(Task &parent, const std::string &childName);

  private:
    /**
     * Resolve a fault at va, whose translation access() found as `pte`
     * (zero when none). Every path installs its PTE with the hardware
     * A/D bits the faulting access sets already in it.
     */
    AccessResult handleFault(Task &task, mem::VirtAddr va, Pte pte,
                             bool isWrite, uint64_t contentOnWrite);
    Vma *resolveVma(Task &task, mem::VirtAddr va);
    AccessResult migrateFromCheckpoint(Task &task, mem::VirtAddr va,
                                       const Vma &vma, Pte ckptPte,
                                       bool isWrite, uint64_t contentOnWrite);

    mem::NodeId id_;
    mem::Machine &machine_;
    sim::SimClock clock_;
    std::shared_ptr<Vfs> vfs_;
    NamespaceRegistry &nsRegistry_;
    NamespaceSet hostNs_;
    sim::SimTime faultTime_;
    WorkCounters work_;
    std::map<int, std::shared_ptr<Task>> tasks_;

    // Fault-path metric handles, resolved once at construction so each
    // fault charges a pointer bump instead of building a key string and
    // doing a map lookup. FaultKind indexes the per-kind array;
    // map storage keeps the pointers stable for the NodeOs lifetime.
    std::array<sim::Counter *, kFaultKindCount> faultKindCounters_{};
    sim::Counter *faultFailedCounter_ = nullptr;
    sim::Counter *leafCowCounter_ = nullptr;
    sim::Counter *tlbShootdownCounter_ = nullptr;
    sim::Counter *pagesFromCxlCounter_ = nullptr;
    sim::LatencyHistogram *faultLatency_ = nullptr;

    // Syscall / lifecycle metric handles, same policy as the fault-path
    // handles above: resolve the string-keyed lookup once, bump a
    // pointer afterwards.
    sim::Counter *taskCreatedCounter_ = nullptr;
    sim::Counter *taskExitedCounter_ = nullptr;
    sim::Counter *munmapCounter_ = nullptr;
    sim::Counter *mprotectCounter_ = nullptr;
    sim::Counter *vmaMaterializedCounter_ = nullptr;
    sim::Counter *forkLocalCounter_ = nullptr;

    sim::Counter *prefetchBatchCounter_ = nullptr;
    sim::Counter *prefetchIssuedCounter_ = nullptr;
    sim::Counter *prefetchMappedCounter_ = nullptr;
    sim::Counter *prefetchCopiedCounter_ = nullptr;
    sim::Counter *prefetchSkippedCounter_ = nullptr;
    sim::Counter *prefetchBytesCounter_ = nullptr;

    FaultTraceSink *faultSink_ = nullptr;
};

} // namespace cxlfork::os
