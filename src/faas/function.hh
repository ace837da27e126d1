/**
 * @file
 * Serverless function model.
 *
 * A FunctionSpec captures what the evaluation depends on: the memory
 * footprint (Table 1), its split into Init / Read-only / Read-write
 * segments (Fig. 1), the steady working set relative to the LLC, the
 * compute time per invocation, and the runtime initialization cost
 * (Fig. 6). A FunctionInstance is a process running the function; its
 * invoke() drives real page accesses through the simulated OS (faults,
 * A/D bits, CoW) and charges cache-model memory latency.
 */

#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "os/kernel.hh"
#include "sim/time.hh"

namespace cxlfork::faas {

/** Static description of one serverless function. */
struct FunctionSpec
{
    std::string name;
    std::string user = "tenant0";
    uint64_t footprintBytes = 0;

    // Fig. 1 segment split; fractions sum to 1.
    double initFrac = 0.72;
    double roFrac = 0.23;
    double rwFrac = 0.05;

    /** Steady working set (<= ro+rw bytes); drives LLC behaviour. */
    uint64_t workingSetBytes = 0;

    /** Mean accesses per working-set cacheline per invocation. */
    double wsReuse = 6.0;

    /** Pure compute per invocation. */
    sim::SimTime computeTime;

    /** Runtime + private state initialization (paper: 250-500 ms). */
    sim::SimTime stateInitTime;

    /** Fraction of the Init segment that is file-mapped libraries. */
    double libFracOfInit = 0.4;

    /** Total VMAs the address space splits into (FaaS: hundreds). */
    uint32_t vmaCount = 150;

    /** Deterministic seed for content tokens. */
    uint64_t seed = 1;

    // --- Derived byte/page geometry.
    uint64_t initBytes() const;
    uint64_t roBytes() const;
    uint64_t rwBytes() const;
    uint64_t libBytes() const;
    uint64_t initAnonBytes() const { return initBytes() - libBytes(); }

    /** Working set clamped to what execution actually touches. */
    uint64_t effectiveWorkingSet() const;

    /**
     * Runtime/library text executed on every invocation (a slice of
     * the Init segment). These pages are read during execution, so
     * migrate-on-access designs fault and copy them too (the paper's
     * "page faults that copy mainly runtime pages" for Mitosis).
     */
    uint64_t codeBytes() const;

    /** Content token for a page of a segment at a given version. */
    uint64_t pageToken(os::SegClass seg, uint64_t pageIdx,
                       uint64_t version = 0) const;
};

/** Address-space layout, derived deterministically from the spec. */
struct FunctionLayout
{
    struct Segment
    {
        os::SegClass seg;
        os::VmaKind kind;
        mem::VirtAddr start;
        uint64_t pages = 0;
        std::string filePath; ///< FilePrivate segments only.
    };

    std::vector<Segment> segments;

    static FunctionLayout compute(const FunctionSpec &spec);

    /** Sum of pages across segments of a class. */
    uint64_t pagesOf(os::SegClass seg) const;

    /**
     * Visit pages of a class in deterministic order, up to maxPages:
     * fn(va, pageIdx) with pageIdx counting from 0.
     */
    template <typename Fn>
    void
    forEachPage(os::SegClass seg, uint64_t maxPages, Fn &&fn) const
    {
        uint64_t emitted = 0;
        for (const Segment &s : segments) {
            if (s.seg != seg)
                continue;
            for (uint64_t i = 0; i < s.pages && emitted < maxPages;
                 ++i, ++emitted) {
                fn(s.start.plus(i * mem::kPageSize), emitted);
            }
            if (emitted >= maxPages)
                return;
        }
    }

    /**
     * Visit `count` pages of a class starting at page `startPage`,
     * wrapping around the segment end (the input-dependent window):
     * fn(va, pageIdx) with pageIdx the page's index within the class.
     */
    template <typename Fn>
    void
    forEachPageWrapped(os::SegClass seg, uint64_t startPage, uint64_t count,
                       Fn &&fn) const
    {
        const uint64_t total = pagesOf(seg);
        if (total == 0 || count == 0)
            return;
        count = std::min(count, total);
        startPage %= total;
        const uint64_t end = startPage + count;
        if (end <= total) {
            forEachInRange(seg, startPage, end, fn);
        } else {
            forEachInRange(seg, startPage, total, fn);
            forEachInRange(seg, 0, end - total, fn);
        }
    }

  private:
    /** Visit the class pages with indices in [lo, hi). */
    template <typename Fn>
    void
    forEachInRange(os::SegClass seg, uint64_t lo, uint64_t hi, Fn &fn) const
    {
        uint64_t base = 0;
        for (const Segment &s : segments) {
            if (s.seg != seg)
                continue;
            const uint64_t segLo = base;
            const uint64_t segHi = base + s.pages;
            const uint64_t from = std::max(lo, segLo);
            const uint64_t to = std::min(hi, segHi);
            for (uint64_t idx = from; idx < to; ++idx)
                fn(s.start.plus((idx - segLo) * mem::kPageSize), idx);
            base = segHi;
        }
    }
};

/** Create the function's library files in the shared root FS. */
void installFunctionFiles(os::Vfs &vfs, const FunctionSpec &spec);

/** Per-invocation measurements. */
struct InvocationResult
{
    sim::SimTime latency;
    uint64_t faults = 0;          ///< All kinds.
    uint64_t cowFaults = 0;       ///< Local + CXL CoW.
    uint64_t migrateFaults = 0;   ///< Migrate-on-access copies.
    uint64_t missesLocal = 0;     ///< LLC misses served by local DRAM.
    uint64_t missesCxl = 0;       ///< LLC misses served by CXL.
};

/** A running instance of a function on one node. */
class FunctionInstance
{
  public:
    /**
     * Cold-start deployment: create the process, map the layout, run
     * the initialization phase (populates every segment).
     */
    static std::unique_ptr<FunctionInstance>
    deployCold(os::NodeOs &node, const FunctionSpec &spec,
               const os::NamespaceSet *container = nullptr);

    /** Wrap a task produced by a remote-fork restore. */
    static std::unique_ptr<FunctionInstance>
    adoptRestored(os::NodeOs &node, const FunctionSpec &spec,
                  std::shared_ptr<os::Task> task);

    /** Execute one request. */
    InvocationResult invoke();

    /**
     * Execute one request with the node's fault stream recorded into
     * `sink` (installed for exactly this invocation, removed on exit —
     * including the unwind path). The working-set predictor trains on
     * the captured trace; the invocation itself is unchanged.
     */
    InvocationResult invokeTraced(os::FaultTraceSink &sink);

    os::Task &task() { return *task_; }
    os::NodeOs &node() { return node_; }
    const FunctionSpec &spec() const { return spec_; }
    const FunctionLayout &layout() const { return layout_; }
    uint64_t invocations() const { return invocations_; }

    /** Local memory this instance consumes on its node. */
    uint64_t localBytes() const { return task_->mm().localFootprintBytes(); }

    /** Bytes it maps directly from the CXL tier. */
    uint64_t cxlBytes() const { return task_->mm().cxlMappedBytes(); }

    /** Tear down the process (frees its memory). */
    void destroy();

  private:
    FunctionInstance(os::NodeOs &node, FunctionSpec spec,
                     std::shared_ptr<os::Task> task)
        : node_(node), spec_(std::move(spec)),
          layout_(FunctionLayout::compute(spec_)), task_(std::move(task))
    {}

    void runInit();

    os::NodeOs &node_;
    FunctionSpec spec_;
    FunctionLayout layout_;
    std::shared_ptr<os::Task> task_;
    uint64_t invocations_ = 0;
    bool cacheWarm_ = false;
};

} // namespace cxlfork::faas
