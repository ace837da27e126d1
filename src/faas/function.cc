#include "function.hh"

#include <algorithm>

#include "sim/log.hh"

namespace cxlfork::faas {

using mem::kPageSize;
using os::SegClass;
using sim::SimTime;

namespace {

constexpr uint64_t kLayoutBase = 0x5555'0000'0000ull;
constexpr uint64_t kSegmentGap = 1ull << 21; // 2 MB between segments

uint64_t
mix(uint64_t a, uint64_t b)
{
    uint64_t z = a ^ (b + 0x9e3779b97f4a7c15ull + (a << 6) + (a >> 2));
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

} // namespace

uint64_t
FunctionSpec::initBytes() const
{
    return uint64_t(double(footprintBytes) * initFrac);
}

uint64_t
FunctionSpec::roBytes() const
{
    return uint64_t(double(footprintBytes) * roFrac);
}

uint64_t
FunctionSpec::rwBytes() const
{
    return footprintBytes - initBytes() - roBytes();
}

uint64_t
FunctionSpec::libBytes() const
{
    return uint64_t(double(initBytes()) * libFracOfInit);
}

uint64_t
FunctionSpec::effectiveWorkingSet() const
{
    const uint64_t cap = roBytes() + rwBytes();
    return std::clamp(workingSetBytes, rwBytes(), cap);
}

uint64_t
FunctionSpec::codeBytes() const
{
    return std::min<uint64_t>(mem::mib(3), initBytes() / 10);
}

uint64_t
FunctionSpec::pageToken(SegClass seg, uint64_t pageIdx,
                        uint64_t version) const
{
    return mix(mix(seed, uint64_t(seg) + 1), pageIdx * 1315423911ull + version);
}

FunctionLayout
FunctionLayout::compute(const FunctionSpec &spec)
{
    FunctionLayout layout;
    uint64_t cursor = kLayoutBase;

    auto place = [&](SegClass seg, os::VmaKind kind, uint64_t totalPages,
                     uint32_t count, const std::string &pathFmt) {
        if (totalPages == 0)
            return;
        count = std::max<uint32_t>(1, count);
        count = uint32_t(std::min<uint64_t>(count, totalPages));
        const uint64_t per = totalPages / count;
        uint64_t placed = 0;
        for (uint32_t i = 0; i < count; ++i) {
            const uint64_t pages =
                (i + 1 == count) ? totalPages - placed : per;
            if (pages == 0)
                continue;
            Segment s;
            s.seg = seg;
            s.kind = kind;
            s.start = mem::VirtAddr{cursor};
            s.pages = pages;
            if (kind == os::VmaKind::FilePrivate)
                s.filePath = sim::format(pathFmt.c_str(), i);
            layout.segments.push_back(std::move(s));
            cursor += pages * kPageSize + kSegmentGap;
            placed += pages;
        }
    };

    // Library mappings dominate the VMA count (Python-style runtimes).
    const auto libVmas = uint32_t(double(spec.vmaCount) * 0.60);
    const auto initVmas = uint32_t(double(spec.vmaCount) * 0.20);
    const auto roVmas = uint32_t(double(spec.vmaCount) * 0.15);
    const auto rwVmas = std::max<uint32_t>(
        1, spec.vmaCount - libVmas - initVmas - roVmas);

    place(SegClass::Init, os::VmaKind::FilePrivate,
          mem::pagesFor(spec.libBytes()), libVmas,
          "/opt/faas/" + spec.name + "/lib%03u.so");
    place(SegClass::Init, os::VmaKind::Anon,
          mem::pagesFor(spec.initAnonBytes()), initVmas, "");
    place(SegClass::ReadOnly, os::VmaKind::Anon,
          mem::pagesFor(spec.roBytes()), roVmas, "");
    place(SegClass::ReadWrite, os::VmaKind::Anon,
          mem::pagesFor(spec.rwBytes()), rwVmas, "");
    return layout;
}

uint64_t
FunctionLayout::pagesOf(SegClass seg) const
{
    uint64_t total = 0;
    for (const Segment &s : segments) {
        if (s.seg == seg)
            total += s.pages;
    }
    return total;
}

void
installFunctionFiles(os::Vfs &vfs, const FunctionSpec &spec)
{
    const FunctionLayout layout = FunctionLayout::compute(spec);
    for (const auto &s : layout.segments) {
        if (s.kind == os::VmaKind::FilePrivate &&
            !vfs.exists(s.filePath)) {
            vfs.create(s.filePath, s.pages * kPageSize,
                       mix(spec.seed, std::hash<std::string>()(s.filePath)));
        }
    }
    const std::string cfg = "/opt/faas/" + spec.name + "/config.json";
    if (!vfs.exists(cfg))
        vfs.create(cfg, 4096, mix(spec.seed, 0xc0ffee));
}

std::unique_ptr<FunctionInstance>
FunctionInstance::deployCold(os::NodeOs &node, const FunctionSpec &spec,
                             const os::NamespaceSet *container)
{
    installFunctionFiles(node.vfs(), spec);
    auto task = node.createTask(spec.name, container);
    auto inst = std::unique_ptr<FunctionInstance>(
        new FunctionInstance(node, spec, std::move(task)));

    for (const auto &s : inst->layout_.segments) {
        os::Vma vma;
        vma.start = s.start;
        vma.end = s.start.plus(s.pages * kPageSize);
        vma.kind = s.kind;
        vma.filePath = s.filePath;
        vma.name = s.filePath.empty()
                       ? sim::format("[%s:%s]", spec.name.c_str(),
                                     s.seg == SegClass::Init ? "init"
                                     : s.seg == SegClass::ReadOnly ? "ro"
                                                                   : "rw")
                       : s.filePath;
        vma.segClass = s.seg;
        // Library text is read-only; data segments are writable.
        vma.perms = (s.kind == os::VmaKind::FilePrivate)
                        ? uint8_t(os::kVmaRead | os::kVmaExec)
                        : uint8_t(os::kVmaRead | os::kVmaWrite);
        node.mapVma(inst->task(), std::move(vma));
    }

    // Open the descriptors a warm function holds.
    os::File cfgFile;
    cfgFile.inode = node.vfs().lookup("/opt/faas/" + spec.name +
                                      "/config.json");
    CXLF_ASSERT(cfgFile.inode != nullptr);
    inst->task().fds().installFile(std::move(cfgFile));
    inst->task().fds().installSocket(os::Socket{"gateway:8080"});

    inst->runInit();
    return inst;
}

std::unique_ptr<FunctionInstance>
FunctionInstance::adoptRestored(os::NodeOs &node, const FunctionSpec &spec,
                                std::shared_ptr<os::Task> task)
{
    return std::unique_ptr<FunctionInstance>(
        new FunctionInstance(node, spec, std::move(task)));
}

void
FunctionInstance::runInit()
{
    // The runtime boot + model/weights load phase (Fig. 6 State Init).
    node_.clock().advance(spec_.stateInitTime);

    // Populate the address space: map libraries in (reads through the
    // FS), construct init/read-only/read-write data (writes).
    for (const auto &s : layout_.segments) {
        const bool isLib = s.kind == os::VmaKind::FilePrivate;
        for (uint64_t i = 0; i < s.pages; ++i) {
            const mem::VirtAddr va = s.start.plus(i * kPageSize);
            if (isLib) {
                node_.access(*task_, va, false);
            } else {
                node_.access(*task_, va, true,
                             spec_.pageToken(s.seg, i, 0));
            }
        }
    }
    cacheWarm_ = false;
}

InvocationResult
FunctionInstance::invokeTraced(os::FaultTraceSink &sink)
{
    // RAII uninstall: the sink must come off even if the invocation
    // throws (capacity, poison), or the node would keep feeding a
    // recorder whose owner already unwound.
    struct SinkScope
    {
        os::NodeOs &node;
        explicit SinkScope(os::NodeOs &n, os::FaultTraceSink &s) : node(n)
        {
            node.setFaultSink(&s);
        }
        ~SinkScope() { node.setFaultSink(nullptr); }
    } scope(node_, sink);
    return invoke();
}

InvocationResult
FunctionInstance::invoke()
{
    InvocationResult out;
    const SimTime start = node_.clock().now();
    const mem::CacheModel &llc = node_.machine().llc(node_.id());
    const sim::CostParams &costs = node_.machine().costs();

    const uint64_t rwPages = layout_.pagesOf(SegClass::ReadWrite);
    const uint64_t wsPages = mem::pagesFor(spec_.effectiveWorkingSet());
    const uint64_t roWsPages =
        std::min(wsPages > rwPages ? wsPages - rwPages : 0,
                 layout_.pagesOf(SegClass::ReadOnly));

    const uint64_t codePages = mem::pagesFor(spec_.codeBytes());

    uint64_t pagesLocal = 0;
    uint64_t pagesCxl = 0;
    auto account = [&](const os::AccessResult &r) {
        if (r.fault != os::FaultKind::None)
            ++out.faults;
        if (r.fault == os::FaultKind::CowLocal ||
            r.fault == os::FaultKind::CowCxl) {
            ++out.cowFaults;
        }
        if (r.fault == os::FaultKind::CxlMigrate)
            ++out.migrateFaults;
        if (r.tier == mem::Tier::Cxl)
            ++pagesCxl;
        else
            ++pagesLocal;
    };

    // Execute the runtime/library text (the head of the Init segment,
    // where the library mappings live).
    layout_.forEachPage(SegClass::Init, codePages,
                        [&](mem::VirtAddr va, uint64_t) {
                            account(node_.access(*task_, va, false));
                        });

    // Read the hot read-only data: a stable prefix (runtime structures
    // every request uses) plus an input-dependent window that rotates
    // across invocations, so 128 different requests cover most of the
    // read-only segment (paper Fig. 1 methodology).
    const uint64_t stablePages = roWsPages * 4 / 5;
    const uint64_t rotatingPages = roWsPages - stablePages;
    layout_.forEachPage(SegClass::ReadOnly, stablePages,
                        [&](mem::VirtAddr va, uint64_t) {
                            account(node_.access(*task_, va, false));
                        });
    if (rotatingPages > 0) {
        const uint64_t roTotal = layout_.pagesOf(SegClass::ReadOnly);
        const uint64_t rotStart =
            roTotal > stablePages
                ? stablePages +
                      (invocations_ * rotatingPages) %
                          std::max<uint64_t>(1, roTotal - stablePages)
                : 0;
        layout_.forEachPageWrapped(SegClass::ReadOnly, rotStart,
                                   rotatingPages,
                                   [&](mem::VirtAddr va, uint64_t) {
                                       account(node_.access(*task_, va,
                                                            false));
                                   });
    }
    // Write the mutable state.
    const uint64_t version = invocations_ + 1;
    layout_.forEachPage(
        SegClass::ReadWrite, rwPages, [&](mem::VirtAddr va, uint64_t idx) {
            account(node_.access(
                *task_, va, true,
                spec_.pageToken(SegClass::ReadWrite, idx, version)));
        });

    // Memory access time through the cache hierarchy. Misses overlap
    // (memory-level parallelism), so they are charged at throughput
    // cost, not serialized round trips.
    const uint64_t wsBytes = (codePages + roWsPages + rwPages) * kPageSize;
    const auto loads =
        uint64_t(double(wsBytes / mem::kCachelineSize) * spec_.wsReuse);
    const bool fits = double(wsBytes) <= llc.effectiveCapacity();
    uint64_t misses = 0;
    if (fits && cacheWarm_) {
        // Cache retains the stable working set; only the rotating
        // input-dependent window streams in cold.
        misses = mem::CacheModel::coldMisses(rotatingPages * kPageSize);
    } else {
        misses = llc.missesFor(wsBytes, loads);
    }
    const uint64_t touched = pagesLocal + pagesCxl;
    const double fracCxl =
        touched ? double(pagesCxl) / double(touched) : 0.0;
    out.missesCxl = uint64_t(double(misses) * fracCxl);
    out.missesLocal = misses - out.missesCxl;
    node_.clock().advance(
        costs.missStreamCost(out.missesCxl, costs.cxlLatency) +
        costs.missStreamCost(out.missesLocal, costs.dramLatency));
    node_.clock().advance(spec_.computeTime);

    cacheWarm_ = fits;
    ++invocations_;
    out.latency = node_.clock().now() - start;
    return out;
}

void
FunctionInstance::destroy()
{
    node_.exitTask(task_);
    task_.reset();
}

} // namespace cxlfork::faas
