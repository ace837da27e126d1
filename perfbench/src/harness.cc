#include "harness.hh"

#include <algorithm>
#include <cstdio>
#include <ctime>
#include <fstream>

#include "porter/cluster.hh"

namespace perfbench {

double
threadCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

ReferenceKernel::ReferenceKernel() : next_(1u << 20)
{
    // One random cycle through every slot (Sattolo's algorithm), so the
    // chase visits the whole array in an order the prefetcher cannot
    // follow.
    for (uint32_t i = 0; i < next_.size(); ++i)
        next_[i] = i;
    uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (uint32_t i = uint32_t(next_.size()) - 1; i > 0; --i) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        std::swap(next_[i], next_[(x >> 33) % i]);
    }
    for (uint64_t i = 0; i < 16384; ++i)
        map_[i * 2654435761u] = i;
}

double
ReferenceKernel::run()
{
    const double t0 = threadCpuSeconds();
    uint32_t p = uint32_t(cursor_ % next_.size());
    for (int i = 0; i < 20000; ++i)
        p = next_[p];
    uint64_t x = cursor_ + p;
    for (int i = 0; i < 2000; ++i) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        const uint64_t key = ((x >> 33) % 16384) * 2654435761u;
        const auto it = map_.find(key);
        const uint64_t v = it == map_.end() ? 0 : it->second;
        map_.erase(key);
        map_[key] = v + 1;
    }
    cursor_ = x;
    return threadCpuSeconds() - t0;
}

void
ChunkTimer::lap(uint64_t ops)
{
    const double chunk = threadCpuSeconds() - last_;
    timed_ += chunk;
    const double scale = kernel_.run() / ReferenceKernel::kReferenceSeconds;
    out_.chunkOpsPerS.push_back(double(ops) / chunk * scale);
    last_ = threadCpuSeconds();
}

void
Checks::expect(bool ok, const char *name, const std::string &detail)
{
    if (ok)
        return;
    out_.failedChecks.push_back(name);
    std::fprintf(stderr, "check failed: %s: %s\n", name, detail.c_str());
}

// --- Ledger.

Ledger::Scope::Scope(Entry &e, os::NodeOs &node, std::string_view layer)
    : e_(e),
      span_(node.machine().tracer().span(node.clock(), node.id(), layer,
                                         layer)),
      clock_(&node.clock()), sim0_(node.clock().now()),
      host0_(threadCpuSeconds())
{}

Ledger::Scope::~Scope()
{
    e_.hostS += threadCpuSeconds() - host0_;
    ++e_.calls;
    if (clock_)
        e_.simNs += (clock_->now() - sim0_).toNs();
}

Ledger::Entry &
Ledger::entry(std::string_view layer)
{
    auto it = entries_.find(layer);
    if (it == entries_.end())
        it = entries_.emplace(std::string(layer), Entry{}).first;
    return it->second;
}

void
Ledger::exportTo(MetricMap &layer) const
{
    for (const auto &[name, e] : entries_) {
        layer[name + ".calls"] = double(e.calls);
        layer[name + ".host_ms"] = e.hostS * 1e3;
        layer[name + ".sim_ms"] = e.simNs / 1e6;
    }
}

uint64_t
Ledger::calls(std::string_view layer) const
{
    auto it = entries_.find(layer);
    return it == entries_.end() ? 0 : it->second.calls;
}

double
Ledger::hostMs(std::string_view layer) const
{
    auto it = entries_.find(layer);
    return it == entries_.end() ? 0.0 : it->second.hostS * 1e3;
}

// --- SpanFolder.

void
SpanFolder::fold(sim::Tracer &tracer, const std::string &chromePath)
{
    const std::vector<sim::TraceSpan> &spans = tracer.spans();
    if (spans.empty())
        return;
    if (!chromeWritten_ && !chromePath.empty()) {
        std::ofstream out(chromePath);
        out << tracer.toChromeJson();
        if (!out) {
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         chromePath.c_str());
        }
        chromeWritten_ = true;
    }
    std::vector<std::vector<uint32_t>> kids(spans.size());
    for (uint32_t i = 0; i < spans.size(); ++i) {
        if (spans[i].parent != sim::TraceSpan::kNoParent)
            kids.at(spans[i].parent).push_back(i);
    }
    std::vector<std::pair<double, double>> cover;
    for (uint32_t i = 0; i < spans.size(); ++i) {
        const sim::TraceSpan &s = spans[i];
        if (s.open)
            continue;
        const double lo = s.begin.toNs();
        const double hi = s.end.toNs();
        cover.clear();
        for (uint32_t k : kids[i]) {
            const double a = std::max(lo, spans[k].begin.toNs());
            const double b = std::min(hi, spans[k].end.toNs());
            if (b > a)
                cover.emplace_back(a, b);
        }
        std::sort(cover.begin(), cover.end());
        double covered = 0.0;
        double reach = lo;
        for (const auto &[a, b] : cover) {
            const double from = std::max(a, reach);
            if (b > from) {
                covered += b - from;
                reach = b;
            }
        }
        selfMs_[s.category] += (hi - lo - covered) / 1e6;
    }
    spans_ += spans.size();
    tracer.clear();
}

void
SpanFolder::print(const std::string &title) const
{
    double total = 0.0;
    for (const auto &[cat, ms] : selfMs_)
        total += ms;
    std::printf("%s (simulated self time; %llu spans)\n", title.c_str(),
                (unsigned long long)spans_);
    for (const auto &[cat, ms] : selfMs_) {
        std::printf("  %-28s %14.3f ms %6.2f%%\n", cat.c_str(), ms,
                    total > 0.0 ? 100.0 * ms / total : 0.0);
    }
}

// --- CounterSnapshot.

namespace {

/** Registry counter -> per-layer metric, with a unit scale. */
struct CounterMap
{
    const char *src;
    const char *dst;
    double scale;
};

constexpr double kMiB = 1.0 / double(1 << 20);

const CounterMap kCounterMap[] = {
    {"os.fault.cow_cxl", "os.fault.cow_cxl", 1.0},
    {"os.fault.failed", "os.fault.failed", 1.0},
    {"os.tlb.shootdowns", "os.tlb.shootdowns", 1.0},
    {"os.pages.copied_from_cxl", "os.pages.copied_from_cxl", 1.0},
    {"mem.cxl.transactions", "mem.cxl.transactions", 1.0},
    {"mem.cxl.frame_reads", "mem.cxl.frame_reads", 1.0},
    {"mem.cxl.transient_retries", "mem.cxl.transient_retries", 1.0},
    {"mem.dram.frame_reads", "mem.dram.frame_reads", 1.0},
    {"cxl.dedup.hits", "cxl.dedup.hits", 1.0},
    {"cxl.dedup.unique", "cxl.dedup.unique", 1.0},
    {"cxl.dedup.bytes_saved", "cxl.dedup.bytes_saved_mb", kMiB},
    {"cxl.compress.pages", "cxl.compress.pages", 1.0},
    {"cxl.compress.bytes_stored", "cxl.compress.bytes_stored_mb", kMiB},
    {"cxl.compress.decompressions", "cxl.compress.decompressions", 1.0},
    {"cxl.compress.decompress_ns", "cxl.compress.decompress_sim_ms", 1e-6},
    {"cxl.ras.pages_scrubbed", "cxl.ras.pages_scrubbed", 1.0},
    {"cxl.ras.replicas_written", "cxl.ras.replicas_written", 1.0},
    {"cxl.ras.repairs", "cxl.ras.repairs", 1.0},
    {"cxl.ras.write_verify_failures", "cxl.ras.write_verify_failures", 1.0},
    {"cxl.coherence.lookups", "cxl.coherence.lookups", 1.0},
    {"cxl.coherence.invalidations", "cxl.coherence.invalidations", 1.0},
    {"cxl.coherence.writebacks", "cxl.coherence.writebacks", 1.0},
    {"cxl.coherence.tax_ns", "cxl.coherence.tax_sim_ms", 1e-6},
    {"cxl.partition.degraded_txns", "cxl.partition.degraded_txns", 1.0},
    {"cxl.partition.reroutes", "cxl.partition.reroutes", 1.0},
    {"cxl.contention.queued", "cxl.contention.queued", 1.0},
    {"cxl.contention.delay_ns", "cxl.contention.delay_sim_ms", 1e-6},
    {"cxl.contention.hol_blocks", "cxl.contention.hol_blocks", 1.0},
    {"cxl.image.crc_checks", "cxl.image.crc_checks", 1.0},
    {"cxl.fs.writes", "cxl.fs.writes", 1.0},
    {"cxl.fs.bytes_written", "cxl.fs.bytes_written_mb", kMiB},
    {"cxl.fs.crc_checks", "cxl.fs.crc_checks", 1.0},
};

} // namespace

CounterSnapshot::CounterSnapshot(mem::Machine &m)
{
    m.cxl().resetPeak();
    for (mem::NodeId n = 0; n < m.numNodes(); ++n)
        m.nodeDram(n).resetPeak();
    for (const auto &[name, c] : m.metrics().counters())
        counters_[name] = c.value();
    const sim::LatencyHistogram *f = m.metrics().findLatency("os.fault.ns");
    if (f) {
        faultCount_ = f->count();
        faultNs_ = f->sumNs();
    }
}

double
CounterSnapshot::delta(const mem::Machine &m, const std::string &name) const
{
    const auto it = counters_.find(name);
    const uint64_t before = it == counters_.end() ? 0 : it->second;
    return double(m.metrics().counterValue(name) - before);
}

void
CounterSnapshot::exportDeltas(const mem::Machine &m, MetricMap &layer) const
{
    for (const CounterMap &c : kCounterMap)
        layer[c.dst] = delta(m, c.src) * c.scale;
    const double hits = layer["cxl.dedup.hits"];
    const double unique = layer["cxl.dedup.unique"];
    layer["cxl.dedup.hit_ratio"] =
        hits + unique > 0.0 ? hits / (hits + unique) : 0.0;
    layer["cxl.contention.peak_inflight"] =
        m.metrics().gaugeValue("cxl.contention.peak_inflight");
    uint64_t peakFrames = m.cxl().peakUsedBytes() / mem::kPageSize;
    for (mem::NodeId n = 0; n < m.numNodes(); ++n)
        peakFrames += m.nodeDram(n).peakUsedBytes() / mem::kPageSize;
    layer["mem.frames.peak_used"] = double(peakFrames);
    const sim::LatencyHistogram *f = m.metrics().findLatency("os.fault.ns");
    layer["os.fault.count"] = f ? double(f->count() - faultCount_) : 0.0;
    layer["os.fault.sim_ms"] = f ? (f->sumNs() - faultNs_) / 1e6 : 0.0;
}

// --- Helpers.

void
putPercentiles(MetricMap &m, const std::string &stem,
               const sim::Histogram &ns)
{
    m[stem + ".p50"] = ns.p50() / 1e6;
    m[stem + ".p99"] = ns.p99() / 1e6;
}

std::vector<uint64_t>
frameCensus(const mem::Machine &m)
{
    std::vector<uint64_t> used{m.cxl().usedFrames()};
    for (mem::NodeId n = 0; n < m.numNodes(); ++n)
        used.push_back(m.nodeDram(n).usedFrames());
    return used;
}

std::pair<uint64_t, uint64_t>
compareImages(os::NodeOs &parentNode, os::Task &parent,
              os::NodeOs &childNode, os::Task &child, uint64_t skew)
{
    // Collect first: reads fault pages in and may touch the VMA tree.
    std::vector<mem::VirtAddr> pages;
    const os::PageTable &pt = parent.mm().pageTable();
    parent.mm().vmas().forEach([&](const os::Vma &vma) {
        for (uint64_t i = 0; i < vma.pageCount(); ++i) {
            const mem::VirtAddr va = vma.start.plus(i * mem::kPageSize);
            if (pt.lookup(va).present())
                pages.push_back(va);
        }
    });
    uint64_t bad = 0;
    for (mem::VirtAddr va : pages) {
        const uint64_t want = parentNode.read(parent, va) + skew;
        bad += childNode.read(child, va) != want;
    }
    return {pages.size(), bad};
}

void
auditTeardown(porter::Cluster &cluster, const std::vector<uint64_t> &baseline,
              Sabotage sabotage, Checks &checks)
{
    mem::Machine &m = cluster.machine();
    if (sabotage == Sabotage::ExtraFrame)
        m.nodeDram(0).alloc(mem::FrameUse::Data);

    const std::vector<uint64_t> now = frameCensus(m);
    std::string census;
    for (size_t i = 0; i < now.size(); ++i) {
        if (now[i] != baseline.at(i)) {
            census += " allocator " + std::to_string(i) + ": " +
                      std::to_string(baseline[i]) + " -> " +
                      std::to_string(now[i]);
        }
    }
    checks.expect(census.empty(), "frame_leak",
                  "frames in use differ from before the workload:" + census);

    std::vector<const mem::FrameAllocator *> allocs{&m.cxl()};
    for (mem::NodeId n = 0; n < m.numNodes(); ++n)
        allocs.push_back(&m.nodeDram(n));
    for (const mem::FrameAllocator *a : allocs) {
        const mem::FrameAudit audit = a->auditLive();
        checks.expect(audit.consistent, "frame_audit",
                      a->name() + ": " + audit.detail);
    }

    cxl::CxlFabric &fabric = cluster.fabric();
    const cxl::PageStoreAudit ps = fabric.pageStore().audit();
    checks.expect(ps.consistent, "page_store_audit", ps.detail);
    if (fabric.ras().enabled()) {
        const cxl::RasAudit ras = fabric.ras().audit();
        checks.expect(ras.consistent, "ras_audit", ras.detail);
    }
    if (cxl::CoherenceDirectory *dir = fabric.coherence()) {
        const std::optional<std::string> bad = dir->auditInvariants();
        checks.expect(!bad, "coherence_audit", bad.value_or(""));
    }
}

namespace {

/** Host-time metrics and tracer observations stay out of the digest. */
bool
simulated(const std::string &name)
{
    const auto endsWith = [&](const char *suffix) {
        const std::string s(suffix);
        return name.size() >= s.size() &&
               name.compare(name.size() - s.size(), s.size(), s) == 0;
    };
    return !endsWith(".host_ms") && !endsWith(".host_s") &&
           name.rfind("sim.trace.", 0) != 0;
}

} // namespace

uint64_t
simDigest(const Outcome &out)
{
    uint64_t h = 0xcbf29ce484222325ULL; // FNV-1a
    const auto feed = [&](const std::string &name, double v) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "=%.17g;", v);
        for (char c : name + buf) {
            h ^= uint8_t(c);
            h *= 0x100000001b3ULL;
        }
    };
    feed("attempted", double(out.attempted));
    feed("failed", double(out.failed));
    for (const auto &[name, v] : out.e2e) {
        if (name.rfind("sim_", 0) == 0 || name == "ok_frac")
            feed(name, v);
    }
    for (const auto &[name, v] : out.layer) {
        if (simulated(name))
            feed(name, v);
    }
    return h;
}

double
mean(const std::vector<double> &v)
{
    double s = 0.0;
    for (double x : v)
        s += x;
    return v.empty() ? 0.0 : s / double(v.size());
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t mid = v.size() / 2;
    return v.size() % 2 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

} // namespace perfbench
