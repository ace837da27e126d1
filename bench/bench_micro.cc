/**
 * @file
 * Microbenchmarks (google-benchmark): wall-clock cost of the library's
 * hot operations, plus a report of the *simulated* fault microcosts
 * against the paper's measurements (Sec. 4.2.1).
 */

#include <benchmark/benchmark.h>

#include "bench_util.hh"
#include "cxl/coherence.hh"
#include "cxl/page_store.hh"
#include "faas/workloads.hh"
#include "porter/autoscaler.hh"
#include "porter/trace.hh"
#include "proto/messages.hh"
#include "rfork/criu.hh"
#include "rfork/cxlfork.hh"
#include "rfork/mechanism.hh"
#include "sim/crc32.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"

namespace {

using namespace cxlfork;

// --- Simulated microcosts reported once, before the wall-time runs.

struct CostReport
{
    CostReport()
    {
        sim::CostParams c;
        sim::Table t("Simulated fault microcosts (paper Sec. 4.2.1)");
        t.setHeader({"Operation", "Simulated cost (us)", "Paper"});
        t.addRow({"Anonymous minor fault",
                  sim::Table::num(c.minorFault.toUs(), 2), "<1 us"});
        t.addRow({"CXL CoW fault", sim::Table::num(c.cxlCowFault().toUs(), 2),
                  "~2.5 us"});
        t.addRow({"  of which data movement",
                  sim::Table::num(c.cxlPageCopy().toUs(), 2), "~1.3 us"});
        t.addRow({"  of which TLB shootdown",
                  sim::Table::num(c.tlbShootdown.toUs(), 2), "~0.5 us"});
        t.addRow({"Local CoW fault",
                  sim::Table::num(c.localCowFault().toUs(), 2), "-"});
        t.addRow({"Mitosis remote fault (2 crossings)",
                  sim::Table::num((c.cxlAccessFault() + c.cxlWrite(4096) +
                                   c.cxlLatency).toUs(), 2),
                  "-"});
        t.print();
    }
};
CostReport reportOnce;

// --- Wall-clock microbenchmarks of the implementation.

void
BM_PageTableMapUnmap(benchmark::State &state)
{
    mem::Machine machine{mem::MachineConfig{}};
    sim::SimClock clock;
    os::PageTable pt(machine, machine.nodeDram(0), clock);
    const mem::PhysAddr frame =
        machine.nodeDram(0).alloc(mem::FrameUse::Data);
    uint64_t vpn = 0x5555'0000;
    for (auto _ : state) {
        const mem::VirtAddr va = mem::VirtAddr::fromPageNumber(vpn++);
        os::Pte p = os::Pte::make(frame, true);
        p.set(os::Pte::kSoftCxl); // do not release our frame on unmap
        pt.setPte(va, p);
        benchmark::DoNotOptimize(pt.lookup(va));
    }
}
BENCHMARK(BM_PageTableMapUnmap);

void
BM_PageTableLookup(benchmark::State &state)
{
    mem::Machine machine{mem::MachineConfig{}};
    sim::SimClock clock;
    os::PageTable pt(machine, machine.nodeDram(0), clock);
    const mem::PhysAddr frame =
        machine.nodeDram(0).alloc(mem::FrameUse::Data);
    for (uint64_t i = 0; i < 4096; ++i) {
        os::Pte p = os::Pte::make(frame, false);
        p.set(os::Pte::kSoftCxl);
        pt.setPte(mem::VirtAddr::fromPageNumber(i), p);
    }
    uint64_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            pt.lookup(mem::VirtAddr::fromPageNumber(i++ % 4096)));
    }
}
BENCHMARK(BM_PageTableLookup);

void
BM_FaultPathMinor(benchmark::State &state)
{
    porter::Cluster cluster(bench::benchClusterConfig());
    os::NodeOs &node = cluster.node(0);
    auto task = node.createTask("bm");
    os::Vma &vma = node.mapAnon(*task, mem::gib(2),
                                os::kVmaRead | os::kVmaWrite, "bm");
    uint64_t page = 0;
    for (auto _ : state) {
        node.access(*task, vma.start.plus(page * mem::kPageSize), true, 1);
        ++page;
        if (page >= vma.pageCount())
            state.SkipWithError("range exhausted");
    }
    state.SetItemsProcessed(int64_t(page));
}
BENCHMARK(BM_FaultPathMinor)->Iterations(100000);

/**
 * The same fault path with a trace recorder installed: the ns/op gap
 * against BM_FaultPathMinor is the whole price of the prefetcher's
 * fault-sink hook (one branch when disarmed, one vector push armed).
 */
void
BM_FaultPathTraced(benchmark::State &state)
{
    porter::Cluster cluster(bench::benchClusterConfig());
    os::NodeOs &node = cluster.node(0);
    auto task = node.createTask("bm");
    os::Vma &vma = node.mapAnon(*task, mem::gib(2),
                                os::kVmaRead | os::kVmaWrite, "bm");
    rfork::FaultTraceRecorder recorder;
    node.setFaultSink(&recorder);
    uint64_t page = 0;
    for (auto _ : state) {
        node.access(*task, vma.start.plus(page * mem::kPageSize), true, 1);
        ++page;
        if (page >= vma.pageCount())
            state.SkipWithError("range exhausted");
    }
    node.setFaultSink(nullptr);
    state.SetItemsProcessed(int64_t(page));
}
BENCHMARK(BM_FaultPathTraced)->Iterations(100000);

/** Batched pre-fault throughput: ns/op per prefetched anonymous page. */
void
BM_PrefetchBatchPage(benchmark::State &state)
{
    porter::Cluster cluster(bench::benchClusterConfig());
    os::NodeOs &node = cluster.node(0);
    auto task = node.createTask("bm");
    os::Vma &vma = node.mapAnon(*task, mem::gib(2),
                                os::kVmaRead | os::kVmaWrite, "bm");
    constexpr uint64_t kBatch = 512;
    std::vector<os::PrefetchRequest> reqs(kBatch);
    uint64_t page = 0;
    uint64_t populated = 0;
    for (auto _ : state) {
        state.PauseTiming();
        for (uint64_t i = 0; i < kBatch; ++i)
            reqs[i] = {vma.start.plus((page + i) * mem::kPageSize), true};
        page += kBatch;
        if (page >= vma.pageCount())
            state.SkipWithError("range exhausted");
        state.ResumeTiming();
        const os::PrefetchResult r = node.prefetchPages(*task, reqs);
        populated += r.mapped + r.copied;
        benchmark::DoNotOptimize(r);
    }
    state.SetItemsProcessed(int64_t(populated));
}
BENCHMARK(BM_PrefetchBatchPage)->Unit(benchmark::kMicrosecond)
    ->Iterations(200);

void
BM_CheckpointThroughput(benchmark::State &state)
{
    const auto spec = *faas::findWorkload("Json");
    for (auto _ : state) {
        state.PauseTiming();
        porter::Cluster cluster(bench::benchClusterConfig());
        auto parent = bench::deployWarmParent(cluster, spec, 1);
        rfork::CxlFork cxlf(cluster.fabric());
        state.ResumeTiming();
        auto handle = cxlf.checkpoint(cluster.node(0), parent->task());
        benchmark::DoNotOptimize(handle);
    }
}
BENCHMARK(BM_CheckpointThroughput)->Unit(benchmark::kMillisecond)
    ->Iterations(5);

void
BM_RestoreAttach(benchmark::State &state)
{
    const auto spec = *faas::findWorkload("Json");
    porter::Cluster cluster(bench::benchClusterConfig());
    auto parent = bench::deployWarmParent(cluster, spec, 1);
    rfork::CxlFork cxlf(cluster.fabric());
    auto handle = cxlf.checkpoint(cluster.node(0), parent->task());
    for (auto _ : state) {
        auto task = cxlf.restore(handle, cluster.node(1));
        benchmark::DoNotOptimize(task);
        state.PauseTiming();
        cluster.node(1).exitTask(task);
        state.ResumeTiming();
    }
}
BENCHMARK(BM_RestoreAttach)->Unit(benchmark::kMicrosecond)->Iterations(50);

/**
 * One mechanism's restore of a warm function's checkpoint onto another
 * node, every iteration from scratch: with `teardown` false it times
 * the restore (a CXLfork image's verify, attach and dirty prefetch; a
 * CRIU image's CRC and install loop, its decode paid by the first
 * iteration only), with `teardown` true the
 * exit that frees the clone's page table and frames.
 */
void
BM_MechanismRestore(benchmark::State &state, rfork::MechanismKind kind,
                    const char *function, bool teardown)
{
    const auto spec = *faas::findWorkload(function);
    porter::Cluster cluster(bench::benchClusterConfig());
    auto parent = bench::deployWarmParent(cluster, spec, 1);
    auto mech = rfork::makeMechanism(kind, cluster.fabric());
    auto handle = mech->checkpoint(cluster.node(0), parent->task());
    os::NodeOs &target = cluster.node(1);
    for (auto _ : state) {
        if (teardown)
            state.PauseTiming();
        auto task = mech->restore(handle, target);
        benchmark::DoNotOptimize(task);
        if (teardown)
            state.ResumeTiming();
        else
            state.PauseTiming();
        target.exitTask(task);
        task.reset();
        if (!teardown)
            state.ResumeTiming();
    }
}
BENCHMARK_CAPTURE(BM_MechanismRestore, cxlfork_rnn,
                  rfork::MechanismKind::CxlFork, "Rnn", false)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_MechanismRestore, criu_json,
                  rfork::MechanismKind::CriuCxl, "Json", false)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_MechanismRestore, criu_rnn,
                  rfork::MechanismKind::CriuCxl, "Rnn", false)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_MechanismRestore, criu_json_teardown,
                  rfork::MechanismKind::CriuCxl, "Json", true)
    ->Unit(benchmark::kMicrosecond);

// --- Per-restore integrity cost: every restore re-CRCs its image.

/** One page (a leaf block's size), and 64 KiB (a CRIU image's bulk). */
void
BM_Crc32Page(benchmark::State &state)
{
    std::vector<uint8_t> page(size_t(state.range(0)));
    for (size_t i = 0; i < page.size(); ++i)
        page[i] = uint8_t(i * 131 + 7);
    for (auto _ : state)
        benchmark::DoNotOptimize(sim::crc32(page.data(), page.size()));
    state.SetBytesProcessed(int64_t(state.iterations()) *
                            int64_t(page.size()));
}
BENCHMARK(BM_Crc32Page)->Arg(4096)->Arg(64 * 1024);

void
BM_ImageVerify(benchmark::State &state)
{
    const auto spec = *faas::findWorkload("Json");
    porter::Cluster cluster(bench::benchClusterConfig());
    auto parent = bench::deployWarmParent(cluster, spec, 1);
    rfork::CxlFork cxlf(cluster.fabric());
    auto image = rfork::CxlFork::image(
        cxlf.checkpoint(cluster.node(0), parent->task()));
    for (auto _ : state) {
        auto bad = image->verifyIntegrity();
        benchmark::DoNotOptimize(bad);
        if (bad) {
            state.SkipWithError(bad->c_str());
            break;
        }
    }
}
BENCHMARK(BM_ImageVerify)->Unit(benchmark::kMicrosecond);

// --- The event heap alone: one schedule plus one dispatch with 64k
// events pending. CXLporter's heap is far smaller: it holds only the
// in-flight completions and crash events, while arrivals and timers
// wait on sorted lanes.

void
BM_EventQueueChurn(benchmark::State &state)
{
    constexpr int kPending = 64 * 1024;
    sim::EventQueue q;
    sim::Rng rng(0xc4u);
    uint64_t fired = 0;
    auto delay = [&] { return sim::SimTime::us(double(rng.index(1000000))); };
    auto count = [&fired](sim::EventQueue::Event ev) { fired += ev.b; };
    for (int i = 0; i < kPending; ++i)
        q.schedule(delay(), {0, 0, 1});
    for (auto _ : state) {
        q.scheduleAfter(delay(), {0, 0, 1});
        q.step(count);
    }
    benchmark::DoNotOptimize(fired);
}
BENCHMARK(BM_EventQueueChurn);

// --- Porter trace generation alone: one of the traces the porter
// workload replays, eleven streams (the ten Table-1 functions and a
// second Float) at 150 RPS for 900 s, about 135k requests.

void
BM_TraceGenerate(benchmark::State &state)
{
    std::vector<std::string> streams{"Float"};
    for (const faas::WorkloadEntry &e : faas::table1Workloads())
        streams.push_back(e.spec.name);
    porter::TraceConfig tc;
    tc.totalRps = 150.0;
    tc.duration = sim::SimTime::sec(900);
    uint64_t requests = 0;
    for (auto _ : state) {
        const auto trace = porter::TraceGenerator(streams, tc).generate();
        requests += trace.size();
        benchmark::DoNotOptimize(trace.data());
    }
    state.SetItemsProcessed(int64_t(requests));
}
BENCHMARK(BM_TraceGenerate)->Unit(benchmark::kMillisecond);

// --- The porter event loop alone: PorterSim::run over one such trace,
// on the porter_trace cluster (CXLfork with dynamic tiering, two
// 32-core nodes at memory scale 0.5). The trace and every profile are
// built once, outside the timed loop; each iteration runs a fresh
// PorterSim.

void
BM_PorterRun(benchmark::State &state)
{
    std::vector<std::string> streams{"Float"};
    std::vector<faas::FunctionSpec> functions;
    for (const faas::WorkloadEntry &e : faas::table1Workloads()) {
        streams.push_back(e.spec.name);
        functions.push_back(e.spec);
    }
    porter::TraceConfig tc;
    tc.totalRps = 150.0;
    tc.duration = sim::SimTime::sec(900);
    const auto trace = porter::TraceGenerator(streams, tc).generate();

    porter::PorterConfig pc;
    pc.mechanism = porter::Mechanism::CxlFork;
    pc.dynamicTiering = true;
    pc.numNodes = 2;
    pc.coresPerNode = 32;
    pc.memPerNodeBytes = mem::gib(8);
    pc.memoryScale = 0.5;
    pc.cxlCapacityBytes = mem::gib(16);
    pc.dedupCapacity = false;
    porter::PerfModel perf;
    for (const faas::FunctionSpec &spec : functions) {
        for (os::TieringPolicy p : {os::TieringPolicy::MigrateOnWrite,
                                    os::TieringPolicy::Hybrid})
            perf.profile(spec, pc.mechanism, p);
    }

    uint64_t requests = 0;
    for (auto _ : state) {
        porter::PorterSim sim(pc, functions, perf);
        benchmark::DoNotOptimize(sim.run(trace).warmHits);
        requests += trace.size();
    }
    state.SetItemsProcessed(int64_t(requests));
}
BENCHMARK(BM_PorterRun)->Unit(benchmark::kMillisecond);

// --- The two draws trace generation makes: a raw 64-bit draw, and an
// exponential at the mean candidate gap of one such stream (0.022 s).

void
BM_RngRaw(benchmark::State &state)
{
    sim::Rng rng(1);
    for (auto _ : state)
        benchmark::DoNotOptimize(rng.raw());
    state.SetItemsProcessed(int64_t(state.iterations()));
}
BENCHMARK(BM_RngRaw);

void
BM_RngExponential(benchmark::State &state)
{
    sim::Rng rng(1);
    for (auto _ : state)
        benchmark::DoNotOptimize(rng.exponential(0.022));
    state.SetItemsProcessed(int64_t(state.iterations()));
}
BENCHMARK(BM_RngExponential);

// --- Hot-path micro-optimizations, measured A/B (DESIGN.md Sec. 8).

/** VPN-order PTE writes with the last-leaf walk cache on vs off. */
void
BM_WalkLeafCache(benchmark::State &state)
{
    mem::Machine machine{mem::MachineConfig{}};
    sim::SimClock clock;
    os::PageTable pt(machine, machine.nodeDram(0), clock);
    pt.setWalkCacheEnabled(state.range(0) != 0);
    const mem::PhysAddr frame =
        machine.nodeDram(0).alloc(mem::FrameUse::Data);
    uint64_t vpn = 0x1234'0000;
    for (auto _ : state) {
        os::Pte p = os::Pte::make(frame, true);
        p.set(os::Pte::kSoftCxl); // do not release our frame on unmap
        pt.setPte(mem::VirtAddr::fromPageNumber(vpn++), p);
    }
    state.SetItemsProcessed(int64_t(state.iterations()));
}
BENCHMARK(BM_WalkLeafCache)->Arg(0)->Arg(1);

/** Counter bump through a cached handle vs a by-name map lookup. */
void
BM_MetricCachedHandle(benchmark::State &state)
{
    sim::MetricsRegistry reg;
    sim::Counter *handle = &reg.counter("bm.hot.counter");
    for (auto _ : state) {
        handle->inc();
        benchmark::DoNotOptimize(handle);
    }
}
BENCHMARK(BM_MetricCachedHandle);

void
BM_MetricStringLookup(benchmark::State &state)
{
    sim::MetricsRegistry reg;
    reg.counter("bm.hot.counter");
    for (auto _ : state) {
        reg.counter("bm.hot.counter").inc();
        benchmark::DoNotOptimize(reg);
    }
}
BENCHMARK(BM_MetricStringLookup);

/** Physical-address tier/owner resolution (window arithmetic). */
void
BM_OwnerOf(benchmark::State &state)
{
    mem::MachineConfig cfg;
    cfg.numNodes = 4;
    mem::Machine machine{cfg};
    std::vector<mem::PhysAddr> addrs;
    for (uint32_t n = 0; n < cfg.numNodes; ++n)
        addrs.push_back(machine.nodeDram(n).alloc(mem::FrameUse::Data));
    addrs.push_back(machine.cxl().alloc(mem::FrameUse::Data));
    size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(machine.ownerOf(addrs[i % addrs.size()]));
        ++i;
    }
}
BENCHMARK(BM_OwnerOf);

void
BM_WireEncodeDecode(benchmark::State &state)
{
    proto::CriuImageMsg img;
    img.global.taskName = "bm";
    for (uint64_t i = 0; i < 10000; ++i)
        img.pages.push_back({i, i * 3});
    for (auto _ : state) {
        proto::Encoder e;
        img.encode(e);
        proto::Decoder d(e.buffer());
        benchmark::DoNotOptimize(proto::CriuImageMsg::decodeHeader(d));
        const uint64_t count = proto::decodePageCount(d);
        uint64_t sum = 0;
        for (uint64_t i = 0; i < count; ++i)
            sum += proto::PageMsg::decode(d).content;
        benchmark::DoNotOptimize(sum);
    }
    state.SetBytesProcessed(int64_t(state.iterations()) * 10000 * 16);
}
BENCHMARK(BM_WireEncodeDecode);

/**
 * Decode of a real Json CRIU-CXL image into runs checked against its
 * VMAs, as the first restore after each write of the image does.
 */
void
BM_CriuImageDecode(benchmark::State &state)
{
    const auto spec = *faas::findWorkload("Json");
    porter::Cluster cluster(bench::benchClusterConfig());
    auto parent = bench::deployWarmParent(cluster, spec, 1);
    rfork::CriuCxl criu(cluster.fabric());
    auto handle = std::dynamic_pointer_cast<rfork::CriuHandle>(
        criu.checkpoint(cluster.node(0), parent->task()));
    const cxl::CxlFsFile *file =
        cluster.fabric().sharedFs().open(handle->fileName());
    size_t pages = 0;
    rfork::CriuRecords records;
    for (auto _ : state) {
        records.decode(file->data);
        pages += records.contents().size();
        benchmark::DoNotOptimize(records.runs().data());
    }
    state.SetItemsProcessed(int64_t(pages));
    state.SetBytesProcessed(int64_t(state.iterations()) *
                            int64_t(file->data.size()));
}
BENCHMARK(BM_CriuImageDecode)->Unit(benchmark::kMicrosecond);

/**
 * Every opt-in layer armed as perfbench's checkpoint_churn arms them
 * (dedup + codec, RAS K=2, HDM-H, link degradation and transients at
 * 1e-4, the port queue), 8 nodes.
 */
porter::ClusterConfig
armedClusterConfig()
{
    porter::ClusterConfig cc;
    cc.machine.numNodes = 8;
    cc.machine.dramPerNodeBytes = mem::gib(1);
    cc.machine.cxlCapacityBytes = mem::gib(1);
    cc.machine.llcBytes = mem::mib(64);
    cc.machine.faults.seed = 1;
    cc.machine.faults.cxlTransientRate = 1e-4;
    cc.machine.faults.linkDegradeRate = 1e-4;
    cc.pageStore.dedup = true;
    cc.pageStore.compress = true;
    cc.ras.enabled = true;
    cc.ras.replicas = 2;
    cc.coherence.mode = cxl::CoherenceMode::HdmH;
    cc.link.enabled = true;
    cc.contention.enabled = true;
    return cc;
}

/**
 * One addressed read transaction with every layer armed: the link,
 * queue and retry work a checked CXL read pays. The issuing clock
 * moves on between transactions so the port drains.
 */
void
BM_ArmedCxlTransaction(benchmark::State &state)
{
    porter::Cluster cluster(armedClusterConfig());
    mem::Machine &machine = cluster.machine();
    std::vector<mem::PhysAddr> frames;
    for (uint64_t i = 0; i < 4096; ++i)
        frames.push_back(machine.cxl().alloc(mem::FrameUse::Data, i));
    sim::SimClock &clock = cluster.node(1).clock();
    size_t i = 0;
    for (auto _ : state) {
        machine.cxlTransaction(clock, "bm armed", 1,
                               frames[i++ % frames.size()],
                               /*isRead=*/true);
        clock.advance(sim::SimTime::ns(500));
    }
}
BENCHMARK(BM_ArmedCxlTransaction);

/**
 * A CRIU-style scan of a 6,000-frame image file with every layer
 * armed: per frame a checked read, a directory touch and an evict, as
 * each CRIU restore does. Items are frames.
 */
void
BM_ArmedImageScan(benchmark::State &state)
{
    constexpr uint64_t kPages = 6000;
    porter::Cluster cluster(armedClusterConfig());
    mem::Machine &machine = cluster.machine();
    sim::SimClock &writer = cluster.node(0).clock();
    std::vector<uint8_t> bytes(kPages * 16);
    for (size_t b = 0; b < bytes.size(); ++b)
        bytes[b] = uint8_t(b * 37 + b / 251);
    const cxl::CxlFsFile &file = cluster.fabric().sharedFs().write(
        "bm/image", std::move(bytes), kPages * mem::kPageSize, writer, 0);
    for (mem::PhysAddr f : file.frames)
        machine.publishFrame(f, 0, writer);
    sim::SimClock &clock = cluster.node(1).clock();
    for (auto _ : state) {
        for (mem::PhysAddr f : file.frames) {
            machine.readFrameChecked(f, clock, "criu image read", 1);
            machine.touchFrame(f, 1, clock, "criu image read");
            machine.evictFrame(f, 1, clock);
        }
    }
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            int64_t(file.frames.size()));
}
BENCHMARK(BM_ArmedImageScan)->Unit(benchmark::kMicrosecond);

/**
 * Refcount churn on a 64k-frame tier: per iteration one decRef frees
 * a live frame and one alloc takes it back, over a half-full tier.
 */
void
BM_FrameRefcount(benchmark::State &state)
{
    constexpr uint64_t kFrames = 64 * 1024;
    mem::FrameAllocator tier("bm", mem::Tier::LocalDram,
                             mem::PhysAddr{1ull << 30},
                             kFrames * mem::kPageSize);
    std::vector<mem::PhysAddr> live;
    for (uint64_t i = 0; i < kFrames / 2; ++i)
        live.push_back(tier.alloc(mem::FrameUse::Data, i));
    sim::Rng rng(0xf4a3u);
    std::vector<size_t> order(live.size());
    for (size_t &o : order)
        o = rng.index(live.size());
    size_t i = 0;
    for (auto _ : state) {
        mem::PhysAddr &slot = live[order[i++ % order.size()]];
        tier.incRef(slot);
        tier.decRef(slot);
        tier.decRef(slot);
        slot = tier.alloc(mem::FrameUse::Data, i);
        benchmark::DoNotOptimize(slot);
    }
    state.SetItemsProcessed(int64_t(state.iterations()));
}
BENCHMARK(BM_FrameRefcount);

/** A machine whose CXL device holds at least `frames` frames. */
mem::MachineConfig
deviceConfig(uint64_t frames)
{
    mem::MachineConfig cfg;
    cfg.numNodes = 2;
    cfg.dramPerNodeBytes = mem::mib(16);
    cfg.cxlCapacityBytes = 2 * frames * mem::kPageSize;
    cfg.llcBytes = mem::mib(1);
    return cfg;
}

/**
 * The HDM-H directory's restore/teardown cycle over 16k lines: per
 * iteration two nodes read a line (Exclusive, then Shared), one evicts
 * it (back to Exclusive) and the frame's free resets the line.
 */
void
BM_CoherenceEvictCycle(benchmark::State &state)
{
    constexpr uint64_t kLines = 16 * 1024;
    mem::Machine machine(deviceConfig(kLines));
    cxl::CoherenceConfig cfg;
    cfg.mode = cxl::CoherenceMode::HdmH;
    cxl::CoherenceDirectory dir(machine, cfg);
    std::vector<mem::PhysAddr> lines;
    for (uint64_t i = 0; i < kLines; ++i)
        lines.push_back(machine.cxl().alloc(mem::FrameUse::Data, i));
    sim::Rng rng(0xc0e4u);
    rng.shuffle(lines);
    sim::SimClock clock;
    size_t i = 0;
    for (auto _ : state) {
        const mem::PhysAddr a = lines[i++ % kLines];
        benchmark::DoNotOptimize(dir.read(a, 0, i, clock, "bm"));
        benchmark::DoNotOptimize(dir.read(a, 1, i, clock, "bm"));
        dir.evict(a, 0, clock);
        dir.lineFreed(a);
    }
    benchmark::DoNotOptimize(dir.trackedLines());
    state.SetItemsProcessed(int64_t(state.iterations()));
}
BENCHMARK(BM_CoherenceEvictCycle);

/**
 * Dedup + codec intern/release churn at a 50% hit rate: even
 * iterations intern the bytes of one of 4k resident pages (a hit),
 * odd ones a never-seen page that is indexed, compressed and then
 * freed again by its release.
 */
void
BM_PageStoreInternRelease(benchmark::State &state)
{
    constexpr uint64_t kResident = 4 * 1024;
    mem::Machine machine(deviceConfig(4 * kResident));
    cxl::PageStoreConfig cfg;
    cfg.dedup = true;
    cfg.compress = true;
    cxl::PageStore store(machine, cfg);
    sim::SimClock clock;
    sim::Rng rng(0x5107u);
    std::vector<uint64_t> resident;
    std::vector<mem::PhysAddr> held;
    for (uint64_t i = 0; i < kResident; ++i) {
        // Odd tokens; the misses below use even ones.
        resident.push_back(rng.index(uint64_t(1) << 62) << 1 | 1);
        held.push_back(
            store.intern(resident.back(), mem::FrameUse::Data, clock).addr);
    }
    rng.shuffle(resident);
    uint64_t fresh = uint64_t(1) << 63;
    size_t i = 0;
    for (auto _ : state) {
        const uint64_t content =
            i % 2 ? (fresh += 2) : resident[(i / 2) % kResident];
        ++i;
        const cxl::InternResult r =
            store.intern(content, mem::FrameUse::Data, clock);
        benchmark::DoNotOptimize(r);
        store.release(r.addr);
    }
    for (mem::PhysAddr a : held)
        store.release(a);
    state.SetItemsProcessed(int64_t(state.iterations()));
}
BENCHMARK(BM_PageStoreInternRelease);

/**
 * Console reporting plus one ns/op line per benchmark into
 * $CXLFORK_WALLCLOCK_JSON (the perfcmp input), alongside the whole-
 * bench wall-clock entries the macro benches emit via finishBench().
 */
class WallClockReporter : public benchmark::ConsoleReporter
{
  public:
    void
    ReportRuns(const std::vector<Run> &runs) override
    {
        ConsoleReporter::ReportRuns(runs);
        for (const Run &run : runs) {
            if (run.error_occurred || run.iterations == 0)
                continue;
            bench::appendWallClock("micro." + run.benchmark_name(),
                                   run.real_accumulated_time * 1e9 /
                                       double(run.iterations),
                                   "ns/op");
        }
    }
};

} // namespace

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    return bench::guardedMain("bench_micro", [] {
        WallClockReporter reporter;
        benchmark::RunSpecifiedBenchmarks(&reporter);
        return 0;
    });
}
