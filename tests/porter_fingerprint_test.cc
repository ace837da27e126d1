/**
 * @file
 * Pins the exact PorterMetrics of CXLporter runs across commits.
 *
 * Each config below runs one fixed bursty trace through a fresh
 * PorterSim, and every metrics field (the counters, the peaks,
 * completedRps, and every latency sample of the aggregate and
 * per-function histograms, in completion order) is folded into an
 * FNV-1a hash that is compared with a recorded value. The configs
 * reach the paths perfbench and the Fig. 10 golden never do: two-core
 * nodes that queue for cores, memory scale 0.25, a 2 s keep-alive,
 * dedup accounting with checkpoint reclaims, and node crashes plus
 * transient and torn restores. An event-loop refactor that moves one
 * dispatch, one eviction or one RNG draw fails here.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>

#include "porter/autoscaler.hh"
#include "porter/trace.hh"

#include "porter_test_util.hh"

#include "porter_test_util.hh"

namespace cxlfork::porter {
namespace {

using sim::SimTime;

/** FNV-1a over the little-endian bytes of each folded field. */
class Fingerprint
{
  public:
    void
    add(uint64_t v)
    {
        for (int i = 0; i < 64; i += 8)
            h_ = (h_ ^ ((v >> i) & 0xff)) * 0x100000001b3ull;
    }
    void add(double d) { add(std::bit_cast<uint64_t>(d)); }
    void
    add(const std::string &s)
    {
        add(uint64_t(s.size()));
        for (char c : s)
            h_ = (h_ ^ uint8_t(c)) * 0x100000001b3ull;
    }
    void
    add(const sim::Histogram &h)
    {
        add(uint64_t(h.samples().size()));
        for (double v : h.samples())
            add(v);
    }
    uint64_t value() const { return h_; }

  private:
    uint64_t h_ = 0xcbf29ce484222325ull;
};

uint64_t
fingerprint(const PorterMetrics &m)
{
    Fingerprint f;
    for (uint64_t v :
         {m.requests, m.warmHits, m.restores, m.coldStarts, m.ghostHits,
          m.evictions, m.queuedForMemory, m.queuedForCores,
          m.tieringPromotions, m.abitResets, m.checkpointsTaken,
          m.checkpointsReclaimed, m.peakCxlBytes, m.peakMemBytes,
          m.nodeCrashes, m.nodeRecoveries, m.lostInstances,
          m.restoreFailovers, m.restoreRetries, m.corruptRestores,
          m.degradedColdStarts})
        f.add(v);
    f.add(m.completedRps);
    f.add(m.latency);
    f.add(uint64_t(m.perFunction.size()));
    for (const auto &[name, h] : m.perFunction) {
        f.add(name);
        f.add(h);
    }
    return f.value();
}

faas::FunctionSpec
spec(const std::string &name, uint64_t mib, double computeMs)
{
    faas::FunctionSpec s;
    s.name = name;
    s.footprintBytes = mem::mib(mib);
    s.workingSetBytes = mem::mib(2);
    s.wsReuse = 4;
    s.computeTime = SimTime::ms(computeMs);
    s.stateInitTime = SimTime::ms(100);
    s.vmaCount = 12;
    s.seed = 0xf1a9u + mib;
    return s;
}

/** What each pinned run changes on top of the shared base config. */
enum class Variant {
    Dynamic,
    StaticMow,
    MemScaleQuarter,
    KeepAlive2s,
    DedupReclaim,
    Faults,
};

PorterConfig
configFor(Mechanism mech, Variant v)
{
    PorterConfig cfg; // the shared base config
    cfg.mechanism = mech;
    cfg.numNodes = 2;
    cfg.coresPerNode = 2; // bursts queue for cores
    cfg.memPerNodeBytes = mem::mib(320);
    cfg.checkpointAfterInvocations = 4;
    switch (v) {
    case Variant::Dynamic:
        break;
    case Variant::StaticMow:
        cfg.dynamicTiering = false;
        break;
    case Variant::MemScaleQuarter:
        cfg.memoryScale = 0.25;
        break;
    case Variant::KeepAlive2s:
        cfg.keepAlive = SimTime::sec(2);
        break;
    case Variant::DedupReclaim:
        cfg.dedupCapacity = true;
        cfg.cxlCapacityBytes = mem::mib(48);
        break;
    case Variant::Faults:
        cfg.faults.seed = 0x5eedu;
        cfg.faults.nodeMtbf = SimTime::sec(15);
        cfg.faults.nodeRecovery = SimTime::sec(4);
        cfg.faults.transientRestoreRate = 0.2;
        cfg.faults.corruptRestoreRate = 0.15;
        cfg.keepAlive = SimTime::sec(5);
        break;
    }
    return cfg;
}

struct Pinned
{
    const char *name;
    Mechanism mech;
    Variant variant;
    uint64_t value;
};

class PorterFingerprint : public ::testing::TestWithParam<Pinned>
{
  protected:
    static PerfModel &
    perf()
    {
        static PerfModel model;
        return model;
    }
};

TEST_P(PorterFingerprint, MetricsMatchRecorded)
{
    const Pinned &p = GetParam();
    const std::vector<faas::FunctionSpec> fns{
        spec("a", 24, 10), spec("b", 40, 25), spec("c", 16, 5),
        spec("d", 32, 60)};
    TraceConfig tc;
    tc.totalRps = 40;
    tc.duration = SimTime::sec(60);
    tc.seed = 0x77u;
    const std::vector<Request> trace =
        TraceGenerator({"a", "b", "c", "d", "a"}, tc).generate();

    PorterSim sim(configFor(p.mech, p.variant), fns, perf());
    const PorterMetrics m = runAudited(sim, trace);
    EXPECT_EQ(m.latency.count(), trace.size());
    EXPECT_EQ(fingerprint(m), p.value)
        << std::hex << "0x" << fingerprint(m) << std::dec
        << " warm " << m.warmHits << " restores " << m.restores
        << " cold " << m.coldStarts << " coreQ " << m.queuedForCores
        << " memQ " << m.queuedForMemory << " evict " << m.evictions
        << " ckpt " << m.checkpointsTaken << " reclaim "
        << m.checkpointsReclaimed << " crash " << m.nodeCrashes
        << " lost " << m.lostInstances << " failover "
        << m.restoreFailovers << " retry " << m.restoreRetries
        << " torn " << m.corruptRestores << " promo "
        << m.tieringPromotions;
}

INSTANTIATE_TEST_SUITE_P(
    Configs, PorterFingerprint,
    ::testing::Values(
        Pinned{"CxlForkDynamic", Mechanism::CxlFork, Variant::Dynamic,
               0x01b9d80bf47461fb},
        Pinned{"CxlForkStaticMow", Mechanism::CxlFork, Variant::StaticMow,
               0xee039ebadfd7942f},
        Pinned{"CriuDynamic", Mechanism::CriuCxl, Variant::Dynamic,
               0x33e3cf10ed41df2b},
        Pinned{"CriuStaticMow", Mechanism::CriuCxl, Variant::StaticMow,
               0x33e3cf10ed41df2b},
        Pinned{"MitosisDynamic", Mechanism::MitosisCxl, Variant::Dynamic,
               0x04007d9fa985900f},
        Pinned{"MitosisStaticMow", Mechanism::MitosisCxl,
               Variant::StaticMow, 0x04007d9fa985900f},
        Pinned{"CxlForkMemScaleQuarter", Mechanism::CxlFork,
               Variant::MemScaleQuarter, 0x46d03d34907191f5},
        Pinned{"CxlForkKeepAlive2s", Mechanism::CxlFork,
               Variant::KeepAlive2s, 0xf7eba21bce379c87},
        Pinned{"CxlForkDedupReclaim", Mechanism::CxlFork,
               Variant::DedupReclaim, 0xf583ba139e5aabe2},
        Pinned{"CxlForkFaults", Mechanism::CxlFork, Variant::Faults,
               0xe37ef1e54d3a0ed7},
        // Re-recorded when released and crashed Mitosis checkpoints
        // began returning their shadow copies' node memory (was
        // 0x9d2b50b03c1b66a6, with 1,235 of 2,169 requests stuck in
        // the memory queue for good).
        Pinned{"MitosisFaults", Mechanism::MitosisCxl, Variant::Faults,
               0x516fe4621f0520a0}),
    [](const ::testing::TestParamInfo<Pinned> &info) {
        return std::string(info.param.name);
    });

} // namespace
} // namespace cxlfork::porter
