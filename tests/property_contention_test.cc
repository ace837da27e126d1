/**
 * @file
 * Seeded shadow-queue fuzz over the fabric queue model.
 *
 * A from-scratch shadow reimplementation of the lane semantics —
 * Lindley recursion, FIFO retirement, cross-stream-only charging, HoL
 * accounting, background residual — is driven in lockstep with the
 * real FabricQueueModel through thousands of randomized transactions:
 * N nodes with independently advancing clocks, random burst sizes,
 * domains, lanes and payloads, unattributed device traffic, and a
 * sprinkle of crash/partition events (a node's stream goes silent; the
 * fabric idles out and drains). After every operation the fuzzer
 * checks, against the shadow:
 *
 *   - the charged clock delta (bit-exact, it is pure double math),
 *   - the queued / delay_ns / hol_blocks counters,
 *   - conservation: enqueued == departed + inFlight, always,
 *   - per-lane horizon monotonicity: busyUntil never runs backward,
 *   - drain leaves zero in-flight and retires each txn exactly once.
 *
 * Every failure message carries the seed and step so a red run replays
 * with a one-line edit.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "cxl/fabric_queue.hh"
#include "sim/clock.hh"
#include "sim/rng.hh"

namespace cxlfork::cxl {
namespace {

using mem::kPageSize;
using mem::NodeId;
using mem::PhysAddr;

constexpr uint64_t kSeeds = 20;
constexpr uint64_t kSteps = 2000;
constexpr uint32_t kNodes = 6;

/**
 * The shadow queue: an independently written model of one lane's
 * semantics, kept deliberately dumb — vectors, linear scans, charge
 * derived from first principles each call — so a bookkeeping shortcut
 * in the real model (a missed retirement, a stale horizon, a
 * mischarged wait) disagrees instead of being replicated.
 */
class ShadowQueue
{
  public:
    ShadowQueue(const FabricQueueConfig &cfg, uint32_t domains,
                double pageBytes)
        : cfg_(cfg), pageBytes_(pageBytes), lanes_(size_t(domains) * 2),
          busyUntilNs_(size_t(domains) * 2, 0.0)
    {
    }

    struct Effect
    {
        double chargedNs = 0.0;
        uint64_t queued = 0;
        uint64_t holBlocks = 0;
    };

    Effect
    arrive(NodeId n, uint32_t domain, bool isRead, uint64_t bytes,
           double nowNs)
    {
        const size_t li = size_t(domain) * 2 + (isRead ? 0 : 1);
        std::vector<Entry> &lane = lanes_[li];
        // Retire from the front: FIFO, departed-by-now, exactly once.
        while (!lane.empty() && lane.front().departNs <= nowNs) {
            lane.erase(lane.begin());
            ++departed_;
        }

        Effect fx;
        // The lane's committed horizon survives retirement (and drain):
        // the port cannot re-serve time it has already granted, which
        // is exactly the model's monotone-busyUntil rule.
        const double startNs = std::max(nowNs, busyUntilNs_[li]);

        bool crossStream = false;
        if (n != mem::kInvalidNode) {
            for (const Entry &e : lane) {
                if (e.issuer != n && e.issuer != mem::kInvalidNode)
                    crossStream = true;
            }
        }
        if (crossStream) {
            fx.chargedNs += startNs - nowNs;
            ++fx.queued;
            if (lane.front().issuer != n &&
                lane.front().issuer != mem::kInvalidNode) {
                fx.chargedNs += cfg_.holPenalty.toNs();
                ++fx.holBlocks;
            }
        }
        if (cfg_.backgroundUtilization > 0.0) {
            const double s =
                pageBytes_ / (isRead ? cfg_.serviceReadGBs
                                     : cfg_.serviceWriteGBs);
            const double period = s / cfg_.backgroundUtilization;
            const double phase = std::fmod(nowNs, period);
            if (phase < s) {
                fx.chargedNs += s - phase;
                ++fx.queued;
            }
        }

        const double serviceNs =
            double(bytes) /
            (isRead ? cfg_.serviceReadGBs : cfg_.serviceWriteGBs);
        lane.push_back(Entry{startNs + serviceNs, n});
        busyUntilNs_[li] = startNs + serviceNs;
        ++enqueued_;
        return fx;
    }

    void
    drain()
    {
        for (std::vector<Entry> &lane : lanes_) {
            departed_ += lane.size();
            lane.clear();
        }
    }

    uint64_t enqueued() const { return enqueued_; }
    uint64_t departed() const { return departed_; }
    uint64_t inFlight() const { return enqueued_ - departed_; }

  private:
    struct Entry
    {
        double departNs;
        NodeId issuer;
    };

    FabricQueueConfig cfg_;
    double pageBytes_;
    std::vector<std::vector<Entry>> lanes_;
    std::vector<double> busyUntilNs_; ///< Committed horizons; monotone.
    uint64_t enqueued_ = 0;
    uint64_t departed_ = 0;
};

mem::MachineConfig
fuzzMachine()
{
    mem::MachineConfig mc;
    mc.numNodes = kNodes;
    mc.dramPerNodeBytes = mem::mib(64);
    mc.cxlCapacityBytes = mem::mib(64);
    mc.llcBytes = mem::mib(1);
    return mc;
}

void
fuzzOneSeed(uint64_t seed)
{
    sim::Rng rng(seed);

    FabricQueueConfig qc;
    qc.enabled = true;
    const uint32_t domains = uint32_t(1 + rng.index(4));
    qc.serviceReadGBs = rng.uniform(2.0, 20.0);
    qc.serviceWriteGBs = rng.uniform(2.0, 20.0);
    qc.holPenalty = sim::SimTime::ns(rng.chance(0.5) ? 120.0 : 0.0);
    qc.backgroundUtilization = rng.chance(0.25) ? rng.uniform(0.1, 0.6) : 0.0;

    mem::Machine machine(fuzzMachine());
    machine.setFaultDomains(domains);
    const FabricTopology topology(machine);
    FabricQueueModel q(machine, topology, qc);
    ShadowQueue shadow(qc, domains, double(machine.costs().pageSize));
    const sim::MetricsRegistry &m = machine.metrics();
    const uint64_t base = machine.cxl().base().raw;

    // Each issuer stream — the nodes plus one unattributed device
    // stream — owns a monotone clock, like real per-node SimClocks.
    std::vector<double> streamNowNs(kNodes + 1, 0.0);
    std::vector<bool> severed(kNodes + 1, false);

    // Per-lane horizon history for the monotonicity invariant.
    std::vector<double> lastBusyUntil(size_t(domains) * 2, 0.0);

    const double meanGapNs = 200.0;
    for (uint64_t step = 0; step < kSteps; ++step) {
        const std::string at =
            "seed=" + std::to_string(seed) + " step=" + std::to_string(step);

        if (rng.chance(0.01)) {
            // Crash/partition sprinkle: a node's stream goes silent.
            severed[rng.index(kNodes)] = true;
        }
        if (rng.chance(0.005)) {
            severed.assign(kNodes + 1, false); // links heal
        }
        if (rng.chance(0.01)) {
            // The fabric idles out between bursts: both queues drain.
            q.drain();
            shadow.drain();
            ASSERT_EQ(q.inFlight(), 0u) << at << ": drain left in-flight";
            ASSERT_EQ(q.departed(), shadow.departed()) << at;
        }

        // Pick a live stream; index kNodes is the unattributed device.
        uint64_t si = rng.index(kNodes + 1);
        if (severed[si])
            continue; // a severed stream issues nothing this step
        const NodeId n =
            si == kNodes ? mem::kInvalidNode : NodeId(si);

        // Bursts: 1-4 transactions back to back on the same clock.
        const uint64_t burst = 1 + rng.index(4);
        for (uint64_t b = 0; b < burst; ++b) {
            streamNowNs[si] += rng.exponential(meanGapNs);
            const bool isRead = rng.chance(0.6);
            const uint64_t page = rng.index(64);
            const PhysAddr addr =
                rng.chance(0.05) ? PhysAddr{}
                                 : PhysAddr{base + page * kPageSize};
            const uint64_t bytes = rng.chance(0.3)
                                       ? machine.costs().cachelineSize
                                       : machine.costs().pageSize;
            const uint32_t domain = q.domainOf(addr);

            const uint64_t queuedBefore =
                m.counterValue("cxl.contention.queued");
            const uint64_t delayBefore =
                m.counterValue("cxl.contention.delay_ns");
            const uint64_t holBefore =
                m.counterValue("cxl.contention.hol_blocks");

            sim::SimClock clock;
            clock.advance(sim::SimTime::ns(streamNowNs[si]));
            machine.chargePort(clock, "fuzz", n, addr, isRead, bytes);
            const double chargedNs =
                clock.now().toNs() - streamNowNs[si];

            const ShadowQueue::Effect fx =
                shadow.arrive(n, domain, isRead, bytes, streamNowNs[si]);

            // NEAR, not DOUBLE_EQ: chargedNs round-trips through the
            // absolute clock (t + charge - t), which costs ~ulp(t).
            ASSERT_NEAR(chargedNs, fx.chargedNs, 1e-6)
                << at << ": charged delay diverged from shadow "
                << "(issuer=" << si << " domain=" << domain
                << " isRead=" << isRead << " bytes=" << bytes << ")";
            ASSERT_EQ(m.counterValue("cxl.contention.queued"),
                      queuedBefore + fx.queued)
                << at << ": queued counter diverged";
            ASSERT_EQ(m.counterValue("cxl.contention.hol_blocks"),
                      holBefore + fx.holBlocks)
                << at << ": hol_blocks counter diverged";
            ASSERT_EQ(m.counterValue("cxl.contention.delay_ns"),
                      delayBefore + uint64_t(fx.chargedNs))
                << at << ": delay_ns counter diverged";

            // Conservation: every enqueued transaction is either still
            // in flight or departed exactly once, never both or neither.
            ASSERT_EQ(q.enqueued(), shadow.enqueued()) << at;
            ASSERT_EQ(q.departed(), shadow.departed()) << at;
            ASSERT_EQ(q.inFlight(), q.enqueued() - q.departed()) << at;

            // The stream's clock absorbed the charge: time moved
            // forward by exactly service-external delay, never back.
            ASSERT_GE(chargedNs, 0.0) << at << ": time ran backward";
            streamNowNs[si] = clock.now().toNs();
        }

        // Lane horizons are monotone non-decreasing.
        for (uint32_t d = 0; d < domains; ++d) {
            for (bool isRead : {true, false}) {
                const size_t li = size_t(d) * 2 + (isRead ? 0 : 1);
                const double bu = q.busyUntil(d, isRead).toNs();
                ASSERT_GE(bu, lastBusyUntil[li])
                    << at << ": lane " << li << " horizon ran backward";
                lastBusyUntil[li] = bu;
            }
        }
    }

    // Final drain: conservation closes the books.
    q.drain();
    shadow.drain();
    EXPECT_EQ(q.inFlight(), 0u) << "seed=" << seed;
    EXPECT_EQ(q.enqueued(), q.departed()) << "seed=" << seed;
    EXPECT_EQ(q.enqueued(), shadow.enqueued()) << "seed=" << seed;
}

class ContentionFuzz : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(ContentionFuzz, ShadowQueueAgrees)
{
    fuzzOneSeed(0xc0ff'ee00 + GetParam());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ContentionFuzz,
                         ::testing::Range(uint64_t(0), kSeeds),
                         [](const ::testing::TestParamInfo<uint64_t> &info) {
                             return "seed" + std::to_string(info.param);
                         });

} // namespace
} // namespace cxlfork::cxl
