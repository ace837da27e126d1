/**
 * @file
 * Correctness oracles for the fabric queue model.
 *
 * Three independent angles, none of which can pass by construction:
 *
 *  - An analytical M/D/1 oracle: Poisson arrivals at swept utilizations
 *    into one lane with deterministic service must measure a mean queue
 *    delay within tolerance of the Pollaczek-Khinchine mean wait for
 *    deterministic service, W = rho * s / (2 * (1 - rho)). The model
 *    is a Lindley recursion, not a formula — if its occupancy
 *    bookkeeping drifted (lost departures, non-monotone horizons, a
 *    wait mischarged), the measured mean would not land on the closed
 *    form at three different utilizations simultaneously.
 *
 *  - The contrast control of the uncontended-limit differential: a
 *    queue-armed run whose attributed fabric traffic all comes from
 *    one node is metric- and clock-identical to the model-off run (the
 *    layer matrix's single-issuer cell, layer_matrix_test.cc), so
 *    overlapping restore traffic from a second node must charge, or
 *    that cell could never fail.
 *
 *  - Unit seams: domain striping, lane separation, HoL accounting, the
 *    deterministic background residual, and drain-to-idle.
 */

#include <gtest/gtest.h>

#include <string>

#include "cxl/fabric_queue.hh"
#include "faas/function.hh"
#include "faas/workloads.hh"
#include "porter/cluster.hh"
#include "rfork/cxlfork.hh"
#include "sim/clock.hh"
#include "sim/rng.hh"

namespace cxlfork::cxl {
namespace {

using mem::kPageSize;
using mem::NodeId;
using mem::PhysAddr;

/** A bare machine big enough to own a device window for the queue. */
mem::MachineConfig
bareMachine(uint32_t nodes = 2)
{
    mem::MachineConfig mc;
    mc.numNodes = nodes;
    mc.dramPerNodeBytes = mem::mib(64);
    mc.cxlCapacityBytes = mem::mib(64);
    mc.llcBytes = mem::mib(1);
    return mc;
}

FabricQueueConfig
oneLaneConfig()
{
    FabricQueueConfig qc;
    qc.enabled = true;
    qc.holPenalty = sim::SimTime::zero(); // isolate the pure wait
    return qc;
}

// ---------------------------------------------------------------------
// The analytical M/D/1 oracle.
// ---------------------------------------------------------------------

/**
 * Drive one lane with Poisson arrivals at utilization rho from two
 * alternating issuers and return the measured mean charged wait in ns.
 *
 * With strictly alternating issuers on a FIFO lane, every positive
 * Lindley wait finds the other issuer's transaction still in flight,
 * so the charged delay *is* the Lindley wait and the measured mean is
 * directly comparable to the closed form.
 */
double
measuredMeanWaitNs(double rho, uint64_t arrivals, uint64_t warmup,
                   uint64_t seed)
{
    mem::Machine machine(bareMachine());
    const FabricTopology oneLane(machine); // one fault domain
    FabricQueueModel q(machine, oneLane, oneLaneConfig());
    const PhysAddr addr = machine.cxl().base();
    const double s = q.serviceTime(true, kPageSize).toNs();
    const double meanInterarrival = s / rho;

    sim::Rng rng(seed);
    double t = 0.0;
    double waitSum = 0.0;
    uint64_t measured = 0;
    for (uint64_t i = 0; i < arrivals; ++i) {
        t += rng.exponential(meanInterarrival);
        // A fresh clock per arrival: each arrival observes the open
        // system at its own absolute time, exactly like a newly
        // arriving customer.
        sim::SimClock clock;
        clock.advance(sim::SimTime::ns(t));
        machine.chargePort(clock, "oracle",
                           NodeId(i % 2), addr, true, kPageSize);
        if (i >= warmup) {
            waitSum += clock.now().toNs() - t;
            ++measured;
        }
    }
    EXPECT_EQ(q.enqueued(), arrivals);
    return waitSum / double(measured);
}

class Md1Oracle : public ::testing::TestWithParam<double>
{
};

TEST_P(Md1Oracle, MeanWaitMatchesPollaczekKhinchine)
{
    const double rho = GetParam();
    // Service: one 4 KiB page at 10 GB/s = 409.6 ns.
    const double s = 4096.0 / 10.0;
    const double analytic = rho * s / (2.0 * (1.0 - rho));
    const double measured =
        measuredMeanWaitNs(rho, 120000, 20000, 0xfab5'0123 + uint64_t(rho * 100));
    EXPECT_NEAR(measured, analytic, 0.15 * analytic)
        << "rho=" << rho << " measured " << measured << " ns vs analytic "
        << analytic << " ns";
}

INSTANTIATE_TEST_SUITE_P(SweptUtilizations, Md1Oracle,
                         ::testing::Values(0.3, 0.6, 0.8),
                         [](const ::testing::TestParamInfo<double> &info) {
                             return "rho" +
                                    std::to_string(int(info.param * 100));
                         });

// ---------------------------------------------------------------------
// Unit seams.
// ---------------------------------------------------------------------

TEST(FabricQueueUnit, DisabledInstallsNothing)
{
    mem::Machine machine(bareMachine());
    FabricQueueConfig qc; // enabled defaults to false
    const FabricTopology oneLane(machine); // one fault domain
    FabricQueueModel q(machine, oneLane, qc);
    EXPECT_FALSE(q.enabled());
    EXPECT_EQ(machine.stage(mem::StageKind::Queue), nullptr);
    EXPECT_EQ(machine.metrics().counterValue("cxl.contention.queued"), 0u);
}

TEST(FabricQueueUnit, InstallsAndUninstallsHook)
{
    mem::Machine machine(bareMachine());
    {
        const FabricTopology oneLane(machine); // one fault domain
        FabricQueueModel q(machine, oneLane, oneLaneConfig());
        EXPECT_EQ(machine.stage(mem::StageKind::Queue), &q);
    }
    EXPECT_EQ(machine.stage(mem::StageKind::Queue), nullptr);
}

TEST(FabricQueueUnit, SelfStreamNeverCharges)
{
    mem::Machine machine(bareMachine());
    const FabricTopology oneLane(machine); // one fault domain
    FabricQueueModel q(machine, oneLane, oneLaneConfig());
    const PhysAddr addr = machine.cxl().base();
    sim::SimClock clock;
    for (int i = 0; i < 50; ++i)
        machine.chargePort(clock, "self", 0, addr, true, kPageSize);
    EXPECT_TRUE(clock.now().isZero())
        << "a node queueing behind itself must not be charged";
    EXPECT_EQ(machine.metrics().counterValue("cxl.contention.queued"), 0u);
    EXPECT_GT(q.inFlight(), 0u);
}

TEST(FabricQueueUnit, UnattributedTrafficNeitherChargesNorIsCharged)
{
    mem::Machine machine(bareMachine());
    const FabricTopology oneLane(machine); // one fault domain
    FabricQueueModel q(machine, oneLane, oneLaneConfig());
    const PhysAddr addr = machine.cxl().base();
    sim::SimClock device;
    machine.chargePort(device, "device",
                       mem::kInvalidNode, addr, true, kPageSize);
    sim::SimClock n0;
    machine.chargePort(n0, "n0", 0, addr, true, kPageSize);
    EXPECT_TRUE(n0.now().isZero())
        << "device-internal occupancy must not charge an attributed "
           "stream on its own";
    sim::SimClock dev2;
    machine.chargePort(dev2, "device2",
                       mem::kInvalidNode, addr, true, kPageSize);
    EXPECT_TRUE(dev2.now().isZero());
    EXPECT_EQ(machine.metrics().counterValue("cxl.contention.queued"), 0u);
}

TEST(FabricQueueUnit, CrossStreamChargesAndCountsHeadOfLine)
{
    mem::Machine machine(bareMachine());
    FabricQueueConfig qc = oneLaneConfig();
    qc.holPenalty = sim::SimTime::ns(120);
    const FabricTopology oneLane(machine); // one fault domain
    FabricQueueModel q(machine, oneLane, qc);
    const PhysAddr addr = machine.cxl().base();
    const double s = q.serviceTime(true, kPageSize).toNs();

    sim::SimClock n0;
    machine.chargePort(n0, "n0", 0, addr, true, kPageSize);
    EXPECT_TRUE(n0.now().isZero()); // empty lane: no wait

    // Node 1 arrives at t=0 while node 0's page is in service: waits
    // out the full residual service plus the HoL turnaround.
    sim::SimClock n1;
    machine.chargePort(n1, "n1", 1, addr, true, kPageSize);
    EXPECT_DOUBLE_EQ(n1.now().toNs(), s + 120.0);
    EXPECT_EQ(machine.metrics().counterValue("cxl.contention.queued"), 1u);
    EXPECT_EQ(machine.metrics().counterValue("cxl.contention.hol_blocks"),
              1u);
    EXPECT_EQ(machine.metrics().counterValue("cxl.contention.delay_ns"),
              uint64_t(s + 120.0));
    EXPECT_DOUBLE_EQ(
        machine.metrics().gaugeValue("cxl.contention.peak_inflight"), 2.0);
}

TEST(FabricQueueUnit, ReadAndWriteLanesAreIndependent)
{
    mem::Machine machine(bareMachine());
    const FabricTopology oneLane(machine); // one fault domain
    FabricQueueModel q(machine, oneLane, oneLaneConfig());
    const PhysAddr addr = machine.cxl().base();

    sim::SimClock n0;
    machine.chargePort(n0, "n0.read", 0, addr, /*isRead=*/true, kPageSize);
    // Node 1 *writes*: different lane, no interference.
    sim::SimClock n1;
    machine.chargePort(n1, "n1.write", 1, addr, /*isRead=*/false, kPageSize);
    EXPECT_TRUE(n1.now().isZero());
    // But a read from node 1 queues behind node 0's read.
    sim::SimClock n1r;
    machine.chargePort(n1r, "n1.read", 1, addr, /*isRead=*/true, kPageSize);
    EXPECT_GT(n1r.now().toNs(), 0.0);
}

TEST(FabricQueueUnit, DomainsStripeLikeRas)
{
    mem::Machine machine(bareMachine());
    machine.setFaultDomains(4);
    const FabricTopology fourDomains(machine);
    FabricQueueModel q(machine, fourDomains, oneLaneConfig());
    const uint64_t base = machine.cxl().base().raw;
    EXPECT_EQ(q.domainOf(PhysAddr{base}), 0u);
    EXPECT_EQ(q.domainOf(PhysAddr{base + kPageSize}), 1u);
    EXPECT_EQ(q.domainOf(PhysAddr{base + 5 * kPageSize}), 1u);
    EXPECT_EQ(q.domainOf(PhysAddr{}), 0u); // control plane rides dom 0

    // Cross-node traffic on different domains never queues.
    sim::SimClock n0;
    machine.chargePort(n0, "d0", 0, PhysAddr{base}, true, kPageSize);
    sim::SimClock n1;
    machine.chargePort(n1, "d1",
                       1, PhysAddr{base + kPageSize}, true, kPageSize);
    EXPECT_TRUE(n1.now().isZero());
}

TEST(FabricQueueUnit, BackgroundResidualIsDeterministic)
{
    mem::Machine machine(bareMachine());
    FabricQueueConfig qc = oneLaneConfig();
    qc.backgroundUtilization = 0.5;
    const FabricTopology oneLane(machine); // one fault domain
    FabricQueueModel q(machine, oneLane, qc);
    const PhysAddr addr = machine.cxl().base();
    const double s = q.serviceTime(true, kPageSize).toNs();
    // Period = s / rho = 2s. An arrival at t=0 lands at the start of
    // the background's service window: full residual s.
    sim::SimClock c0;
    machine.chargePort(c0, "bg0", 0, addr, true, kPageSize);
    EXPECT_DOUBLE_EQ(c0.now().toNs(), s);
    // An arrival in the idle half of the period is untouched.
    sim::SimClock c1;
    c1.advance(sim::SimTime::ns(1.5 * s));
    machine.chargePort(c1, "bg1", 0, addr, true, kPageSize);
    EXPECT_DOUBLE_EQ(c1.now().toNs(), 1.5 * s);
}

TEST(FabricQueueUnit, DrainRetiresEverythingExactlyOnce)
{
    mem::Machine machine(bareMachine());
    const FabricTopology oneLane(machine); // one fault domain
    FabricQueueModel q(machine, oneLane, oneLaneConfig());
    const PhysAddr addr = machine.cxl().base();
    sim::SimClock clock;
    for (int i = 0; i < 10; ++i)
        machine.chargePort(clock, "drain", 0, addr, i % 2 == 0, kPageSize);
    EXPECT_EQ(q.enqueued(), 10u);
    EXPECT_GT(q.inFlight(), 0u);
    q.drain();
    EXPECT_EQ(q.inFlight(), 0u);
    EXPECT_EQ(q.departed(), 10u);
    q.drain(); // idempotent: nothing departs twice
    EXPECT_EQ(q.departed(), 10u);
}

// ---------------------------------------------------------------------
// The contrast control of the uncontended-limit differential.
// ---------------------------------------------------------------------

TEST(UncontendedDifferential, OverlappingRestorersDoCharge)
{
    // Contrast control: two nodes restore the same checkpoint, both
    // with clocks starting at 0 — their demand-fault *read* streams
    // overlap in simulated time on the same lanes (checkpoint writes
    // alone would not collide with restore reads: separate lanes), so
    // the queue must charge something.
    porter::ClusterConfig cc;
    cc.machine.numNodes = 3;
    cc.machine.dramPerNodeBytes = mem::gib(1);
    cc.machine.cxlCapacityBytes = mem::gib(1);
    cc.machine.llcBytes = mem::mib(8);
    cc.contention.enabled = true;
    porter::Cluster cluster(cc);

    const faas::FunctionSpec spec = *faas::findWorkload("Float");
    auto parent =
        faas::FunctionInstance::deployCold(cluster.node(0), spec);
    parent->invoke();
    rfork::CxlFork mech(cluster.fabric());
    auto handle = mech.checkpoint(cluster.node(0), parent->task());
    const faas::FunctionLayout layout = faas::FunctionLayout::compute(spec);
    for (mem::NodeId n : {mem::NodeId(1), mem::NodeId(2)}) {
        auto child = mech.restore(handle, cluster.node(n));
        layout.forEachPage(os::SegClass::ReadWrite, 64,
                           [&](mem::VirtAddr va, uint64_t) {
                               (void)cluster.node(n).read(*child, va);
                           });
        cluster.node(n).exitTask(child);
    }
    parent->destroy();

    EXPECT_GT(cluster.machine().metrics().counterValue(
                  "cxl.contention.queued"),
              0u)
        << "overlapping cross-node traffic must queue — otherwise the "
           "uncontended differential could never fail";
}

} // namespace
} // namespace cxlfork::cxl
