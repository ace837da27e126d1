#include "fabric_queue.hh"

#include <algorithm>
#include <cmath>

#include "sim/metrics.hh"

namespace cxlfork::cxl {

FabricQueueModel::FabricQueueModel(mem::Machine &machine,
                                   const FabricTopology &topology,
                                   FabricQueueConfig cfg)
    : machine_(machine), topology_(topology), cfg_(cfg)
{
    if (!cfg_.enabled)
        return;
    if (cfg_.serviceReadGBs <= 0.0 || cfg_.serviceWriteGBs <= 0.0)
        sim::fatal("fabric queue service bandwidth must be positive");
    if (cfg_.backgroundUtilization < 0.0 ||
        cfg_.backgroundUtilization >= 1.0)
        sim::fatal("fabric queue background utilization must be in [0, 1)");
    lanes_.assign(topology_.ports(), Lane{});
    pageBytes_ = machine_.costs().pageSize;
    for (uint32_t d = 0; d < topology_.domains(); ++d) {
        for (bool isRead : {true, false}) {
            lanes_[topology_.port(d, isRead)].pageService =
                serviceTime(isRead, pageBytes_);
        }
    }
    sim::MetricsRegistry &m = machine_.metrics();
    queuedCounter_ = &m.counter("cxl.contention.queued");
    delayNsCounter_ = &m.counter("cxl.contention.delay_ns");
    holBlocksCounter_ = &m.counter("cxl.contention.hol_blocks");
    peakInflightGauge_ = &m.gauge("cxl.contention.peak_inflight");
    machine_.installStage(mem::StageKind::Queue, this);
}

FabricQueueModel::~FabricQueueModel()
{
    if (machine_.stage(mem::StageKind::Queue) == this)
        machine_.installStage(mem::StageKind::Queue, nullptr);
}

sim::SimTime
FabricQueueModel::busyUntil(uint32_t domain, bool isRead) const
{
    return lanes_.at(topology_.port(domain, isRead)).busyUntil;
}

void
FabricQueueModel::retire(Lane &lane, sim::SimTime now)
{
    // A transaction departs exactly once: when the issuing stream's
    // simulated time has caught up with its departure. FIFO order
    // guarantees the front departs first.
    const uint32_t mask = lane.mask;
    while (lane.count != 0 && lane.ring[lane.head].depart <= now) {
        const mem::NodeId issuer = lane.ring[lane.head].issuer;
        if (issuer != mem::kInvalidNode) {
            --lane.attributed;
            --lane.perIssuer[issuer];
        }
        lane.head = (lane.head + 1) & mask;
        --lane.count;
        ++departed_;
    }
}

void
FabricQueueModel::grow(Lane &lane)
{
    // Full: unroll into a ring twice the size, oldest first.
    std::vector<InFlight> grown(lane.ring.empty() ? 16 : lane.ring.size() * 2);
    for (uint32_t i = 0; i < lane.count; ++i)
        grown[i] = lane.ring[(lane.head + i) & lane.mask];
    lane.ring = std::move(grown);
    lane.mask = uint32_t(lane.ring.size()) - 1;
    lane.head = 0;
}

void
FabricQueueModel::drain()
{
    for (Lane &lane : lanes_) {
        departed_ += lane.count;
        lane.head = 0;
        lane.count = 0;
        lane.attributed = 0;
        std::fill(lane.perIssuer.begin(), lane.perIssuer.end(), 0);
    }
}

sim::SimTime
FabricQueueModel::backgroundResidual(bool isRead, sim::SimTime now) const
{
    const double rho = cfg_.backgroundUtilization;
    if (rho <= 0.0)
        return sim::SimTime::zero();
    // One page-sized foreign transaction every s/rho on this lane: an
    // arrival landing inside the service window waits out the rest of
    // it. Exact for a deterministic periodic interferer, O(1), and
    // independent of arrival processing order.
    const double s =
        serviceTime(isRead, machine_.costs().pageSize).toNs();
    const double period = s / rho;
    const double phase = std::fmod(now.toNs(), period);
    return phase < s ? sim::SimTime::ns(s - phase) : sim::SimTime::zero();
}

void
FabricQueueModel::onTxn(mem::Txn &t)
{
    Lane &lane = lanes_[topology_.port(t.domain, t.isRead)];
    const sim::SimTime now = t.clock.now();
    retire(lane, now);

    // After retiring, every in-flight entry departs strictly after
    // `now`, so a non-empty lane always implies a positive wait. The
    // wait is charged only when some of that occupancy belongs to
    // another *attributed* issuer: a stream queueing behind itself is
    // already priced by the CostParams bandwidth terms, and
    // unattributed (kInvalidNode) traffic is usually the same logical
    // stream minus the attribution — charging either way would make a
    // single-node run diverge from the model-off baseline. Device
    // occupancy still lengthens the horizon, so it inflates the waits
    // attributed cross-streams do pay.
    const mem::NodeId n = t.node;
    const bool foreign = n != mem::kInvalidNode && lane.hasForeign(n);

    const sim::SimTime start = std::max(now, lane.busyUntil);
    sim::SimTime charged = sim::SimTime::zero();
    if (foreign) {
        charged = start - now;
        if (queuedCounter_)
            queuedCounter_->inc();
        // Head-of-line: the transaction in service belongs to another
        // attributed issuer and the arbiter cannot preempt mid-transfer.
        const mem::NodeId head = lane.front().issuer;
        if (head != n && head != mem::kInvalidNode) {
            charged += cfg_.holPenalty;
            if (holBlocksCounter_)
                holBlocksCounter_->inc();
        }
    }
    const sim::SimTime bg = backgroundResidual(t.isRead, now);
    if (!bg.isZero()) {
        charged += bg;
        if (queuedCounter_)
            queuedCounter_->inc();
    }

    // Commit the occupancy. start >= busyUntil keeps the lane horizon
    // monotone: simulated time never runs backward on a lane.
    lane.busyUntil =
        start + (t.bytes == pageBytes_ ? lane.pageService
                                       : serviceTime(t.isRead, t.bytes));
    if (n != mem::kInvalidNode) {
        if (n >= lane.perIssuer.size())
            lane.perIssuer.resize(size_t(n) + 1, 0);
        ++lane.attributed;
        ++lane.perIssuer[n];
    }
    if (lane.count == lane.ring.size()) [[unlikely]]
        grow(lane);
    lane.ring[(lane.head + lane.count++) & lane.mask] =
        InFlight{lane.busyUntil, n};
    ++enqueued_;
    const uint64_t inflightNow = enqueued_ - departed_;
    if (inflightNow > peakInflight_) {
        peakInflight_ = inflightNow;
        if (peakInflightGauge_)
            peakInflightGauge_->set(double(peakInflight_));
    }

    if (!charged.isZero()) {
        if (delayNsCounter_)
            delayNsCounter_->inc(uint64_t(charged.toNs()));
        t.clock.advance(charged);
    }
}

sim::CostParams
contendedCosts(const sim::CostParams &base, uint32_t sharers,
               double latencyInflationPerSharer,
               double bandwidthOverheadPerSharer)
{
    sim::CostParams out = base;
    if (sharers <= 1)
        return out;
    const double n = double(sharers);
    const double share =
        1.0 / (n * (1.0 + bandwidthOverheadPerSharer * (n - 1.0)));
    out.cxlReadBwGBs = base.cxlReadBwGBs * share;
    out.cxlWriteBwGBs = base.cxlWriteBwGBs * share;
    out.cxlLatency =
        base.cxlLatency * (1.0 + latencyInflationPerSharer * (n - 1.0));
    return out;
}

} // namespace cxlfork::cxl
