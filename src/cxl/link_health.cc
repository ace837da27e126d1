#include "link_health.hh"

#include "sim/metrics.hh"

namespace cxlfork::cxl {

const char *
linkStateName(LinkState s)
{
    switch (s) {
      case LinkState::Up:
        return "up";
      case LinkState::Degraded:
        return "degraded";
      case LinkState::Severed:
        return "severed";
    }
    return "?";
}

LinkHealth::LinkHealth(mem::Machine &machine, RasManager &ras,
                       const FabricTopology &topology, LinkHealthConfig cfg)
    : machine_(machine), ras_(ras), topology_(topology), cfg_(cfg)
{
    if (!cfg_.enabled)
        return;
    links_.assign(topology_.links(), Link{});
    sim::MetricsRegistry &m = machine_.metrics();
    severedTxnsCounter_ = &m.counter("cxl.partition.severed_txns");
    degradedTxnsCounter_ = &m.counter("cxl.partition.degraded_txns");
    reroutesCounter_ = &m.counter("cxl.partition.reroutes");
    flapsCounter_ = &m.counter("cxl.partition.flaps");
    degradesCounter_ = &m.counter("cxl.partition.degrades");
    healsCounter_ = &m.counter("cxl.partition.heals");
    machine_.installStage(mem::StageKind::Link, this);
}

LinkHealth::~LinkHealth()
{
    if (machine_.stage(mem::StageKind::Link) == this)
        machine_.installStage(mem::StageKind::Link, nullptr);
}

LinkHealth::Link &
LinkHealth::linkFor(mem::NodeId n, uint32_t domain)
{
    if (n >= topology_.nodes() || domain >= topology_.domains())
        sim::panic("link node%u->dom%u outside the topology", n, domain);
    return links_[topology_.link(n, domain)];
}

const LinkHealth::Link &
LinkHealth::linkFor(mem::NodeId n, uint32_t domain) const
{
    return const_cast<LinkHealth *>(this)->linkFor(n, domain);
}

void
LinkHealth::sever(mem::NodeId n)
{
    for (uint32_t d = 0; d < domains(); ++d)
        sever(n, d);
}

void
LinkHealth::sever(mem::NodeId n, uint32_t domain)
{
    Link &l = linkFor(n, domain);
    l.state = LinkState::Severed;
    l.healAfter = 0;
}

void
LinkHealth::degrade(mem::NodeId n, double factor)
{
    for (uint32_t d = 0; d < domains(); ++d) {
        Link &l = linkFor(n, d);
        if (l.state == LinkState::Severed)
            continue;
        l.state = LinkState::Degraded;
        l.factor = factor > 0.0 ? factor : cfg_.degradeFactor;
    }
}

void
LinkHealth::heal(mem::NodeId n)
{
    for (uint32_t d = 0; d < domains(); ++d) {
        Link &l = linkFor(n, d);
        l.state = LinkState::Up;
        l.factor = 1.0;
        l.healAfter = 0;
    }
}

void
LinkHealth::severAtSite(uint64_t k, mem::NodeId n)
{
    machine_.faults().armLinkEventSite(k, [this, n] { sever(n); });
}

LinkState
LinkHealth::state(mem::NodeId n, uint32_t domain) const
{
    if (!cfg_.enabled || n >= topology_.nodes())
        return LinkState::Up;
    return linkFor(n, domain).state;
}

bool
LinkHealth::nodeSevered(mem::NodeId n) const
{
    if (!cfg_.enabled || n >= topology_.nodes())
        return false;
    for (uint32_t d = 0; d < domains(); ++d) {
        if (linkFor(n, d).state != LinkState::Severed)
            return false;
    }
    return true;
}

bool
LinkHealth::anySevered(mem::NodeId n) const
{
    if (!cfg_.enabled || n >= topology_.nodes())
        return false;
    for (uint32_t d = 0; d < domains(); ++d) {
        if (linkFor(n, d).state == LinkState::Severed)
            return true;
    }
    return false;
}

void
LinkHealth::onTxn(mem::Txn &t)
{
    const mem::NodeId n = t.node;
    if (n == mem::kInvalidNode)
        return; // device-internal traffic crosses no node's link
    ++machine_.fabricWork().linkTxns;
    if (n >= topology_.nodes())
        return; // nodes beyond the machine (defensive; tests poke raw)
    const uint32_t dom = t.domain;
    Link &l = links_[topology_.link(n, dom)];
    sim::SimClock &clock = t.clock;
    const mem::PhysAddr addr = t.target;

    // Seeded Bernoulli weather: the injector's independent streams
    // decide whether THIS transaction's link flaps or degrades. Zero
    // rates draw nothing, so schedule-free runs are bit-identical.
    sim::FaultInjector &inj = machine_.faults();
    if (inj.drawLinkSever()) {
        if (l.state != LinkState::Severed && flapsCounter_)
            flapsCounter_->inc();
        l.state = LinkState::Severed;
        l.healAfter = cfg_.flapTxns;
    } else if (l.state == LinkState::Up && inj.drawLinkDegrade()) {
        l.state = LinkState::Degraded;
        l.factor = cfg_.degradeFactor;
        if (degradesCounter_)
            degradesCounter_->inc();
    }

    switch (l.state) {
      case LinkState::Up:
        return;
      case LinkState::Degraded:
        // The link carries the transaction, just slowly: the extra
        // (factor - 1) of the base fabric latency on top of whatever
        // the caller charges for the access itself.
        if (degradedTxnsCounter_)
            degradedTxnsCounter_->inc();
        clock.advance(machine_.costs().cxlLatency * (l.factor - 1.0));
        return;
      case LinkState::Severed:
        break;
    }

    if (severedTxnsCounter_)
        severedTxnsCounter_->inc();
    // A flapped link consumes one auto-heal unit per failed attempt;
    // the attempt that exhausts the countdown still fails, but the
    // *next* one finds the link Up again.
    const bool healsNow = l.healAfter > 0 && --l.healAfter == 0;

    // The reroute rung: a read of a RAS-protected page with a healthy
    // replica on a domain this node can still reach is served from the
    // replica — byte-identical content (RAS replicas carry the page
    // token), one extra fabric hop plus the replica page read charged.
    if (t.isRead && !addr.isNull()) {
        const mem::PhysAddr rep = ras_.findReplicaOn(
            addr, [&](uint32_t d) {
                return d != dom &&
                       linkFor(n, d).state != LinkState::Severed;
            });
        if (!rep.isNull()) {
            if (reroutesCounter_)
                reroutesCounter_->inc();
            const sim::CostParams &costs = machine_.costs();
            clock.advance(costs.cxlLatency +
                          costs.cxlRead(mem::kPageSize));
            if (healsNow) {
                l.state = LinkState::Up;
                if (healsCounter_)
                    healsCounter_->inc();
            }
            return;
        }
    }

    if (healsNow) {
        l.state = LinkState::Up;
        if (healsCounter_)
            healsCounter_->inc();
    }
    sim::FaultOrigin origin;
    origin.frameAddr = addr.raw;
    origin.node = n;
    origin.link = dom;
    throw sim::FabricPartitionError(
        sim::format("fabric link node%u->dom%u severed at %s", n, dom,
                    t.site),
        origin);
}

} // namespace cxlfork::cxl
