/**
 * @file
 * The fabric's shape: the device's fault domains, the ports each
 * domain serves and the link from every node to every domain.
 *
 * A view of the machine: the domain count is the machine's own
 * (Machine::setFaultDomains), the one the machine computes each
 * transaction's domain with. RAS replica placement, link health and
 * the port queue all read it through CxlFabric's instance, so they
 * cannot disagree on which domain a frame lives in: a rerouted replica
 * read queues on the domain that serves it, and a severed domain is
 * the one RAS placed no second copy on.
 */

#pragma once

#include <cstdint>

#include "mem/machine.hh"

namespace cxlfork::cxl {

class FabricTopology
{
  public:
    /** A read lane and a write lane per domain. */
    static constexpr uint32_t kPortsPerDomain = 2;

    explicit FabricTopology(const mem::Machine &machine) : machine_(machine)
    {}

    uint32_t nodes() const { return machine_.numNodes(); }
    uint32_t domains() const { return machine_.faultDomains(); }

    /** Fault domain of a device address; 0 for null (control plane). */
    uint32_t
    domainOf(mem::PhysAddr addr) const
    {
        if (addr.isNull())
            return 0;
        return machine_.domainOfFrame(
            uint32_t((addr.raw - mem::Machine::kCxlBase) / mem::kPageSize));
    }

    /** Port lanes across every domain. */
    uint32_t ports() const { return domains() * kPortsPerDomain; }

    /** Index of a domain's read or write lane in [0, ports()). */
    uint32_t
    port(uint32_t domain, bool isRead) const
    {
        return domain * kPortsPerDomain + (isRead ? 0 : 1);
    }

    /** Node-to-domain links. */
    uint32_t links() const { return nodes() * domains(); }

    /** Index of node n's link to a domain in [0, links()). */
    uint32_t
    link(mem::NodeId n, uint32_t domain) const
    {
        return n * domains() + domain;
    }

  private:
    const mem::Machine &machine_;
};

} // namespace cxlfork::cxl
