/**
 * @file
 * The CXL fabric context: the shared device plus fabric-level services
 * (the content-addressed page pool, the in-CXL shared filesystem).
 */

#pragma once

#include <memory>

#include "coherence.hh"
#include "fabric_queue.hh"
#include "link_health.hh"
#include "mem/machine.hh"
#include "page_store.hh"
#include "ras.hh"
#include "shared_fs.hh"
#include "topology.hh"

namespace cxlfork::cxl {

/**
 * Fabric-wide shared state for a cluster of nodes. Each opt-in layer
 * installs itself as a stage of the machine's fabric pipeline (or, for
 * the directory, as its coherence model) when its config enables it;
 * RAS, link health and the port queue all read the one topology.
 */
class CxlFabric
{
  public:
    explicit CxlFabric(mem::Machine &machine, PageStoreConfig pageStoreCfg = {},
                       RasConfig rasCfg = {}, CoherenceConfig coherenceCfg = {},
                       LinkHealthConfig linkCfg = {},
                       FabricQueueConfig queueCfg = {})
        : machine_(machine),
          topology_(withFaultDomains(machine, rasCfg,
                                     linkCfg.enabled || queueCfg.enabled)),
          pageStore_(machine, pageStoreCfg),
          ras_(machine, pageStore_, topology_, rasCfg),
          sharedFs_(machine, pageStore_)
    {
        // The store hook makes interned pages flow through RAS.
        pageStore_.attachRas(&ras_);
        // With mode Off no directory is built and every access path
        // stays bit-identical to the pre-coherence tree.
        if (coherenceCfg.mode != CoherenceMode::Off) {
            coherence_ = std::make_unique<CoherenceDirectory>(machine,
                                                              coherenceCfg);
        }
        if (linkCfg.enabled) {
            linkHealth_ = std::make_unique<LinkHealth>(machine, ras_,
                                                       topology_, linkCfg);
        }
        if (queueCfg.enabled) {
            fabricQueue_ = std::make_unique<FabricQueueModel>(
                machine, topology_, queueCfg);
        }
    }

    CxlFabric(const CxlFabric &) = delete;
    CxlFabric &operator=(const CxlFabric &) = delete;

    mem::Machine &machine() { return machine_; }
    const FabricTopology &topology() const { return topology_; }
    mem::FrameAllocator &device() { return machine_.cxl(); }
    PageStore &pageStore() { return pageStore_; }
    RasManager &ras() { return ras_; }
    SharedFs &sharedFs() { return sharedFs_; }

    /** The coherence directory, or nullptr when mode is Off. */
    CoherenceDirectory *coherence() { return coherence_.get(); }

    /** The link-health manager, or nullptr when disabled. */
    LinkHealth *linkHealth() { return linkHealth_.get(); }

    /** The fabric queuing model, or nullptr when disabled. */
    FabricQueueModel *fabricQueue() { return fabricQueue_.get(); }

    /** Device capacity consumed, across checkpoints and files. */
    uint64_t usedBytes() const { return machine_.cxl().usedBytes(); }
    uint64_t freeBytes() const { return machine_.cxl().freeBytes(); }

  private:
    /**
     * Stripe the device over the RAS fault domains when a layer reads
     * them (RAS, link health or the queue); with all three off the
     * count is never read and is left unchecked.
     */
    static const mem::Machine &
    withFaultDomains(mem::Machine &machine, const RasConfig &rasCfg,
                     bool linkOrQueue)
    {
        if (rasCfg.enabled || linkOrQueue)
            machine.setFaultDomains(rasCfg.faultDomains);
        return machine;
    }

    mem::Machine &machine_;
    FabricTopology topology_; ///< Before every layer that reads it.
    PageStore pageStore_; ///< Before sharedFs_: the FS writes through it.
    RasManager ras_;      ///< Before sharedFs_: FS pages may be protected.
    SharedFs sharedFs_;
    std::unique_ptr<CoherenceDirectory> coherence_;
    std::unique_ptr<LinkHealth> linkHealth_; ///< After ras_: reroutes
                                             ///< read its replica map.
    std::unique_ptr<FabricQueueModel> fabricQueue_;
};

} // namespace cxlfork::cxl
