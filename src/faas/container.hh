/**
 * @file
 * Container model (paper Sec. 5, Fig. 6).
 *
 * A container is a namespace/cgroup bundle. Full creation costs
 * ~130 ms (network, namespaces, cgroups) regardless of image size.
 * A *ghost container* is a configured-but-empty container that idles
 * at 512 KB of memory, waiting for a function-restoration request;
 * triggering one costs only a control-socket poke.
 */

#pragma once

#include <memory>
#include <string>

#include "os/kernel.hh"

namespace cxlfork::faas {

/** One container on one node. */
class Container
{
  public:
    enum class State { Ghost, Active, Retired };

    const std::string &id() const { return id_; }
    const os::NamespaceSet &namespaces() const { return ns_; }
    State state() const { return state_; }
    mem::NodeId node() const { return node_; }

    /** Idle memory cost of the container shell itself. */
    uint64_t shellBytes() const { return shellBytes_; }

  private:
    friend class ContainerManager;

    std::string id_;
    os::NamespaceSet ns_;
    State state_ = State::Active;
    mem::NodeId node_ = 0;
    uint64_t shellBytes_ = 0;
};

/** Creates and tracks containers on one node. */
class ContainerManager
{
  public:
    explicit ContainerManager(os::NodeOs &node);

    /**
     * Full container creation (network + namespaces + cgroups):
     * charges the paper's ~130 ms on the node clock.
     */
    std::shared_ptr<Container> create(const std::string &name);

    /**
     * Provision a ghost container: full creation cost is paid now (off
     * the request critical path); the shell then idles at 512 KB.
     */
    std::shared_ptr<Container> provisionGhost(const std::string &name);

    /**
     * Activate a ghost for a restoration request: only the control
     * socket trigger is charged.
     */
    void trigger(Container &c);

    /** Retire a container, releasing its shell memory accounting. */
    void retire(Container &c);

    uint64_t liveCount() const { return liveCount_; }

  private:
    std::shared_ptr<Container> makeShell(const std::string &name);

    os::NodeOs &node_;
    uint64_t nextId_ = 1;
    uint64_t liveCount_ = 0;
    sim::Counter *createdCounter_;
    sim::Counter *ghostProvisionedCounter_;
    sim::Counter *ghostTriggeredCounter_;
};

} // namespace cxlfork::faas
