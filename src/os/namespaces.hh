/**
 * @file
 * Namespaces and cgroups — the *reconfigurable* state of Sec. 4.1/4.2.
 *
 * CXLfork checkpoints mount points and the PID namespace; network and
 * cgroup configuration are inherited from the process that calls the
 * CXLfork API on the target node (so functions restore straight into
 * new containers).
 */

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace cxlfork::os {

/** PID namespace: an id space for process identifiers. */
struct PidNamespace
{
    uint64_t id = 0;
    int nextPid = 1;

    int allocPid() { return nextPid++; }
};

/** Mount namespace: root plus bind mounts. */
struct MountNamespace
{
    uint64_t id = 0;
    std::string root = "/";
    std::vector<std::string> mounts;
};

/** Network namespace (identity only; traffic is out of scope). */
struct NetNamespace
{
    uint64_t id = 0;
    std::string bridge;
};

/** Control-group identity (resource limits are out of scope). */
struct CgroupConfig
{
    std::string name = "/";
};

/** The namespace bundle a task runs in. */
struct NamespaceSet
{
    std::shared_ptr<PidNamespace> pid;
    std::shared_ptr<MountNamespace> mount;
    std::shared_ptr<NetNamespace> net;
    CgroupConfig cgroup;
};

/** Allocates namespace ids; one per simulated cluster. */
class NamespaceRegistry
{
  public:
    std::shared_ptr<PidNamespace> makePidNs();
    std::shared_ptr<MountNamespace> makeMountNs(std::string root = "/");
    std::shared_ptr<NetNamespace> makeNetNs(std::string bridge = "cxl0");

    /** A default host namespace set. */
    NamespaceSet hostSet();

  private:
    uint64_t nextId_ = 1;
};

} // namespace cxlfork::os
