/**
 * @file
 * The process: task struct, CPU context, descriptor table, namespaces.
 */

#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>

#include "file.hh"
#include "mm.hh"
#include "namespaces.hh"

namespace cxlfork::os {

/** Architectural register state checkpointed/restored as-is. */
struct CpuContext
{
    std::array<uint64_t, 16> gpr{};
    uint64_t rip = 0;
    uint64_t rsp = 0;
    uint64_t fpstate = 0; ///< Token for the FP/SIMD save area.

    bool operator==(const CpuContext &) const = default;
};

enum class TaskState : uint8_t { Running, Stopped, Zombie };

/** A process on one node. */
class Task
{
  public:
    Task(int pid, std::string name, mem::NodeId node,
         std::unique_ptr<MemoryDescriptor> mm, NamespaceSet ns)
        : pid_(pid), name_(std::move(name)), node_(node), mm_(std::move(mm)),
          ns_(std::move(ns))
    {}

    int pid() const { return pid_; }
    const std::string &name() const { return name_; }
    mem::NodeId node() const { return node_; }

    MemoryDescriptor &mm() { return *mm_; }
    const MemoryDescriptor &mm() const { return *mm_; }

    FdTable &fds() { return fds_; }
    const FdTable &fds() const { return fds_; }

    CpuContext &cpu() { return cpu_; }
    const CpuContext &cpu() const { return cpu_; }

    NamespaceSet &namespaces() { return ns_; }
    const NamespaceSet &namespaces() const { return ns_; }

    TaskState state() const { return state_; }
    void setState(TaskState s) { state_ = s; }

  private:
    int pid_;
    std::string name_;
    mem::NodeId node_;
    std::unique_ptr<MemoryDescriptor> mm_;
    FdTable fds_;
    CpuContext cpu_;
    NamespaceSet ns_;
    TaskState state_ = TaskState::Running;
};

} // namespace cxlfork::os
