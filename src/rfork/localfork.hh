/**
 * @file
 * LocalFork: the same-node fork() baseline (the "LocalFork" bars in
 * Fig. 7). The parent process *is* the checkpoint; restore is a classic
 * CoW fork and is only legal on the parent's node.
 */

#pragma once

#include "rfork.hh"

namespace cxlfork::rfork {

/** Handle that simply pins the live parent. */
class LocalForkHandle : public CheckpointHandle
{
  public:
    LocalForkHandle(std::shared_ptr<os::Task> parent, os::NodeOs *node)
        : parent_(std::move(parent)), node_(node)
    {}

    const std::shared_ptr<os::Task> &parent() const { return parent_; }
    os::NodeOs *node() const { return node_; }

    uint64_t cxlBytes() const override { return 0; }

    uint64_t
    localBytes() const override
    {
        return parent_->mm().localFootprintBytes();
    }

    /**
     * The checkpoint *is* the live parent: it is complete exactly while
     * the parent still runs on its node. After a node crash the pid is
     * gone, so recovery always reclaims LocalFork journal records.
     */
    bool
    complete() const override
    {
        return node_ && parent_ && node_->findTask(parent_->pid()) != nullptr;
    }

  private:
    std::shared_ptr<os::Task> parent_;
    os::NodeOs *node_;
};

/** The local fork() "mechanism". */
class LocalFork : public RemoteForkMechanism
{
  public:
    const char *name() const override { return "LocalFork"; }

    std::shared_ptr<CheckpointHandle>
    checkpoint(os::NodeOs &node, os::Task &parent,
               CheckpointStats *stats = nullptr) override;

    std::shared_ptr<os::Task>
    restore(const std::shared_ptr<CheckpointHandle> &handle,
            os::NodeOs &target, const RestoreOptions &opts = {},
            RestoreStats *stats = nullptr) override;

  private:
    // LocalFork is default-constructed with no machine in sight, so its
    // metric handles resolve lazily on first restore, keyed by machine:
    // benches reuse one LocalFork across per-point machines.
    mem::Machine *handleMachine_ = nullptr;
    MechanismMetrics metrics_;
};

} // namespace cxlfork::rfork
