/**
 * @file
 * The three workloads and the rfork pieces two of them share.
 *
 * Each workload builds its own porter::ClusterConfig (or PorterConfig)
 * field by field and reads no environment variable, so nothing outside
 * the command line can change what is measured. The seed reaches the
 * program only as generated inputs: tenant contents (page-token seed
 * and a +-0.5% heap-size draw), restore_burst's op order,
 * checkpoint_churn's fault streams and the porter traces.
 */

#pragma once

#include <array>
#include <map>
#include <memory>
#include <string>

#include "faas/function.hh"
#include "harness.hh"
#include "porter/cluster.hh"
#include "porter/perf_model.hh"
#include "rfork/rfork.hh"
#include "sim/rng.hh"

namespace perfbench {

/** Run one pass: `setupRepeats` setups (the last one is kept), the
 *  timed phase, then the correctness checks. */
Outcome runRestoreBurst(const RunOptions &opts, unsigned setupRepeats);
Outcome runCheckpointChurn(const RunOptions &opts, unsigned setupRepeats);
Outcome runPorterTrace(const RunOptions &opts, unsigned setupRepeats);

using porter::Mechanism;

/** The three remote-fork designs the paper compares, in op order. */
constexpr std::array<Mechanism, 3> kMechs{
    Mechanism::CxlFork, Mechanism::MitosisCxl, Mechanism::CriuCxl};

/** The mechanism's name in metric keys: cxlfork, mitosis or criu. */
const char *mechKey(Mechanism m);

/** One instance of every mechanism in kMechs, on one fabric. */
using Mechanisms =
    std::map<Mechanism, std::unique_ptr<rfork::RemoteForkMechanism>>;
Mechanisms makeMechanisms(cxl::CxlFabric &f);

/**
 * A Table-1 function as one tenant's input: the seed draws its page
 * tokens and scales its footprint by a factor in [0.995, 1.005].
 */
faas::FunctionSpec seededSpec(const std::string &name, sim::Rng &rng);

/**
 * Deploy `spec` on `node`, run `warm` invocations, clear A/D bits and
 * invoke once more, so the checkpoint captures the steady access
 * pattern (the CXLporter recipe). Deploys are booked as `faas.deploy`.
 */
std::unique_ptr<faas::FunctionInstance>
deployWarmParent(os::NodeOs &node, const faas::FunctionSpec &spec,
                 uint32_t warm, Ledger &setupLedger);

/** The restore and invoke side of the ops, accumulated over a pass. */
struct RestoreRecorder
{
    sim::Histogram restoreNs; ///< tryRestore + first invoke.
    sim::Histogram requestNs; ///< lookup through destroy.
    std::vector<double> localMb;
    double memoryStateNs = 0.0;
    double globalStateNs = 0.0;
    double dataCopyNs = 0.0;
    uint64_t pagesCopied = 0;
    uint64_t leavesAttached = 0;
    uint64_t retries = 0;
    uint64_t failed = 0;
    double invokeFaultNs = 0.0; ///< Fault handling inside faas.invoke.

    /** sim_restore_ms.*, sim_request_ms.*, sim_local_mb, rfork.restore.*. */
    void exportTo(Outcome &out) const;
};

/** One invocation, booked as `faas.invoke` with its fault time. */
void invokeOnce(Ledger &ledger, faas::FunctionInstance &inst,
                RestoreRecorder &rec);

/**
 * One op of the closed loop on `target`: ObjectStore::lookup, then
 * tryRestore with `mech`, then the child's first invoke, then destroy.
 * @return false when the restore ended in a typed error.
 */
bool restoreOp(porter::Cluster &cluster, Ledger &ledger,
               rfork::RemoteForkMechanism &mech, Mechanism kind,
               const rfork::PublishIdentity &id,
               const faas::FunctionSpec &spec, mem::NodeId target,
               RestoreRecorder &rec);

/**
 * The verification restore: restore `handle` on `target` and compare
 * every page the parent holds with the child's view.
 */
void verifyRestore(rfork::RemoteForkMechanism &mech,
                   const std::shared_ptr<rfork::CheckpointHandle> &handle,
                   faas::FunctionInstance &parent, os::NodeOs &target,
                   Sabotage sabotage, const std::string &label,
                   Checks &checks);

/**
 * Run `setUp()` `repeats` times and keep the last world. Each repeat's
 * thread CPU time goes to `out.setupCpuS`, scaled like a chunk of the
 * timed phase by the reference kernel run right after it. Each repeat
 * starts from a fresh `setupLedger`; the previous world is destroyed
 * untimed.
 */
template <typename SetUp>
auto
repeatSetUp(unsigned repeats, Outcome &out, Ledger &setupLedger,
            SetUp &&setUp)
{
    ReferenceKernel kernel;
    decltype(setUp()) world;
    for (unsigned i = 0; i < repeats; ++i) {
        world.reset();
        setupLedger = Ledger{};
        const double t0 = threadCpuSeconds();
        world = setUp();
        const double cpu = threadCpuSeconds() - t0;
        out.setupCpuS.push_back(cpu * ReferenceKernel::kReferenceSeconds /
                                kernel.run());
    }
    return world;
}

/** Ops a timed phase of `seconds` runs at `perSecond`, at least `floor`,
 *  rounded up to a whole number of `block`s. */
uint64_t opCount(double seconds, double perSecond, uint64_t floor,
                 uint64_t block);

} // namespace perfbench
