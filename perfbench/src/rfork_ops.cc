#include <cmath>

#include "faas/workloads.hh"
#include "rfork/criu.hh"
#include "rfork/cxlfork.hh"
#include "rfork/mitosis.hh"
#include "workloads.hh"

namespace perfbench {

const char *
mechKey(Mechanism m)
{
    switch (m) {
      case Mechanism::CxlFork:
        return "cxlfork";
      case Mechanism::MitosisCxl:
        return "mitosis";
      case Mechanism::CriuCxl:
        return "criu";
    }
    return "?";
}

Mechanisms
makeMechanisms(cxl::CxlFabric &f)
{
    Mechanisms mechs;
    mechs[Mechanism::CxlFork] = std::make_unique<rfork::CxlFork>(f);
    mechs[Mechanism::MitosisCxl] = std::make_unique<rfork::MitosisCxl>(f);
    mechs[Mechanism::CriuCxl] = std::make_unique<rfork::CriuCxl>(f);
    return mechs;
}

faas::FunctionSpec
seededSpec(const std::string &name, sim::Rng &rng)
{
    faas::FunctionSpec spec = faas::findWorkload(name).value();
    spec.seed = rng.raw();
    const double scale = rng.uniform(0.995, 1.005);
    spec.footprintBytes =
        uint64_t(std::llround(double(spec.footprintBytes) * scale /
                              double(mem::kPageSize))) *
        mem::kPageSize;
    return spec;
}

std::unique_ptr<faas::FunctionInstance>
deployWarmParent(os::NodeOs &node, const faas::FunctionSpec &spec,
                 uint32_t warm, Ledger &setupLedger)
{
    auto parent = setupLedger.call("faas.deploy", node, [&] {
        return faas::FunctionInstance::deployCold(node, spec);
    });
    for (uint32_t i = 0; i < warm; ++i)
        parent->invoke();
    parent->task().mm().pageTable().clearAccessedBits(/*alsoDirty=*/true);
    parent->invoke();
    return parent;
}

void
RestoreRecorder::exportTo(Outcome &out) const
{
    putPercentiles(out.e2e, "sim_restore_ms", restoreNs);
    out.e2e["sim_restore_ms.mean"] = restoreNs.mean() / 1e6;
    putPercentiles(out.e2e, "sim_request_ms", requestNs);
    out.e2e["sim_request_ms.mean"] = requestNs.mean() / 1e6;
    out.e2e["sim_local_mb"] = mean(localMb);
    out.layer["rfork.restore.memory_state_sim_ms"] = memoryStateNs / 1e6;
    out.layer["rfork.restore.global_state_sim_ms"] = globalStateNs / 1e6;
    out.layer["rfork.restore.data_copy_sim_ms"] = dataCopyNs / 1e6;
    out.layer["rfork.restore.pages_copied"] = double(pagesCopied);
    out.layer["rfork.restore.leaves_attached"] = double(leavesAttached);
    out.layer["rfork.restore.retries"] = double(retries);
    out.layer["rfork.restore.failed"] = double(failed);
    out.layer["faas.invoke.fault_sim_ms"] = invokeFaultNs / 1e6;
}

void
invokeOnce(Ledger &ledger, faas::FunctionInstance &inst,
           RestoreRecorder &rec)
{
    os::NodeOs &node = inst.node();
    const sim::SimTime faults0 = node.faultTime();
    ledger.call("faas.invoke", node, [&] { inst.invoke(); });
    rec.invokeFaultNs += (node.faultTime() - faults0).toNs();
}

bool
restoreOp(porter::Cluster &cluster, Ledger &ledger,
          rfork::RemoteForkMechanism &mech, Mechanism kind,
          const rfork::PublishIdentity &id, const faas::FunctionSpec &spec,
          mem::NodeId target, RestoreRecorder &rec)
{
    os::NodeOs &node = cluster.node(target);
    rfork::CheckpointStore &store = cluster.checkpoints();
    const sim::SimTime request0 = node.clock().now();

    const std::optional<cxl::Cid> cid = ledger.call(
        "cxl.object_store.lookup",
        [&] { return store.lookup(id.user, id.function); });
    std::shared_ptr<rfork::CheckpointHandle> handle =
        cid ? store.get(*cid) : nullptr;
    if (!handle) {
        ++rec.failed;
        return false;
    }

    const uint64_t mem0 = node.localDram().usedBytes();
    const sim::SimTime restore0 = node.clock().now();
    rfork::RestoreStats rs;
    const std::string perMech = std::string("rfork.") + mechKey(kind) +
                                ".restore";
    rfork::RestoreOutcome outcome =
        ledger.call("rfork.restore", node, [&] {
            return ledger.call(perMech, node, [&] {
                return mech.tryRestore(handle, node, {}, {}, &rs);
            });
        });
    rec.retries += outcome.retries;
    if (!outcome) {
        ++rec.failed;
        return false;
    }
    rec.memoryStateNs += rs.memoryState.toNs();
    rec.globalStateNs += rs.globalState.toNs();
    rec.dataCopyNs += rs.dataCopy.toNs();
    rec.pagesCopied += rs.pagesCopied;
    rec.leavesAttached += rs.leavesAttached;

    auto child = faas::FunctionInstance::adoptRestored(node, spec,
                                                       outcome.task);
    invokeOnce(ledger, *child, rec);
    rec.restoreNs.add(node.clock().now() - restore0);
    rec.localMb.push_back(double(node.localDram().usedBytes() - mem0) /
                          double(1 << 20));
    child->destroy();
    rec.requestNs.add(node.clock().now() - request0);
    return true;
}

void
verifyRestore(rfork::RemoteForkMechanism &mech,
              const std::shared_ptr<rfork::CheckpointHandle> &handle,
              faas::FunctionInstance &parent, os::NodeOs &target,
              Sabotage sabotage, const std::string &label, Checks &checks)
{
    rfork::RestoreOutcome outcome = mech.tryRestore(handle, target);
    checks.expect(bool(outcome), "verify_restore",
                  label + ": " + outcome.message);
    if (!outcome)
        return;
    const auto [pages, bad] = compareImages(
        parent.node(), parent.task(), target, *outcome.task,
        sabotage == Sabotage::WrongToken ? 1 : 0);
    checks.expect(pages > 0 && bad == 0, "restored_tokens",
                  label + ": " + std::to_string(bad) + " of " +
                      std::to_string(pages) + " pages differ");
    target.exitTask(outcome.task);
}

uint64_t
opCount(double seconds, double perSecond, uint64_t floor, uint64_t block)
{
    uint64_t n = std::max<uint64_t>(floor, uint64_t(seconds * perSecond));
    return (n + block - 1) / block * block;
}

} // namespace perfbench
