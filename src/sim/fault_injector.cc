#include "fault_injector.hh"

#include "error.hh"
#include "metrics.hh"

namespace cxlfork::sim {

const char *
errClassName(ErrClass c)
{
    switch (c) {
      case ErrClass::TransientCxl:
        return "transient-cxl";
      case ErrClass::PoisonedFrame:
        return "poisoned-frame";
      case ErrClass::CapacityExhausted:
        return "capacity-exhausted";
      case ErrClass::CorruptImage:
        return "corrupt-image";
      case ErrClass::NodeFailed:
        return "node-failed";
      case ErrClass::NodeCrashed:
        return "node-crashed";
      case ErrClass::FabricPartition:
        return "fabric-partition";
      case ErrClass::StaleEpoch:
        return "stale-epoch";
    }
    return "?";
}

std::string
FaultOrigin::describe() const
{
    if (!known())
        return "";
    std::string out = " [";
    if (frameAddr != 0) {
        out += format("frame=%#llx", (unsigned long long)frameAddr);
        if (node == kCxlDevice)
            out += " owner=cxl-device";
        else if (node != kNoNode)
            out += format(" owner=node%u", node);
    }
    if (cid != 0) {
        if (frameAddr != 0)
            out += " ";
        out += format("cid=%llu", (unsigned long long)cid);
    }
    if (link != kNoLink) {
        if (out.size() > 2)
            out += " ";
        if (node != kNoNode && node != kCxlDevice)
            out += format("link=node%u:dom%u", node, link);
        else
            out += format("link=dom%u", link);
    }
    return out + "]";
}

void
rethrowWithCid(const SimError &e, uint64_t cid)
{
    // The frame-level origin was already rendered into what() at the
    // original throw site; the CID is the only new information, so the
    // rethrown origin carries just the CID and describe() appends only
    // " [cid=N]" — no duplicated frame text. Callers that need the
    // frame address catch before this rethrow.
    const std::string what = e.what();
    const FaultOrigin withCid{0, FaultOrigin::kNoNode, cid};
    switch (e.errClass()) {
      case ErrClass::TransientCxl:
        throw TransientFaultError(what, withCid);
      case ErrClass::PoisonedFrame:
        throw PoisonedFrameError(what, withCid);
      case ErrClass::CapacityExhausted:
        throw CapacityError(what + withCid.describe());
      case ErrClass::CorruptImage:
        throw CorruptImageError(what, withCid);
      case ErrClass::NodeFailed:
        throw NodeFailedError(what + withCid.describe());
      case ErrClass::NodeCrashed:
        throw NodeCrashError(what + withCid.describe());
      case ErrClass::FabricPartition:
        throw FabricPartitionError(what, withCid);
      case ErrClass::StaleEpoch:
        throw StaleEpochError(what, withCid);
    }
    throw SimError(e.errClass(), what, withCid);
}

namespace {

// Distinct stream salts so per-class schedules are independent of one
// another and of the base seed's other uses.
constexpr uint64_t kTransientSalt = 0x7261'6e73'6965'6e74ULL;
constexpr uint64_t kPoisonSalt = 0x706f'6973'6f6e'6564ULL;
constexpr uint64_t kTornSalt = 0x746f'726e'7772'6974ULL;
constexpr uint64_t kBackoffSalt = 0x6261'636b'6f66'6673ULL;
constexpr uint64_t kLinkSeverSalt = 0x7365'7665'7265'6421ULL;
constexpr uint64_t kLinkDegradeSalt = 0x6465'6772'6164'6564ULL;

} // namespace

FaultInjector::FaultInjector(FaultConfig cfg)
    : cfg_(cfg), armed_(cfg.anyEnabled()),
      transientRng_(cfg.seed ^ kTransientSalt),
      poisonRng_(cfg.seed ^ kPoisonSalt), tornRng_(cfg.seed ^ kTornSalt),
      backoffRng_(cfg.seed ^ kBackoffSalt),
      linkSeverRng_(cfg.seed ^ kLinkSeverSalt),
      linkDegradeRng_(cfg.seed ^ kLinkDegradeSalt)
{
}

void
FaultInjector::setConfig(const FaultConfig &cfg)
{
    cfg_ = cfg;
    armed_ = cfg.anyEnabled();
    transientRng_ = Rng(cfg.seed ^ kTransientSalt);
    poisonRng_ = Rng(cfg.seed ^ kPoisonSalt);
    tornRng_ = Rng(cfg.seed ^ kTornSalt);
    backoffRng_ = Rng(cfg.seed ^ kBackoffSalt);
    linkSeverRng_ = Rng(cfg.seed ^ kLinkSeverSalt);
    linkDegradeRng_ = Rng(cfg.seed ^ kLinkDegradeSalt);
    stats_ = FaultStats{};
    // Full reset semantics: a reconfigured injector starts with crash
    // sites off, like a freshly constructed one.
    crashMode_ = CrashMode::Off;
    crashSiteCursor_ = 0;
    crashTarget_ = 0;
    linkEventHook_ = nullptr;
}

void
FaultInjector::crashPointSlow(const char *site)
{
    const uint64_t idx = crashSiteCursor_++;
    if (crashMode_ == CrashMode::LinkEvent) {
        if (idx != crashTarget_)
            return;
        // One-shot like a crash, but the operation keeps running: the
        // link event's damage shows up on the *next* transaction that
        // crosses the now-severed path.
        crashMode_ = CrashMode::Off;
        if (linkEventHook_) {
            auto hook = std::move(linkEventHook_);
            linkEventHook_ = nullptr;
            hook();
        }
        return;
    }
    if (crashMode_ != CrashMode::Armed || idx != crashTarget_)
        return;
    ++stats_.crashesInjected;
    if (crashCounter_)
        crashCounter_->inc();
    // One-shot: disarm before throwing so recovery and any later
    // operations in the same run execute crash-free.
    crashMode_ = CrashMode::Off;
    throw NodeCrashError(format(
        "node crash injected at site %llu (%s)",
        (unsigned long long)idx, site));
}

void
FaultInjector::attachMetrics(MetricsRegistry *m)
{
    if (!m) {
        injectedCounter_ = retriedCounter_ = escalatedCounter_ = nullptr;
        poisonedCounter_ = tornCounter_ = crashCounter_ = nullptr;
        orphansReclaimedCounter_ = orphansCompletedCounter_ = nullptr;
        return;
    }
    injectedCounter_ = &m->counter("sim.faults.transients_injected");
    retriedCounter_ = &m->counter("sim.faults.transients_retried");
    escalatedCounter_ = &m->counter("sim.faults.transients_escalated");
    poisonedCounter_ = &m->counter("sim.faults.frames_poisoned");
    tornCounter_ = &m->counter("sim.faults.torn_writes");
    crashCounter_ = &m->counter("sim.faults.crashes_injected");
    orphansReclaimedCounter_ = &m->counter("sim.faults.orphans_reclaimed");
    orphansCompletedCounter_ = &m->counter("sim.faults.orphans_completed");
}

void
FaultInjector::noteTransientRetried()
{
    ++stats_.transientsRetried;
    if (retriedCounter_)
        retriedCounter_->inc();
}

void
FaultInjector::noteTransientEscalated()
{
    ++stats_.transientsEscalated;
    if (escalatedCounter_)
        escalatedCounter_->inc();
}

void
FaultInjector::noteRecovery(uint64_t reclaimed, uint64_t completed)
{
    stats_.orphansReclaimed += reclaimed;
    stats_.orphansCompleted += completed;
    if (orphansReclaimedCounter_)
        orphansReclaimedCounter_->inc(reclaimed);
    if (orphansCompletedCounter_)
        orphansCompletedCounter_->inc(completed);
}

void
FaultInjector::noteTransientInjected()
{
    ++stats_.transientsInjected;
    if (injectedCounter_)
        injectedCounter_->inc();
}

bool
FaultInjector::drawPoison()
{
    if (cfg_.framePoisonRate <= 0.0)
        return false;
    if (!poisonRng_.chance(cfg_.framePoisonRate))
        return false;
    ++stats_.framesPoisoned;
    if (poisonedCounter_)
        poisonedCounter_->inc();
    return true;
}

bool
FaultInjector::drawTornWrite()
{
    if (cfg_.tornWriteRate <= 0.0)
        return false;
    if (!tornRng_.chance(cfg_.tornWriteRate))
        return false;
    ++stats_.tornWrites;
    if (tornCounter_)
        tornCounter_->inc();
    return true;
}

uint64_t
FaultInjector::pickVictim(uint64_t n)
{
    return n ? tornRng_.index(n) : 0;
}

} // namespace cxlfork::sim
