/**
 * @file
 * Per-function performance profiles.
 *
 * The rfork benches drive every page access through the simulated OS.
 * The CXLporter cluster simulation replays thousands of requests, so
 * it uses profiles measured *once* through that same page-granular
 * machinery and then charged analytically (DESIGN.md Sec. 3 "two
 * execution granularities").
 */

#pragma once

#include <atomic>
#include <map>
#include <mutex>
#include <optional>
#include <string>

#include "faas/function.hh"
#include "os/mm.hh"
#include "rfork/mechanism.hh"
#include "sim/cost_model.hh"
#include "sim/time.hh"

namespace cxlfork::porter {

/**
 * Which remote-fork design a porter variant uses: the three
 * rfork::MechanismKind values that restore across nodes (the porter
 * cannot run LocalFork). Each value is its kind's value.
 */
enum class Mechanism : uint8_t {
    CriuCxl = uint8_t(rfork::MechanismKind::CriuCxl),
    MitosisCxl = uint8_t(rfork::MechanismKind::MitosisCxl),
    CxlFork = uint8_t(rfork::MechanismKind::CxlFork), ///< Tiering policy
                                                      ///< chosen per restore.
};

constexpr rfork::MechanismKind
kindOf(Mechanism m)
{
    return rfork::MechanismKind(uint8_t(m));
}

/** The porter mechanism of `kind`; none for LocalFork. */
constexpr std::optional<Mechanism>
porterMechanism(rfork::MechanismKind kind)
{
    if (kind == rfork::MechanismKind::LocalFork)
        return std::nullopt;
    return Mechanism(uint8_t(kind));
}

/** Measured behaviour of one (function, mechanism, policy) combo. */
struct PerfProfile
{
    sim::SimTime restoreLatency;  ///< rfork restore on the target node.
    sim::SimTime coldExecLatency; ///< First invocation after restore.
    sim::SimTime warmExecLatency; ///< Steady-state invocation.
    sim::SimTime warmLocalExec;   ///< Warm invocation, all data local.
    uint64_t localBytesAfterExec = 0; ///< Node memory per instance.
    uint64_t checkpointCxlBytes = 0;  ///< Device footprint (shared).
    uint64_t checkpointLocalBytes = 0; ///< Pinned on the parent node
                                       ///< (Mitosis shadow copies).
    sim::SimTime checkpointLatency;
    sim::SimTime coldStartLatency; ///< Full from-scratch deployment.
    sim::SimTime coldStartExec;    ///< First invocation after cold start.
    uint64_t coldLocalBytes = 0;   ///< Memory of a cold-started instance.
};

/** Profile key. */
struct ProfileKey
{
    std::string function;
    Mechanism mechanism;
    os::TieringPolicy policy;

    auto operator<=>(const ProfileKey &) const = default;
};

/**
 * Measures and caches PerfProfiles on a scratch cluster sized for the
 * largest function. Thread-safe: one model can be shared by all the
 * points of a parallel sweep, so each profile is measured once per
 * process. measure() is deterministic (it builds its own scratch
 * cluster), so cache contents are independent of thread interleaving.
 */
class PerfModel
{
  public:
    explicit PerfModel(sim::CostParams costs = {}) : costs_(costs) {}

    /** Measure (or return cached) profile. */
    const PerfProfile &profile(const faas::FunctionSpec &spec,
                               Mechanism mech, os::TieringPolicy policy);

    /**
     * Of a profile's checkpointCxlBytes, the bytes a second checkpoint
     * of the same function content (another tenant on the shared
     * runtime layers) finds already resident when content dedup is on.
     * Measured, not derived: two same-content parents are checkpointed
     * into a dedup-enabled scratch cluster and the device-usage deltas
     * are compared. Zero for mechanisms that keep no content on the
     * device. Measured on first use, cached per (function, mechanism):
     * profile() never measures it.
     */
    uint64_t sharedCxlBytes(const faas::FunctionSpec &spec, Mechanism mech);

    /** Dedup scratch clusters built so far by sharedCxlBytes(). */
    uint64_t dedupWorldsBuilt() const { return dedupWorlds_.load(); }

  private:
    PerfProfile measure(const faas::FunctionSpec &spec, Mechanism mech,
                        os::TieringPolicy policy);
    uint64_t measureSharedCxlBytes(const faas::FunctionSpec &spec,
                                   Mechanism mech);

    sim::CostParams costs_;
    std::atomic<uint64_t> dedupWorlds_{0};
    std::mutex mu_;
    std::map<ProfileKey, PerfProfile> cache_;
    std::map<std::pair<std::string, Mechanism>, uint64_t> sharedCache_;
};

} // namespace cxlfork::porter
