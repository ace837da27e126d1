/**
 * @file
 * Crash-point enumeration sweep CLI.
 *
 * Enumerates every injected crash site of a published checkpoint for
 * each mechanism, crashes there, recovers, and audits the machine-wide
 * invariants (no leaked frames, no torn image visible, no surviving
 * STAGED journal record). Exits 1 if any site violates them; a
 * malformed flag prints the usage line and exits 2.
 *
 * Usage:
 *   crash_sweep [--mechanism cxlfork|criu|mitosis|localfork]
 *               [--pages N] [--unsafe] [--site K]
 *
 *   --mechanism  restrict the sweep to one mechanism (default: all four)
 *   --pages      parent heap footprint in pages (default: 16)
 *   --unsafe     publish with PublishPolicy::DirectPutUnsafe; the sweep
 *                is expected to FAIL, demonstrating why the two-phase
 *                journal exists
 *   --site       run only site K per mechanism instead of the full
 *                enumeration (K past the counted range runs the
 *                crash-free control) — the replay for one failing site
 */

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "flags.hh"
#include "porter/crash_harness.hh"
#include "sim/table.hh"

using namespace cxlfork;

namespace {

void
addSiteRow(sim::Table &t, rfork::MechanismKind mech,
           const porter::CrashSiteResult &r)
{
    t.addRow({rfork::mechanismName(mech), std::to_string(r.site),
              r.crashed ? "yes" : "no", r.imageAvailable ? "yes" : "no",
              r.restored ? "yes" : "no",
              std::to_string(r.framesReclaimed),
              sim::Table::num(r.recoveryTime.toUs(), 2),
              r.violation ? r.detail : "ok"});
}

} // namespace

int
main(int argc, char **argv)
{
    const tools::Flags flags(
        argv[0], "[--mechanism cxlfork|criu|mitosis|localfork] "
                 "[--pages N] [--unsafe] [--site K]");
    std::vector<rfork::MechanismKind> mechanisms(rfork::kAllMechanisms.begin(),
                                                 rfork::kAllMechanisms.end());
    uint64_t pages = 16;
    rfork::PublishPolicy policy = rfork::PublishPolicy::TwoPhase;
    std::optional<uint64_t> site;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--mechanism" && i + 1 < argc) {
            mechanisms = {flags.mechanism(argv[++i])};
        } else if (arg == "--pages" && i + 1 < argc) {
            pages = flags.count(argv[++i], 1, UINT64_MAX / mem::kPageSize);
        } else if (arg == "--unsafe") {
            policy = rfork::PublishPolicy::DirectPutUnsafe;
        } else if (arg == "--site" && i + 1 < argc) {
            site = flags.count(argv[++i]);
        } else {
            flags.usage();
        }
    }

    bool violated = false;

    if (site) {
        sim::Table t("Single crash site (--site " + std::to_string(*site) +
                     ")");
        t.setHeader({"Mechanism", "Site", "Crashed", "Image", "Restored",
                     "Frames recl", "Recovery (us)", "Verdict"});
        for (rfork::MechanismKind mech : mechanisms) {
            porter::CrashEnumConfig cfg;
            cfg.mechanism = mech;
            cfg.heapPages = pages;
            cfg.policy = policy;
            const porter::CrashSiteResult r =
                porter::runCrashAtSite(cfg, *site);
            violated |= r.violation;
            addSiteRow(t, mech, r);
        }
        t.print();
        return violated ? 1 : 0;
    }

    sim::Table summary("Crash-point enumeration: crash at every site of "
                       "checkpoint publication, recover, audit");
    summary.setHeader({"Mechanism", "Sites", "Crashed runs", "Images kept",
                       "Violations", "First violation"});

    for (rfork::MechanismKind mech : mechanisms) {
        porter::CrashEnumConfig cfg;
        cfg.mechanism = mech;
        cfg.heapPages = pages;
        cfg.policy = policy;
        const porter::CrashEnumReport rep =
            porter::enumerateCrashSites(cfg);

        uint64_t crashed = 0, kept = 0, violations = 0;
        for (const porter::CrashSiteResult &r : rep.results) {
            crashed += r.crashed;
            kept += r.imageAvailable;
            violations += r.violation;
        }
        violated |= !rep.pass;

        summary.addRow({rfork::mechanismName(mech),
                        std::to_string(rep.sites),
                        std::to_string(crashed), std::to_string(kept),
                        std::to_string(violations),
                        rep.pass ? "none" : rep.firstViolation});

        if (!rep.pass) {
            sim::Table detail(std::string("Violating sites: ") +
                              rfork::mechanismName(mech));
            detail.setHeader({"Mechanism", "Site", "Crashed", "Image",
                              "Restored", "Frames recl", "Recovery (us)",
                              "Verdict"});
            for (const porter::CrashSiteResult &r : rep.results) {
                if (r.violation)
                    addSiteRow(detail, mech, r);
            }
            detail.print();
        }
    }

    summary.addNote("Entry k == sites is the crash-free control run; "
                    "images survive only when the crash lands after the "
                    "publish write.");
    summary.print();

    if (violated) {
        std::printf("FAIL: crash-consistency invariant violated\n");
        return 1;
    }
    std::printf("PASS: all sites recover cleanly\n");
    return 0;
}
