/**
 * @file
 * Deterministic crash-point enumeration harness.
 *
 * For one mechanism and one small workload, the harness first counts
 * the crash sites a published checkpoint passes through (dry run in
 * FaultInjector count mode), then replays the checkpoint once per site
 * k on a fresh cluster with the injector armed to crash exactly at k.
 * After each crash it runs the node-restart recovery pass and checks:
 *
 *   - no STAGED journal record survives recovery,
 *   - lookup() either misses or returns an image that restores and
 *     reproduces every page token,
 *   - the teardown audit of harness_core.hh passes: no frame from the
 *     interrupted checkpoint remains allocated, and every allocator,
 *     store and directory audit holds.
 *
 * Running the same enumeration with PublishPolicy::DirectPutUnsafe
 * demonstrably fails: mid-build crashes leave a half-built image
 * visible to lookup().
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "porter/cluster.hh"
#include "porter/harness_core.hh"
#include "rfork/mechanism.hh"
#include "rfork/rfork.hh"

namespace cxlfork::porter {

/** One enumeration campaign. */
struct CrashEnumConfig
{
    rfork::MechanismKind mechanism = rfork::MechanismKind::CxlFork;
    uint64_t heapPages = 16; ///< Parent heap footprint, in pages.
    rfork::PublishPolicy policy = rfork::PublishPolicy::TwoPhase;

    /** Page-store config for the fresh cluster each replay builds. */
    cxl::PageStoreConfig pageStore;

    /**
     * When nonzero, heap page tokens repeat with this period, so with
     * dedup enabled the checkpoint shares frames between its own pages
     * — exercising crash recovery of manifest pins on shared frames.
     * Zero keeps every page unique.
     */
    uint64_t tokenPeriod = 0;

    /**
     * Fabric coherence mode for each replay's fresh cluster. Off (the
     * default) enumerates exactly the pre-coherence site list;
     * HdmH/HdmD add the directory's own crash sites (coherence.read /
     * .write / .flush) to the sweep, proving a crash inside a
     * coherence operation recovers as cleanly as every other site.
     */
    cxl::CoherenceMode coherence = cxl::CoherenceMode::Off;

    /**
     * Fabric queue-model config for each replay's fresh cluster. Off
     * (the default) enumerates exactly the pre-contention site list;
     * armed it must enumerate the *same* list — the queue charges
     * simulated time but deliberately adds no crash sites — and every
     * site must still recover restorable-or-absent with zero leaks.
     */
    cxl::FabricQueueConfig contention;
};

/** What happened when the checkpoint crashed (or ran) at one site. */
struct CrashSiteResult
{
    uint64_t site = 0;
    bool crashed = false;        ///< NodeCrashError fired at this site.
    bool imageAvailable = false; ///< lookup() hit after recovery.
    bool restored = false;       ///< The published image restored + verified.
    bool violation = false;
    std::string detail;          ///< First violated invariant, if any.
    uint64_t framesLeaked = 0;
    uint64_t framesReclaimed = 0; ///< Frames the recovery pass returned.
    sim::SimTime recoveryTime;
};

/** The full site sweep for one config. */
using CrashEnumReport = harness::SiteSweepReport<CrashSiteResult>;

/**
 * Dry-run the published checkpoint in count mode.
 * @return the number of crash sites it passes through.
 */
uint64_t countCrashSites(const CrashEnumConfig &cfg);

/**
 * Checkpoint on a fresh cluster with a crash armed at `site`, then
 * recover, restore-verify, tear down, and audit. site >= the counted
 * total runs the crash-free control.
 */
CrashSiteResult runCrashAtSite(const CrashEnumConfig &cfg, uint64_t site);

/** Run every site plus the crash-free control. */
CrashEnumReport enumerateCrashSites(const CrashEnumConfig &cfg);

} // namespace cxlfork::porter
