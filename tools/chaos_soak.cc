/**
 * @file
 * Chaos soak CLI: the RAS layer under sustained mixed fault injection.
 *
 * Runs the chaos preset of porter::Scenario (porter/scenario.hh) for
 * each mechanism: hundreds of rounds of publish / restore / scrub under
 * combined birth poison, post-birth poison strikes, transient
 * transaction errors, and seeded mid-publish node crashes. Exits 1
 * if any audited invariant is violated — a restore that is neither
 * byte-identical nor provably reclaimed, a leaked frame, or a failed
 * teardown audit. A malformed flag prints the usage line and exits 2.
 *
 * Usage:
 *   chaos_soak [--mechanism cxlfork|criu|mitosis|localfork]
 *              [--rounds N] [--replicas K] [--seed S] [--negative]
 *              [--min-survival F]
 *
 *   --negative   run with replicas == 0 (RAS off) unless --replicas
 *                says otherwise; checkpoints are EXPECTED to be lost,
 *                and the run fails if none are — the control that
 *                proves the harness can see losses
 *   --min-survival F
 *                fail if any mechanism's checkpoint-survival fraction
 *                falls below F (default 0.9; ignored in --negative
 *                mode, where losses are the point)
 */

#include <cstdio>
#include <string>

#include "flags.hh"
#include "sim/table.hh"

using namespace cxlfork;

int
main(int argc, char **argv)
{
    const tools::SoakFlags f =
        tools::parseSoakFlags(argc, argv, porter::Scenario::chaos);

    sim::Table t(f.negative
                     ? "Chaos soak, negative control (replicas=0): losses "
                       "expected, invariants still audited"
                     : "Chaos soak: publish/restore/scrub under poison + "
                       "transients + crashes");
    t.setHeader({"Mechanism", "Rounds", "Invocations", "Published", "OK",
                 "Cold", "Lost", "Repairs", "Strikes", "Crashes",
                 "Survival", "Verdict"});

    bool violated = false;
    bool anyLost = false;
    bool belowThreshold = false;
    for (rfork::MechanismKind mech : f.mechanisms) {
        porter::Scenario s = f.scenario;
        s.mechanism = mech;
        const porter::Report rep = porter::run(s);
        violated |= !rep.pass;
        anyLost |= rep.checkpointsLost > 0;
        belowThreshold |= rep.checkpointSurvival() < f.minSurvival;
        t.addRow({rfork::mechanismName(mech),
                  std::to_string(rep.rounds),
                  std::to_string(rep.invocations),
                  std::to_string(rep.checkpointsPublished),
                  std::to_string(rep.restoresOk),
                  std::to_string(rep.coldStarts),
                  std::to_string(rep.checkpointsLost),
                  std::to_string(rep.repairs),
                  std::to_string(rep.strikes),
                  std::to_string(rep.crashesInjected),
                  sim::Table::num(rep.checkpointSurvival(), 4),
                  rep.pass ? "ok" : rep.firstViolation});
    }
    t.addNote("Every restore must be byte-identical or end in a provable "
              "reclaim; the teardown census must balance to zero leaks.");
    t.print();

    if (violated) {
        std::printf("FAIL: chaos soak invariant violated\n");
        return 1;
    }
    if (f.negative && !anyLost) {
        std::printf("FAIL: negative control lost no checkpoints (the "
                    "harness cannot see losses)\n");
        return 1;
    }
    if (!f.negative && belowThreshold) {
        std::printf("FAIL: checkpoint survival fell below %.4f\n",
                    f.minSurvival);
        return 1;
    }
    std::printf(f.negative ? "PASS: losses observed and provably reclaimed\n"
                         : "PASS: chaos soak held every invariant\n");
    return 0;
}
