/**
 * @file
 * Partition soak CLI: the link-health / heartbeat / epoch-fence /
 * restore-ladder stack under sustained link chaos.
 *
 * Runs the partition preset of porter::Scenario (porter/scenario.hh)
 * for each mechanism: hundreds of rounds of publish / restore while
 * links flap, whole nodes are cut off and quarantined, publishes are
 * severed mid-flight, and the split-brain zombie scenario is replayed
 * every few rounds. Exits 1 if any audited invariant is violated — a
 * restore that is neither byte-identical nor provably degraded, a
 * zombie publish the fence let through, a leaked frame, or a survival
 * fraction below the threshold. A malformed flag prints the usage line
 * and exits 2.
 *
 * Usage:
 *   partition_soak [--mechanism cxlfork|criu|mitosis|localfork]
 *                  [--rounds N] [--replicas K] [--seed S] [--negative]
 *                  [--min-survival F]
 *
 *   --negative   run with the epoch fence OFF; the returning zombie's
 *                publish is EXPECTED to double-publish, and the run
 *                fails if it never does — the control that proves the
 *                fence is load-bearing
 *   --min-survival F
 *                fail if any mechanism's restore-survival fraction
 *                falls below F (default 0.9; ignored in --negative
 *                mode)
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
        tools::parseSoakFlags(argc, argv, porter::Scenario::partition);

    sim::Table t(f.negative
                     ? "Partition soak, negative control (epoch fence "
                       "off): the zombie double-publish must appear"
                     : "Partition soak: publish/restore under link flaps, "
                       "quarantines, and split-brain replays");
    t.setHeader({"Mechanism", "Rounds", "Invocations", "OK", "Direct",
                 "Retried", "Failover", "Cold", "Reroutes", "Quar",
                 "Fenced", "Double", "Survival", "Verdict"});

    bool violated = false;
    bool anyDouble = false;
    bool belowThreshold = false;
    for (rfork::MechanismKind mech : f.mechanisms) {
        porter::Scenario s = f.scenario;
        s.mechanism = mech;
        const porter::Report rep = porter::run(s);
        violated |= !rep.pass;
        anyDouble |= rep.doublePublishes > 0;
        belowThreshold |= rep.restoreSurvival() < f.minSurvival;
        t.addRow({rfork::mechanismName(mech),
                  std::to_string(rep.rounds),
                  std::to_string(rep.invocations),
                  std::to_string(rep.restoresOk),
                  std::to_string(rep.directRestores),
                  std::to_string(rep.retriedRestores),
                  std::to_string(rep.failovers),
                  std::to_string(rep.coldStarts),
                  std::to_string(rep.reroutes),
                  std::to_string(rep.quarantines),
                  std::to_string(rep.stalePublishesRejected),
                  std::to_string(rep.doublePublishes),
                  sim::Table::num(rep.restoreSurvival(), 4),
                  rep.pass ? "ok" : rep.firstViolation});
    }
    t.addNote("Every restore must land on a ladder rung byte-identical "
              "or degrade to an honest cold start; zombie publishes "
              "must be fenced; the teardown census must balance.");
    t.print();

    if (violated) {
        std::printf("FAIL: partition soak invariant violated\n");
        return 1;
    }
    if (f.negative && !anyDouble) {
        std::printf("FAIL: negative control never double-published (the "
                    "epoch fence is not load-bearing)\n");
        return 1;
    }
    if (!f.negative && belowThreshold) {
        std::printf("FAIL: restore survival fell below %.4f\n",
                    f.minSurvival);
        return 1;
    }
    std::printf(f.negative
                    ? "PASS: split-brain double-publish demonstrated "
                      "without the fence\n"
                    : "PASS: partition soak held every invariant\n");
    return 0;
}
