/**
 * @file
 * cxlfork — command-line driver for the simulation library.
 *
 * Subcommands:
 *   list                       List the Table-1 workloads.
 *   rfork   [flags]            Run one remote-fork scenario and print
 *                              the restore/fault/execution breakdown.
 *   porter  [flags]            Run a CXLporter cluster simulation.
 *
 * Common flags:
 *   --mechanism M              cxlfork | criu | mitosis (default cxlfork).
 *   --cxl-latency NS           CXL round-trip latency (default 391); the
 *                              porter measures its profiles under it.
 *   --nodes N                  Cluster nodes, 1-1024 (default 2).
 *
 * rfork flags:
 *   --function NAME            Workload (default Bert).
 *   --policy P                 mow | moa | hybrid (default mow).
 *   --invocations K            Invocations after restore (default 1).
 *   --target-node N            Restore node, modulo --nodes (default 1).
 *   --no-prefetch              Disable dirty-page prefetch.
 *
 * porter flags:
 *   --trace FILE               CSV trace `timestamp_seconds,function`
 *                              (e.g. a flattened Azure trace); otherwise
 *                              a seeded bursty trace is generated.
 *   --rps R --duration S       Load (default 150 rps, 30 s).
 *   --mem-gb G --mem-scale F   Node memory budget (default 8 GB, 1.0).
 *   --static-mow               Disable dynamic tiering control.
 *   --seed N                   Trace seed (default 0xa2).
 *
 * Numbers are plain decimals: an unknown flag, a missing value or a
 * malformed, negative or non-finite number prints the usage line and
 * exits 2. A bad function, mechanism or policy name, or a cluster the
 * simulator refuses (no memory, say), prints the error and exits 1.
 */

#include <cstdio>
#include <optional>
#include <string>

#include "faas/workloads.hh"
#include "flags.hh"
#include "porter/autoscaler.hh"
#include "porter/cluster.hh"
#include "porter/trace.hh"
#include "rfork/mechanism.hh"
#include "sim/log.hh"

namespace {

using namespace cxlfork;

/** Every flag of every subcommand, at its default. */
struct Options
{
    std::string function = "Bert";
    std::string mechanism = "cxlfork";
    std::string policy = "mow";
    /** Unset: rfork charges 391 ns and porter its default costs. */
    std::optional<double> cxlLatencyNs;
    uint32_t nodes = 2;

    // rfork
    uint64_t invocations = 1;
    uint64_t targetNode = 1;
    bool prefetch = true;

    // porter
    std::string trace;
    double rps = 150;
    double durationS = 30;
    uint64_t memGb = 8;
    double memScale = 1.0;
    bool staticMow = false;
    uint64_t seed = 0xa2;
};

/**
 * The flags after the subcommand, strictly: a flag the subcommand does
 * not take, a missing value or a malformed number prints the usage line
 * and exits 2 (tools/flags.hh). Range checks that need the simulator
 * (an empty node, say) are left to it, which throws sim::FatalError.
 */
Options
parseOptions(const std::string &cmd, int argc, char **argv)
{
    const tools::Flags flags(argv[0],
                             "<list|rfork|porter> [--flags] (see the "
                             "header of tools/cxlfork_cli.cc)");
    const bool rfork = cmd == "rfork";
    const bool porter = cmd == "porter";
    Options o;
    for (int i = 2; i < argc; ++i) {
        const std::string a = argv[i];
        const auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                flags.usage();
            return argv[++i];
        };
        if ((rfork || porter) && a == "--mechanism") {
            o.mechanism = value();
        } else if ((rfork || porter) && a == "--cxl-latency") {
            o.cxlLatencyNs = flags.number(value(), /*positive=*/true);
        } else if ((rfork || porter) && a == "--nodes") {
            o.nodes = uint32_t(flags.count(value(), 1, 1024));
        } else if (rfork && a == "--function") {
            o.function = value();
        } else if (rfork && a == "--policy") {
            o.policy = value();
        } else if (rfork && a == "--invocations") {
            o.invocations = flags.count(value(), 0, 1u << 20);
        } else if (rfork && a == "--target-node") {
            o.targetNode = flags.count(value());
        } else if (rfork && a == "--no-prefetch") {
            o.prefetch = false;
        } else if (porter && a == "--trace") {
            o.trace = value();
        } else if (porter && a == "--rps") {
            o.rps = flags.number(value(), /*positive=*/true);
        } else if (porter && a == "--duration") {
            o.durationS = flags.number(value(), /*positive=*/true);
        } else if (porter && a == "--mem-gb") {
            o.memGb = flags.count(value(), 0, 1u << 20);
        } else if (porter && a == "--mem-scale") {
            o.memScale = flags.number(value(), /*positive=*/true);
        } else if (porter && a == "--static-mow") {
            o.staticMow = true;
        } else if (porter && a == "--seed") {
            o.seed = flags.count(value());
        } else {
            flags.usage();
        }
    }
    return o;
}

os::TieringPolicy
policyOf(const std::string &p)
{
    if (p == "mow")
        return os::TieringPolicy::MigrateOnWrite;
    if (p == "moa")
        return os::TieringPolicy::MigrateOnAccess;
    if (p == "hybrid")
        return os::TieringPolicy::Hybrid;
    sim::fatal("unknown policy %s (mow|moa|hybrid)", p.c_str());
}

/** The --mechanism flag: one of the porter's three mechanisms. */
porter::Mechanism
mechanismArg(const Options &o)
{
    const std::optional<rfork::MechanismKind> kind =
        rfork::parseMechanism(o.mechanism);
    const std::optional<porter::Mechanism> mech =
        kind ? porter::porterMechanism(*kind) : std::nullopt;
    if (!mech) {
        sim::fatal("unknown mechanism %s (cxlfork|criu|mitosis)",
                   o.mechanism.c_str());
    }
    return *mech;
}

int
cmdList()
{
    std::printf("%-10s %-14s %-12s %-10s\n", "Function", "Footprint(MB)",
                "WorkSet(MB)", "VMAs");
    for (const auto &w : faas::table1Workloads()) {
        std::printf("%-10s %-14llu %-12llu %-10u\n", w.spec.name.c_str(),
                    (unsigned long long)(w.spec.footprintBytes >> 20),
                    (unsigned long long)(w.spec.effectiveWorkingSet() >> 20),
                    w.spec.vmaCount);
    }
    return 0;
}

int
cmdRfork(const Options &o)
{
    auto spec = faas::findWorkload(o.function);
    if (!spec)
        sim::fatal("unknown function %s (try `cxlfork list`)",
                   o.function.c_str());

    sim::CostParams costs;
    costs.cxlLatency = sim::SimTime::ns(o.cxlLatencyNs.value_or(391));
    porter::ClusterConfig cfg;
    cfg.machine.numNodes = o.nodes;
    cfg.machine.dramPerNodeBytes = mem::gib(4);
    cfg.machine.cxlCapacityBytes = mem::gib(4);
    cfg.machine.costs = costs;
    porter::Cluster cluster(cfg);

    auto parent = faas::FunctionInstance::deployCold(cluster.node(0), *spec);
    parent->invoke();
    parent->task().mm().pageTable().clearAccessedBits(true);
    parent->invoke();

    auto mech = rfork::makeMechanism(porter::kindOf(mechanismArg(o)),
                                     cluster.fabric());
    rfork::CheckpointStats cs;
    auto handle = mech->checkpoint(cluster.node(0), parent->task(), &cs);
    std::printf("checkpoint: %s  (%llu pages, %.1f MB to CXL, %.1f MB "
                "local shadow)\n",
                cs.latency.toString().c_str(), (unsigned long long)cs.pages,
                double(cs.bytesToCxl) / (1 << 20),
                double(cs.bytesLocal) / (1 << 20));

    const mem::NodeId target = mem::NodeId(o.targetNode % cluster.numNodes());
    rfork::RestoreOptions opts;
    opts.policy = policyOf(o.policy);
    opts.prefetchDirty = o.prefetch;
    rfork::RestoreStats rs;
    auto task = mech->restore(handle, cluster.node(target), opts, &rs);
    std::printf("restore on node %u: %s  (memory state %s, global %s, "
                "prefetch %llu pages)\n",
                target, rs.latency.toString().c_str(),
                rs.memoryState.toString().c_str(),
                rs.globalState.toString().c_str(),
                (unsigned long long)rs.pagesCopied);

    auto child = faas::FunctionInstance::adoptRestored(cluster.node(target),
                                                       *spec, task);
    for (uint64_t i = 0; i < o.invocations; ++i) {
        const sim::SimTime faultsBefore = cluster.node(target).faultTime();
        const auto r = child->invoke();
        std::printf("invocation %d: %s  (faults %llu taking %s, misses "
                    "local/cxl %llu/%llu)\n",
                    int(i + 1), r.latency.toString().c_str(),
                    (unsigned long long)r.faults,
                    (cluster.node(target).faultTime() - faultsBefore)
                        .toString()
                        .c_str(),
                    (unsigned long long)r.missesLocal,
                    (unsigned long long)r.missesCxl);
    }
    std::printf("child local memory %.1f MB, CXL-mapped %.1f MB\n",
                double(child->localBytes()) / (1 << 20),
                double(child->cxlBytes()) / (1 << 20));
    return 0;
}

int
cmdPorter(const Options &o)
{
    std::vector<faas::FunctionSpec> functions;
    std::vector<std::string> names;
    for (const auto &w : faas::table1Workloads()) {
        functions.push_back(w.spec);
        names.push_back(w.spec.name);
    }
    std::vector<porter::Request> trace;
    if (!o.trace.empty()) {
        // Real trace import: CSV rows of `timestamp_seconds,function`.
        trace = porter::loadTraceCsv(o.trace);
    } else {
        porter::TraceConfig tc;
        tc.totalRps = o.rps;
        tc.duration = sim::SimTime::sec(o.durationS);
        tc.seed = o.seed;
        trace = porter::TraceGenerator(names, tc).generate();
    }

    porter::PorterConfig cfg;
    cfg.mechanism = mechanismArg(o);
    cfg.dynamicTiering = !o.staticMow;
    cfg.memPerNodeBytes = mem::gib(o.memGb);
    cfg.memoryScale = o.memScale;
    cfg.numNodes = o.nodes;
    cfg.coresPerNode = 32;
    // The profiles the porter replays are measured under the same
    // costs as the cluster it models.
    sim::CostParams costs;
    if (o.cxlLatencyNs)
        costs.cxlLatency = sim::SimTime::ns(*o.cxlLatencyNs);
    porter::PerfModel perf(costs);
    porter::PorterSim sim(cfg, functions, perf);

    std::printf("running %zu requests (%.1f rps) against %s...\n",
                trace.size(),
                porter::TraceGenerator::measuredRps(
                    trace, trace.empty() ? sim::SimTime::zero()
                                         : trace.back().arrival),
                rfork::mechanismName(porter::kindOf(cfg.mechanism)));
    const auto m = sim.run(trace);
    std::printf("P50 %.1f ms   P99 %.1f ms   throughput %.1f rps\n",
                m.p50Ms(), m.p99Ms(), m.completedRps);
    std::printf("warm %llu  restores %llu (ghost %llu)  cold %llu  "
                "evictions %llu\n",
                (unsigned long long)m.warmHits,
                (unsigned long long)m.restores,
                (unsigned long long)m.ghostHits,
                (unsigned long long)m.coldStarts,
                (unsigned long long)m.evictions);
    std::printf("checkpoints %llu (reclaimed %llu)  promotions %llu  "
                "peak node mem %.0f MB\n",
                (unsigned long long)m.checkpointsTaken,
                (unsigned long long)m.checkpointsReclaimed,
                (unsigned long long)m.tieringPromotions,
                double(m.peakMemBytes) / (1 << 20));
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::fprintf(stderr,
                     "usage: %s <list|rfork|porter> [--flags]\n"
                     "see the header of tools/cxlfork_cli.cc\n",
                     argv[0]);
        return 2;
    }
    try {
        const std::string cmd = argv[1];
        if (cmd != "list" && cmd != "rfork" && cmd != "porter")
            sim::fatal("unknown command %s", cmd.c_str());
        const Options o = parseOptions(cmd, argc, argv);
        if (cmd == "list")
            return cmdList();
        if (cmd == "rfork")
            return cmdRfork(o);
        return cmdPorter(o);
    } catch (const sim::FatalError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
