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
 *   --function NAME            Workload (default Bert).
 *   --mechanism M              cxlfork | criu | mitosis (default cxlfork).
 *   --policy P                 mow | moa | hybrid (default mow).
 *   --cxl-latency NS           CXL round-trip latency (default 391).
 *   --nodes N                  Cluster nodes (default 2).
 *
 * rfork flags:
 *   --invocations K            Invocations after restore (default 1).
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
 */

#include <cstdio>
#include <cstring>
#include <map>
#include <optional>
#include <string>

#include "faas/workloads.hh"
#include "porter/autoscaler.hh"
#include "porter/cluster.hh"
#include "porter/trace.hh"
#include "rfork/mechanism.hh"
#include "sim/log.hh"

namespace {

using namespace cxlfork;

struct Args
{
    std::map<std::string, std::string> values;
    std::map<std::string, bool> flags;

    bool has(const std::string &k) const { return flags.count(k) > 0; }

    std::string
    get(const std::string &k, const std::string &dflt) const
    {
        auto it = values.find(k);
        return it == values.end() ? dflt : it->second;
    }

    double
    num(const std::string &k, double dflt) const
    {
        auto it = values.find(k);
        return it == values.end() ? dflt : std::stod(it->second);
    }
};

Args
parse(int argc, char **argv, int start)
{
    Args args;
    for (int i = start; i < argc; ++i) {
        std::string a = argv[i];
        if (a.rfind("--", 0) != 0)
            sim::fatal("unexpected argument: %s", a.c_str());
        a = a.substr(2);
        const bool boolean = a == "no-prefetch" || a == "static-mow";
        if (boolean) {
            args.flags[a] = true;
        } else {
            if (i + 1 >= argc)
                sim::fatal("--%s needs a value", a.c_str());
            args.values[a] = argv[++i];
        }
    }
    return args;
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
mechanismArg(const Args &args)
{
    const std::string m = args.get("mechanism", "cxlfork");
    const std::optional<rfork::MechanismKind> kind = rfork::parseMechanism(m);
    const std::optional<porter::Mechanism> mech =
        kind ? porter::porterMechanism(*kind) : std::nullopt;
    if (!mech)
        sim::fatal("unknown mechanism %s (cxlfork|criu|mitosis)", m.c_str());
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
cmdRfork(const Args &args)
{
    const std::string fnName = args.get("function", "Bert");
    auto spec = faas::findWorkload(fnName);
    if (!spec)
        sim::fatal("unknown function %s (try `cxlfork list`)",
                   fnName.c_str());

    sim::CostParams costs;
    costs.cxlLatency = sim::SimTime::ns(args.num("cxl-latency", 391));
    porter::ClusterConfig cfg;
    cfg.machine.numNodes = uint32_t(args.num("nodes", 2));
    cfg.machine.dramPerNodeBytes = mem::gib(4);
    cfg.machine.cxlCapacityBytes = mem::gib(4);
    cfg.machine.costs = costs;
    porter::Cluster cluster(cfg);

    auto parent = faas::FunctionInstance::deployCold(cluster.node(0), *spec);
    parent->invoke();
    parent->task().mm().pageTable().clearAccessedBits(true);
    parent->invoke();

    auto mech = rfork::makeMechanism(porter::kindOf(mechanismArg(args)),
                                     cluster.fabric());
    rfork::CheckpointStats cs;
    auto handle = mech->checkpoint(cluster.node(0), parent->task(), &cs);
    std::printf("checkpoint: %s  (%llu pages, %.1f MB to CXL, %.1f MB "
                "local shadow)\n",
                cs.latency.toString().c_str(), (unsigned long long)cs.pages,
                double(cs.bytesToCxl) / (1 << 20),
                double(cs.bytesLocal) / (1 << 20));

    const mem::NodeId target =
        mem::NodeId(args.num("target-node", 1)) % cluster.numNodes();
    rfork::RestoreOptions opts;
    opts.policy = policyOf(args.get("policy", "mow"));
    opts.prefetchDirty = !args.has("no-prefetch");
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
    const int invocations = int(args.num("invocations", 1));
    for (int i = 0; i < invocations; ++i) {
        const sim::SimTime faultsBefore = cluster.node(target).faultTime();
        const auto r = child->invoke();
        std::printf("invocation %d: %s  (faults %llu taking %s, misses "
                    "local/cxl %llu/%llu)\n",
                    i + 1, r.latency.toString().c_str(),
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
cmdPorter(const Args &args)
{
    std::vector<faas::FunctionSpec> functions;
    std::vector<std::string> names;
    for (const auto &w : faas::table1Workloads()) {
        functions.push_back(w.spec);
        names.push_back(w.spec.name);
    }
    std::vector<porter::Request> trace;
    if (args.values.count("trace")) {
        // Real trace import: CSV rows of `timestamp_seconds,function`.
        trace = porter::loadTraceCsv(args.get("trace", ""));
    } else {
        porter::TraceConfig tc;
        tc.totalRps = args.num("rps", 150);
        tc.duration = sim::SimTime::sec(args.num("duration", 30));
        tc.seed = uint64_t(args.num("seed", 0xa2));
        trace = porter::TraceGenerator(names, tc).generate();
    }

    porter::PorterConfig cfg;
    cfg.mechanism = mechanismArg(args);
    cfg.dynamicTiering = !args.has("static-mow");
    cfg.memPerNodeBytes = mem::gib(uint64_t(args.num("mem-gb", 8)));
    cfg.memoryScale = args.num("mem-scale", 1.0);
    cfg.numNodes = uint32_t(args.num("nodes", 2));
    cfg.coresPerNode = 32;
    porter::PerfModel perf;
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
        const Args args = parse(argc, argv, 2);
        if (cmd == "list")
            return cmdList();
        if (cmd == "rfork")
            return cmdRfork(args);
        if (cmd == "porter")
            return cmdPorter(args);
        sim::fatal("unknown command %s", cmd.c_str());
    } catch (const sim::FatalError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
