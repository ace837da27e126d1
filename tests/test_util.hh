/**
 * @file
 * Shared fixtures: a small two-node CXL world for unit tests, and a
 * seeded random process to checkpoint in it.
 */

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "cxl/fabric.hh"
#include "mem/machine.hh"
#include "os/kernel.hh"
#include "sim/log.hh"
#include "sim/rng.hh"

namespace cxlfork::test {

/** A machine + fabric + N node OS instances + shared root FS. */
struct World
{
    explicit World(mem::MachineConfig cfg = {},
                   cxl::PageStoreConfig pageStoreCfg = {})
        : machine(std::make_unique<mem::Machine>(cfg)),
          fabric(std::make_unique<cxl::CxlFabric>(*machine, pageStoreCfg)),
          vfs(std::make_shared<os::Vfs>())
    {
        for (uint32_t i = 0; i < machine->numNodes(); ++i) {
            nodes.push_back(std::make_unique<os::NodeOs>(i, *machine, vfs,
                                                         nsRegistry));
        }
    }

    os::NodeOs &node(uint32_t i) { return *nodes.at(i); }

    std::unique_ptr<mem::Machine> machine;
    std::unique_ptr<cxl::CxlFabric> fabric;
    std::shared_ptr<os::Vfs> vfs;
    os::NamespaceRegistry nsRegistry;
    std::vector<std::unique_ptr<os::NodeOs>> nodes;
};

/** A smaller config to keep unit tests fast. */
inline mem::MachineConfig
smallConfig()
{
    mem::MachineConfig cfg;
    cfg.numNodes = 2;
    cfg.dramPerNodeBytes = mem::mib(512);
    cfg.cxlCapacityBytes = mem::gib(1);
    cfg.llcBytes = mem::mib(8);
    return cfg;
}

/** One populated page: address, expected bytes, VMA writability. */
struct PageRec
{
    mem::VirtAddr va;
    uint64_t content;
    bool writable;
};

/** A randomly-shaped process and its expected page contents. */
struct RandomProcess
{
    std::shared_ptr<os::Task> task;
    std::vector<PageRec> pages;
};

/**
 * A process on `node` with 2-7 VMAs of 1-96 pages, each either a
 * private file mapping (its file created in `vfs`) with a random subset
 * of pages read in, or anonymous memory with most pages written; plus
 * one socket and random registers. Deterministic given a fresh world and
 * the seed, so twin worlds built from one seed hold byte-identical
 * parents at identical addresses. Even anonymous pages hold a unique
 * token, so a clone served the wrong page of a VMA reads a wrong value;
 * odd ones repeat a few values (palette + i % 7), so a dedup-enabled
 * checkpoint shares frames inside one image.
 */
inline RandomProcess
makeRandomProcess(os::NodeOs &node, os::Vfs &vfs, sim::Rng &rng)
{
    RandomProcess proc;
    proc.task = node.createTask("oracle");

    const uint32_t nVmas = 2 + uint32_t(rng.index(6));
    for (uint32_t v = 0; v < nVmas; ++v) {
        const uint64_t pages = 1 + rng.index(96);
        if (rng.chance(0.3)) {
            const std::string path =
                sim::format("/oracle/lib%llu_%llu.so",
                            (unsigned long long)(rng.raw() % 1000),
                            (unsigned long long)v);
            vfs.create(path, pages * mem::kPageSize, rng.raw());
            os::Vma &vma = node.mapFilePrivate(
                *proc.task, path, os::kVmaRead | os::kVmaExec);
            auto inode = vfs.lookup(path);
            for (uint64_t i = 0; i < pages; ++i) {
                if (!rng.chance(0.7))
                    continue;
                const mem::VirtAddr va = vma.start.plus(i * mem::kPageSize);
                node.access(*proc.task, va, false);
                proc.pages.push_back({va, inode->pageContent(i), false});
            }
        } else {
            os::Vma &vma =
                node.mapAnon(*proc.task, pages * mem::kPageSize,
                             os::kVmaRead | os::kVmaWrite, "oracle-anon");
            const uint64_t palette = rng.raw() | 1;
            for (uint64_t i = 0; i < pages; ++i) {
                if (!rng.chance(0.85))
                    continue;
                const mem::VirtAddr va = vma.start.plus(i * mem::kPageSize);
                const uint64_t content =
                    i % 2 == 0 ? rng.raw() : palette + (i % 7);
                node.write(*proc.task, va, content);
                proc.pages.push_back({va, content, true});
            }
        }
    }
    proc.task->fds().installSocket(os::Socket{"oracle:1"});
    for (auto &r : proc.task->cpu().gpr)
        r = rng.raw();
    proc.task->cpu().rip = rng.raw();
    return proc;
}

} // namespace cxlfork::test
