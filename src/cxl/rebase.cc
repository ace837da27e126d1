#include "rebase.hh"

#include "sim/log.hh"

namespace cxlfork::cxl {

using os::Pte;
using os::TablePage;

LeafRebaser::LeafRebaser(const mem::Machine &machine)
    : machine_(machine),
      rebaseLeaves_(machine.metrics(), "cxl.rebase.leaves"),
      rebasePtes_(machine.metrics(), "cxl.rebase.ptes"),
      derebaseLeaves_(machine.metrics(), "cxl.derebase.leaves"),
      derebasePtes_(machine.metrics(), "cxl.derebase.ptes")
{}

void
LeafRebaser::rebase(TablePage &leaf)
{
    CXLF_ASSERT(leaf.level() == 0);
    uint32_t rebased = 0;
    for (uint32_t i = 0; i < TablePage::kEntries; ++i) {
        Pte &p = leaf.pte(i);
        if (!p.present())
            continue;
        if (p.rebased())
            sim::panic("rebase: PTE %u already rebased", i);
        const uint64_t offset = machine_.cxlOffsetOf(p.frame());
        p.setFrame(mem::PhysAddr{offset});
        p.set(Pte::kSoftRebased);
        ++rebased;
    }
    rebaseLeaves_.inc();
    rebasePtes_.inc(rebased);
}

void
LeafRebaser::derebase(TablePage &leaf)
{
    CXLF_ASSERT(leaf.level() == 0);
    uint32_t derebased = 0;
    for (uint32_t i = 0; i < TablePage::kEntries; ++i) {
        Pte &p = leaf.pte(i);
        if (!p.present())
            continue;
        if (!p.rebased())
            sim::panic("derebase: PTE %u not in rebased form", i);
        p.setFrame(machine_.cxlAddrOf(p.frame().raw));
        p.clear(Pte::kSoftRebased);
        ++derebased;
    }
    derebaseLeaves_.inc();
    derebasePtes_.inc(derebased);
}

bool
leafIsRebased(const TablePage &leaf)
{
    for (uint32_t i = 0; i < TablePage::kEntries; ++i) {
        const Pte &p = leaf.pte(i);
        if (p.present() && !p.rebased())
            return false;
    }
    return true;
}

bool
leafIsAbsolute(const TablePage &leaf)
{
    for (uint32_t i = 0; i < TablePage::kEntries; ++i) {
        const Pte &p = leaf.pte(i);
        if (p.present() && p.rebased())
            return false;
    }
    return true;
}

} // namespace cxlfork::cxl
