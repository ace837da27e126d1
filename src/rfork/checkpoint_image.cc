#include "checkpoint_image.hh"

#include <algorithm>

#include "cxl/rebase.hh"
#include "sim/crc32.hh"
#include "sim/log.hh"

namespace cxlfork::rfork {

using os::Pte;
using os::TablePage;

CheckpointImage::CheckpointImage(mem::Machine &machine, std::string name,
                                 cxl::PageStore *pageStore)
    : machine_(machine), name_(std::move(name)), pageStore_(pageStore)
{
}

CheckpointImage::~CheckpointImage()
{
    // Data frames may be shared with other images through the page
    // store; releasing through it un-indexes a frame only when the
    // last owner lets go. Metadata frames, leaf backings included, are
    // never content-indexed (release falls through to the plain
    // allocator for them).
    for (mem::PhysAddr f : dataFrames_) {
        if (pageStore_)
            pageStore_->release(f);
        else
            machine_.cxl().decRef(f);
    }
    for (mem::PhysAddr f : metaFrames_) {
        if (pageStore_)
            pageStore_->release(f);
        else
            machine_.cxl().decRef(f);
    }
}

void
CheckpointImage::addLeaf(uint64_t baseVpn, std::shared_ptr<TablePage> leaf)
{
    CXLF_ASSERT(!activated_);
    CXLF_ASSERT(leaf->level() == 0);
    CXLF_ASSERT(cxl::leafIsRebased(*leaf));
    CXLF_ASSERT(leaf->sealed());
    auto [it, ok] = leaves_.emplace(baseVpn, std::move(leaf));
    if (!ok)
        sim::panic("CheckpointImage: duplicate leaf at vpn %#llx",
                   (unsigned long long)baseVpn);
}

void
CheckpointImage::activate()
{
    CXLF_ASSERT(!activated_);
    for (auto &[base, leaf] : leaves_)
        cxl::derebaseLeaf(*leaf, machine_);
    activated_ = true;
}

ImageCrcs
CheckpointImage::computeCrcs() const
{
    // Bits that legitimately mutate on a sealed leaf after checkpoint:
    // hardware A-bit updates and the user-hot hint (paper Sec. 4.3).
    // resetAccessedBits() flips them too. Everything else is immutable.
    constexpr uint64_t kMutableBits = Pte::kAccessed | Pte::kSoftHot;

    ImageCrcs out;
    sim::Crc32 pages;
    for (mem::PhysAddr f : dataFrames_)
        pages.update64(machine_.cxl().frame(f).content);
    out.pages = pages.value();

    sim::Crc32 leaves;
    for (const auto &[base, leaf] : leaves_) {
        leaves.update64(base);
        for (uint32_t i = 0; i < TablePage::kEntries; ++i)
            leaves.update64(leaf->pte(i).raw() & ~kMutableBits);
    }
    out.leaves = leaves.value();

    sim::Crc32 vmas;
    if (vmaSet_) {
        for (size_t i = 0; i < vmaSet_->size(); ++i) {
            const os::Vma &v = vmaSet_->at(i);
            vmas.update64(v.start.raw);
            vmas.update64(v.end.raw);
            vmas.update64(uint64_t(v.perms) | (uint64_t(v.kind) << 8) |
                          (uint64_t(v.segClass) << 16));
            vmas.update(v.name.data(), v.name.size());
            vmas.update(v.filePath.data(), v.filePath.size());
            vmas.update64(v.fileOffset);
        }
    }
    out.vmas = vmas.value();

    sim::Crc32 global;
    global.update(globalBlob_.data(), globalBlob_.size());
    for (uint64_t g : cpu_.gpr)
        global.update64(g);
    global.update64(cpu_.rip);
    global.update64(cpu_.rsp);
    global.update64(cpu_.fpstate);
    out.global = global.value();
    return out;
}

void
CheckpointImage::sealIntegrity()
{
    CXLF_ASSERT(activated_);
    CXLF_ASSERT(!crcs_.sealed);
    crcs_ = computeCrcs();
    crcs_.sealed = true;
}

std::optional<std::string>
CheckpointImage::verifyIntegrity() const
{
    machine_.metrics().counter("cxl.image.crc_checks").inc();
    if (!crcs_.sealed)
        return "unsealed";
    const ImageCrcs now = computeCrcs();
    if (now.pages != crcs_.pages)
        return "pages";
    if (now.leaves != crcs_.leaves)
        return "leaves";
    if (now.vmas != crcs_.vmas)
        return "vmas";
    if (now.global != crcs_.global)
        return "global";
    return std::nullopt;
}

bool
CheckpointImage::complete() const
{
    return activated_ && crcs_.sealed && !verifyIntegrity().has_value();
}

bool
CheckpointImage::referencesFrame(mem::PhysAddr addr) const
{
    return std::find(dataFrames_.begin(), dataFrames_.end(), addr) !=
               dataFrames_.end() ||
           std::find(metaFrames_.begin(), metaFrames_.end(), addr) !=
               metaFrames_.end();
}

void
CheckpointImage::corruptDataBit(uint64_t victimBit)
{
    if (dataFrames_.empty())
        return;
    const uint64_t frameIdx = (victimBit / 64) % dataFrames_.size();
    mem::Frame &f = machine_.cxl().frame(dataFrames_[frameIdx]);
    f.content ^= 1ull << (victimBit % 64);
}

std::optional<Pte>
CheckpointImage::checkpointPte(mem::VirtAddr va) const
{
    CXLF_ASSERT(activated_);
    const uint64_t vpn = va.pageNumber();
    const uint64_t base = vpn & ~uint64_t(TablePage::kEntries - 1);
    auto it = leaves_.find(base);
    if (it == leaves_.end())
        return std::nullopt;
    const Pte &p = it->second->pte(uint32_t(vpn - base));
    if (!p.present())
        return std::nullopt;
    return p;
}

void
CheckpointImage::forEachDirty(
    const std::function<void(mem::VirtAddr, const Pte &)> &fn) const
{
    CXLF_ASSERT(activated_);
    for (const auto &[base, leaf] : leaves_) {
        for (uint32_t i = 0; i < TablePage::kEntries; ++i) {
            const Pte &p = leaf->pte(i);
            if (p.present() && p.dirty())
                fn(mem::VirtAddr::fromPageNumber(base + i), p);
        }
    }
}

void
CheckpointImage::resetAccessedBits()
{
    for (auto &[base, leaf] : leaves_) {
        for (uint32_t i = 0; i < TablePage::kEntries; ++i) {
            Pte &p = leaf->pte(i);
            if (p.present())
                p.clear(Pte::kAccessed);
        }
    }
}

void
CheckpointImage::markUserHot(mem::VirtAddr va)
{
    const uint64_t vpn = va.pageNumber();
    const uint64_t base = vpn & ~uint64_t(TablePage::kEntries - 1);
    auto it = leaves_.find(base);
    if (it == leaves_.end())
        sim::fatal("markUserHot: %#llx not in checkpoint",
                   (unsigned long long)va.raw);
    Pte &p = it->second->pte(uint32_t(vpn - base));
    if (!p.present())
        sim::fatal("markUserHot: page not checkpointed");
    p.set(Pte::kSoftHot);
}

uint64_t
CheckpointImage::accessedPageCount() const
{
    uint64_t n = 0;
    for (const auto &[base, leaf] : leaves_) {
        for (uint32_t i = 0; i < TablePage::kEntries; ++i) {
            const Pte &p = leaf->pte(i);
            if (p.present() && p.accessed())
                ++n;
        }
    }
    return n;
}

uint64_t
CheckpointImage::cxlBytes() const
{
    return (dataFrames_.size() + metaFrames_.size()) * mem::kPageSize;
}

} // namespace cxlfork::rfork
