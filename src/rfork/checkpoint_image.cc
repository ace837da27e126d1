#include "checkpoint_image.hh"

#include <algorithm>
#include <array>
#include <bit>

#include "cxl/rebase.hh"
#include "sim/crc32.hh"
#include "sim/log.hh"

namespace cxlfork::rfork {

using os::Pte;
using os::TablePage;

CheckpointImage::CheckpointImage(mem::Machine &machine, std::string name,
                                 cxl::PageStore *pageStore)
    : machine_(machine), name_(std::move(name)), pageStore_(pageStore),
      crcChecks_(machine.metrics(), "cxl.image.crc_checks")
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
    cxl::LeafRebaser rebaser(machine_);
    for (auto &[base, leaf] : leaves_)
        rebaser.derebase(*leaf);
    activated_ = true;
}

ImageCrcs
CheckpointImage::computeCrcs(std::vector<DirtyPage> *dirty) const
{
    // Bits that legitimately mutate on a sealed leaf after checkpoint:
    // hardware A-bit updates and the user-hot hint (paper Sec. 4.3).
    // resetAccessedBits() flips them too. Everything else is immutable.
    constexpr uint64_t kMutableBits = Pte::kAccessed | Pte::kSoftHot;

    // Words are gathered into a block and CRC'd in one update() so the
    // bulk kernel sees long runs. Each word is stored little-endian,
    // the byte order update64() feeds, so the digests are the same as
    // one update64() per word. A block is one leaf (its base plus its
    // PTEs) or kEntries data tokens.
    std::array<uint64_t, 1 + TablePage::kEntries> block{};
    const auto le = [](uint64_t v) {
        if constexpr (std::endian::native == std::endian::big)
            v = __builtin_bswap64(v);
        return v;
    };

    ImageCrcs out;
    sim::Crc32 pages;
    const mem::FrameAllocator &cxl = machine_.cxl();
    size_t n = 0;
    for (mem::PhysAddr f : dataFrames_) {
        block[n++] = le(cxl.frame(f).content);
        if (n == TablePage::kEntries) {
            pages.update(block.data(), n * sizeof(uint64_t));
            n = 0;
        }
    }
    pages.update(block.data(), n * sizeof(uint64_t));
    out.pages = pages.value();

    sim::Crc32 leaves;
    for (const auto &[base, leaf] : leaves_) {
        block[0] = le(base);
        for (uint32_t i = 0; i < TablePage::kEntries; ++i)
            block[1 + i] = le(leaf->pte(i).raw() & ~kMutableBits);
        leaves.update(block.data(), sizeof(block));
    }
    out.leaves = leaves.value();
    if (dirty) {
        // Sealing also collects the prefetch set: counted first, so the
        // set takes one allocation.
        const auto isDirty = [](const Pte &p) {
            return p.present() && p.dirty();
        };
        size_t n = 0;
        for (const auto &[base, leaf] : leaves_)
            for (uint32_t i = 0; i < TablePage::kEntries; ++i)
                n += isDirty(leaf->pte(i));
        dirty->reserve(n);
        for (const auto &[base, leaf] : leaves_)
            for (uint32_t i = 0; i < TablePage::kEntries; ++i)
                if (isDirty(leaf->pte(i)))
                    dirty->push_back({base + i, &leaf->pte(i)});
    }

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
    crcs_ = computeCrcs(&dirty_);
    crcs_.sealed = true;
}

std::optional<std::string>
CheckpointImage::verifyIntegrity() const
{
    crcChecks_.inc();
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

Pte
CheckpointImage::checkpointPte(mem::VirtAddr va) const
{
    CXLF_ASSERT(activated_);
    const uint64_t vpn = va.pageNumber();
    const uint64_t base = vpn & ~uint64_t(TablePage::kEntries - 1);
    auto it = leaves_.find(base);
    if (it == leaves_.end())
        return Pte();
    const Pte p = it->second->pte(uint32_t(vpn - base));
    return p.present() ? p : Pte();
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
