#include "vma.hh"

#include <algorithm>
#include <functional>

#include "sim/log.hh"

namespace cxlfork::os {

SharedVmaSet::SharedVmaSet(std::vector<Vma> records)
    : records_(std::move(records))
{
    std::sort(records_.begin(), records_.end(),
              [](const Vma &a, const Vma &b) { return a.start < b.start; });
    for (size_t i = 1; i < records_.size(); ++i) {
        if (records_[i].start < records_[i - 1].end)
            sim::fatal("SharedVmaSet: overlapping VMA records");
    }
}

std::optional<size_t>
SharedVmaSet::find(mem::VirtAddr va) const
{
    // First record with start > va, then step back.
    auto it = std::upper_bound(
        records_.begin(), records_.end(), va,
        [](mem::VirtAddr v, const Vma &r) { return v < r.start; });
    if (it == records_.begin())
        return std::nullopt;
    --it;
    if (it->contains(va))
        return size_t(it - records_.begin());
    return std::nullopt;
}

uint64_t
SharedVmaSet::footprintBytes() const
{
    // Approximate a packed on-CXL record: range + perms + path.
    uint64_t bytes = 0;
    for (const Vma &v : records_)
        bytes += 64 + v.filePath.size() + v.name.size();
    return bytes;
}

Vma &
VmaTree::insert(Vma vma)
{
    if (vma.start >= vma.end)
        sim::fatal("VmaTree::insert: empty or inverted range");
    if (vma.start.pageOffset() || vma.end.pageOffset())
        sim::fatal("VmaTree::insert: range not page aligned");
    if (overlapsLocal(vma.start, vma.end))
        sim::fatal("VmaTree::insert: overlaps an existing VMA");
    auto [it, ok] = local_.emplace(vma.start.raw, std::move(vma));
    CXLF_ASSERT(ok);
    return it->second;
}

bool
VmaTree::overlapsLocal(mem::VirtAddr lo, mem::VirtAddr hi) const
{
    auto it = local_.upper_bound(lo.raw);
    if (it != local_.begin()) {
        auto prev = std::prev(it);
        if (prev->second.end > lo)
            return true;
    }
    return it != local_.end() && it->second.start < hi;
}

Vma *
VmaTree::findLocal(mem::VirtAddr va)
{
    // Faults walk an address space mostly in order, so the record
    // found last usually covers the next address too. Records never
    // overlap: a cursor that covers va is the only answer.
    if (cursor_ && cursor_->contains(va)) {
        ++work_->vmaCursorHits;
        return cursor_;
    }
    ++work_->vmaDescents;
    auto it = local_.upper_bound(va.raw);
    if (it == local_.begin())
        return nullptr;
    --it;
    if (!it->second.contains(va))
        return nullptr;
    cursor_ = &it->second;
    return cursor_;
}

const Vma *
VmaTree::findLocal(mem::VirtAddr va) const
{
    return const_cast<VmaTree *>(this)->findLocal(va);
}

std::optional<size_t>
VmaTree::findShared(mem::VirtAddr va) const
{
    if (!shared_)
        return std::nullopt;
    auto idx = shared_->find(va);
    if (!idx)
        return std::nullopt;
    if (sharedDead_[*idx] || sharedMaterialized_[*idx])
        return std::nullopt;
    return idx;
}

void
VmaTree::attachShared(std::shared_ptr<const SharedVmaSet> set)
{
    if (shared_)
        sim::fatal("VmaTree: a shared VMA set is already attached");
    shared_ = std::move(set);
    sharedDead_.assign(shared_->size(), false);
    sharedMaterialized_.assign(shared_->size(), false);
}

Vma &
VmaTree::materialize(size_t sharedIndex)
{
    CXLF_ASSERT(shared_ != nullptr);
    CXLF_ASSERT(!sharedDead_.at(sharedIndex));
    CXLF_ASSERT(!sharedMaterialized_.at(sharedIndex));
    sharedMaterialized_[sharedIndex] = true;
    return insert(shared_->at(sharedIndex));
}

void
VmaTree::removeRange(mem::VirtAddr lo, mem::VirtAddr hi)
{
    // Local records: drop any fully-contained record; partial overlap
    // splits are not needed by this simulation and are rejected.
    for (auto it = local_.begin(); it != local_.end();) {
        Vma &v = it->second;
        if (v.end <= lo || v.start >= hi) {
            ++it;
            continue;
        }
        if (v.start < lo || v.end > hi)
            sim::fatal("VmaTree::removeRange: partial VMA unmap unsupported");
        if (cursor_ == &v)
            cursor_ = nullptr;
        it = local_.erase(it);
    }
    if (shared_) {
        for (size_t i = 0; i < shared_->size(); ++i) {
            const Vma &v = shared_->at(i);
            if (v.end <= lo || v.start >= hi)
                continue;
            if (sharedMaterialized_[i])
                continue; // its local copy was handled above
            if (v.start < lo || v.end > hi)
                sim::fatal("VmaTree::removeRange: partial VMA unmap unsupported");
            sharedDead_[i] = true;
        }
    }
}

size_t
VmaTree::liveCount() const
{
    size_t n = local_.size();
    if (shared_) {
        for (size_t i = 0; i < shared_->size(); ++i) {
            if (!sharedDead_[i] && !sharedMaterialized_[i])
                ++n;
        }
    }
    return n;
}

void
VmaTree::forEach(const std::function<void(const Vma &)> &fn) const
{
    for (const auto &[start, vma] : local_)
        fn(vma);
    if (shared_) {
        for (size_t i = 0; i < shared_->size(); ++i) {
            if (!sharedDead_[i] && !sharedMaterialized_[i])
                fn(shared_->at(i));
        }
    }
}

} // namespace cxlfork::os
