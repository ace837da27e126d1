/**
 * @file
 * Virtual memory areas and the per-process VMA tree.
 *
 * Mirrors the Linux structure CXLfork checkpoints: ordered VMA records
 * describing ranges, permissions and file backing. Checkpointed VMA
 * records ("VMA leaves", paper Fig. 5) live on CXL as a SharedVmaSet;
 * a restored process *attaches* the set and materializes individual
 * records into its local tree lazily, on first fault into the range.
 */

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "mem/types.hh"
#include "work.hh"

namespace cxlfork::os {

/** VMA permission bits. */
enum VmaPerm : uint8_t {
    kVmaRead = 1,
    kVmaWrite = 2,
    kVmaExec = 4,
};

/** What backs the range. */
enum class VmaKind : uint8_t {
    Anon,        ///< Anonymous private memory (heap, stacks, arenas).
    FilePrivate, ///< MAP_PRIVATE file mapping (libraries, runtime modules).
    SharedAnon,  ///< MAP_SHARED|MAP_ANONYMOUS between processes. Mappable
                 ///< and usable, but *not checkpointable* — CXLfork does
                 ///< not support shared anonymous memory (paper Sec. 4.1).
};

/**
 * Application-level segment classification used by the FaaS analysis
 * (paper Fig. 1). Purely informational for the OS.
 */
enum class SegClass : uint8_t { None, Init, ReadOnly, ReadWrite };

/** One virtual memory area. */
struct Vma
{
    mem::VirtAddr start;
    mem::VirtAddr end; ///< exclusive
    uint8_t perms = kVmaRead | kVmaWrite;
    VmaKind kind = VmaKind::Anon;
    std::string filePath;    ///< FilePrivate only.
    uint64_t fileOffset = 0; ///< FilePrivate only.
    std::string name;        ///< "[heap]", "libfoo.so", ...
    SegClass segClass = SegClass::None;

    uint64_t lengthBytes() const { return end.raw - start.raw; }
    uint64_t pageCount() const { return lengthBytes() / mem::kPageSize; }

    bool
    contains(mem::VirtAddr va) const
    {
        return va >= start && va < end;
    }

    bool writable() const { return perms & kVmaWrite; }
};

/**
 * An immutable, checkpointed set of VMA records (the "VMA tree leaves"
 * stored on CXL). Shared read-only by all restored siblings.
 */
class SharedVmaSet
{
  public:
    explicit SharedVmaSet(std::vector<Vma> records);

    /** Index of the record covering va, if any. */
    std::optional<size_t> find(mem::VirtAddr va) const;

    size_t size() const { return records_.size(); }
    const Vma &at(size_t i) const { return records_.at(i); }
    const std::vector<Vma> &records() const { return records_; }

    /** Serialized size of the set, for checkpoint accounting. */
    uint64_t footprintBytes() const;

  private:
    std::vector<Vma> records_; ///< Sorted by start, non-overlapping.
};

/**
 * The per-process VMA tree. Local records shadow the attached shared
 * set; ranges unmapped from the shared set are tombstoned.
 */
class VmaTree
{
  public:
    /**
     * @param work Counts findLocal's lookups (normally the owning
     *        node's); nullptr counts into a private tally.
     */
    explicit VmaTree(WorkCounters *work = nullptr)
        : work_(work ? work : &ownWork_)
    {}

    // Not copyable: a copy would share the lookup cursor, a pointer
    // into this tree's records.
    VmaTree(const VmaTree &) = delete;
    VmaTree &operator=(const VmaTree &) = delete;

    /** Insert a record; ranges must not overlap live records. */
    Vma &insert(Vma vma);

    /**
     * Find the VMA covering va. Returns a *local* record, or nullptr.
     * Shared-set hits are reported through findShared.
     */
    Vma *findLocal(mem::VirtAddr va);
    const Vma *findLocal(mem::VirtAddr va) const;

    /** Find in the attached shared set (not yet materialized). */
    std::optional<size_t> findShared(mem::VirtAddr va) const;

    /** Attach a checkpointed set (constant-time restore primitive). */
    void attachShared(std::shared_ptr<const SharedVmaSet> set);

    bool hasShared() const { return shared_ != nullptr; }
    const SharedVmaSet *shared() const { return shared_.get(); }

    /**
     * Copy shared record i into the local tree (the lazy VMA-leaf CoW
     * of Sec. 4.2.1). Returns the local record.
     */
    Vma &materialize(size_t sharedIndex);

    /** Remove local records intersecting [lo, hi); tombstone shared ones. */
    void removeRange(mem::VirtAddr lo, mem::VirtAddr hi);

    /** Count of live VMAs (local + unmaterialized shared). */
    size_t liveCount() const;
    size_t localCount() const { return local_.size(); }

    /** Visit every live VMA record (materialized view of shared ones). */
    void forEach(const std::function<void(const Vma &)> &fn) const;

  private:
    bool overlapsLocal(mem::VirtAddr lo, mem::VirtAddr hi) const;

    std::map<uint64_t, Vma> local_; ///< keyed by start address
    std::shared_ptr<const SharedVmaSet> shared_;
    std::vector<bool> sharedDead_;        ///< tombstones
    std::vector<bool> sharedMaterialized_;
    Vma *cursor_ = nullptr; ///< Record findLocal found last, if still live.
    WorkCounters ownWork_;
    WorkCounters *work_;
};

} // namespace cxlfork::os
