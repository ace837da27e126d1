#include "shared_fs.hh"

#include <algorithm>

#include "sim/crc32.hh"
#include "sim/error.hh"
#include "sim/log.hh"

namespace cxlfork::cxl {

namespace {

/**
 * Content token for one file page: a digest of the page's slice of the
 * encoded bytes plus its index, so byte-identical files produce
 * identical per-page tokens (and thus dedup) while differing files
 * cannot alias. The encoded form is token-compressed, so slices are
 * assigned proportionally across the file's simulated pages.
 */
uint64_t
filePageToken(const std::vector<uint8_t> &data, uint64_t pageIdx,
              uint64_t pages)
{
    const uint64_t len = data.size();
    const uint64_t begin = pages ? len * pageIdx / pages : 0;
    const uint64_t end = pages ? len * (pageIdx + 1) / pages : 0;
    const uint32_t crc = sim::crc32(data.data() + begin, end - begin);
    return (uint64_t(crc) << 32) ^ (pageIdx * 0x9e3779b97f4a7c15ull) ^
           (end - begin);
}

} // namespace

SharedFs::~SharedFs()
{
    for (auto &[name, file] : files_)
        releaseFrames(file);
}

const CxlFsFile &
SharedFs::write(const std::string &name, std::vector<uint8_t> encoded,
                uint64_t simulatedBytes, sim::SimClock &clock,
                mem::NodeId node)
{
    CxlFsFile file;
    file.name = name;
    file.data = std::move(encoded);
    file.simulatedBytes = simulatedBytes;
    file.crc = sim::crc32(file.data.data(), file.data.size());
    const uint64_t pages = mem::pagesFor(simulatedBytes);
    file.frames.reserve(pages);
    // Allocate the backing before dropping any previous version: a
    // failed overwrite must leave the old file readable. Frames come
    // from the content-addressed pool: with dedup on, a page whose
    // slice matches an already-stored file's is shared, not written.
    uint64_t sharedPages = 0;
    uint64_t freshStoredBytes = 0;
    try {
        if (pageStore_.dedupEnabled() || pageStore_.compressEnabled()) {
            for (uint64_t i = 0; i < pages; ++i) {
                const InternResult r = pageStore_.intern(
                    filePageToken(file.data, i, pages),
                    mem::FrameUse::FileCache, clock, node);
                file.frames.push_back(r.addr);
                sharedPages += r.shared;
                freshStoredBytes += r.storedBytes;
            }
        } else {
            for (uint64_t i = 0; i < pages; ++i) {
                file.frames.push_back(
                    machine_.cxl().alloc(mem::FrameUse::FileCache));
            }
        }
        machine_.cxlTransaction(clock, "shared-fs write", node);
    } catch (const sim::NodeCrashError &) {
        // The writing node crashed mid-write: it cannot run its own
        // cleanup, so the partial allocation stays on the device as an
        // orphan until a recovery pass reclaims it.
        if (!file.frames.empty())
            orphans_.push_back(std::move(file.frames));
        throw;
    } catch (...) {
        for (mem::PhysAddr f : file.frames)
            pageStore_.release(f);
        throw;
    }
    // Deduplicated pages are never stored, only referenced: the write
    // charge covers the unique bytes (intern already charged the
    // collision-check reads for the shared ones). With the codec armed
    // the fresh pages land at their compressed size, never more than
    // the uncompressed unique bytes.
    const uint64_t dedupedBytes =
        std::min(simulatedBytes, sharedPages * mem::kPageSize);
    uint64_t writeBytes = simulatedBytes - dedupedBytes;
    if (pageStore_.compressEnabled())
        writeBytes = std::min(writeBytes, freshStoredBytes);
    clock.advance(machine_.costs().cxlWrite(writeBytes));
    usedBytes_ += pages * mem::kPageSize;
    writes_.inc();
    bytesWritten_.inc(simulatedBytes);

    // Injected torn write: the stores raced a failure and one byte of
    // the on-device image differs from what the CRC was computed over.
    if (machine_.faults().drawTornWrite() && !file.data.empty()) {
        const uint64_t victim =
            machine_.faults().pickVictim(file.data.size() * 8);
        file.data[victim / 8] ^= uint8_t(1u << (victim % 8));
    }

    file.generation = ++lastGeneration_;
    remove(name);
    auto [it, ok] = files_.emplace(name, std::move(file));
    CXLF_ASSERT(ok);
    return it->second;
}

const CxlFsFile *
SharedFs::open(const std::string &name) const
{
    auto it = files_.find(name);
    return it == files_.end() ? nullptr : &it->second;
}

bool
SharedFs::verify(const std::string &name) const
{
    const CxlFsFile *file = open(name);
    if (!file)
        return false;
    crcChecks_.inc();
    const bool ok =
        sim::crc32(file->data.data(), file->data.size()) == file->crc;
    if (!ok)
        crcFailures_.inc();
    return ok;
}

void
SharedFs::corruptBit(const std::string &name, uint64_t bit)
{
    auto it = files_.find(name);
    if (it == files_.end() || it->second.data.empty())
        return;
    std::vector<uint8_t> &d = it->second.data;
    bit %= d.size() * 8;
    d[bit / 8] ^= uint8_t(1u << (bit % 8));
    it->second.generation = ++lastGeneration_;
}

void
SharedFs::remove(const std::string &name)
{
    auto it = files_.find(name);
    if (it == files_.end())
        return;
    releaseFrames(it->second);
    files_.erase(it);
}

uint64_t
SharedFs::reclaimOrphans()
{
    uint64_t reclaimed = 0;
    for (std::vector<mem::PhysAddr> &frames : orphans_) {
        for (mem::PhysAddr f : frames)
            pageStore_.release(f);
        reclaimed += frames.size();
    }
    orphans_.clear();
    if (reclaimed)
        machine_.metrics().counter("cxl.fs.orphan_frames_reclaimed")
            .inc(reclaimed);
    return reclaimed;
}

void
SharedFs::releaseFrames(CxlFsFile &file)
{
    for (mem::PhysAddr f : file.frames)
        pageStore_.release(f);
    usedBytes_ -= file.frames.size() * mem::kPageSize;
    file.frames.clear();
}

} // namespace cxlfork::cxl
