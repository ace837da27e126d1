/**
 * @file
 * CRIU-CXL: the state-of-practice baseline (paper Sec. 2.3.1, 6.2).
 *
 * Checkpoint serializes the *entire* process state — OS metadata and
 * every memory page — into image files with a protobuf-like encoding.
 * The files are placed on an in-CXL-memory filesystem shared between
 * nodes (the paper's favorable CRIU port: no file copies). Restore
 * deserializes everything on the target node and copies all pages into
 * local memory; parent and child share no state afterwards.
 */

#pragma once

#include <algorithm>

#include "cxl/fabric.hh"
#include "cxl/shared_fs.hh"
#include "proto/messages.hh"
#include "rfork.hh"

namespace cxlfork::rfork {

/**
 * A CRIU image decoded: its header (global state, CPU and VMAs) and its
 * page records, held as runs of consecutive VPNs over one array of
 * content tokens. A run never leaves the VMA its first page is in, nor
 * the page-table leaf, so the restore installs each run with one walk
 * and one VMA check.
 */
class CriuRecords
{
  public:
    struct Run
    {
        uint64_t vpn = 0;   ///< The run's first page.
        uint32_t pages = 0; ///< Consecutive pages from vpn.
    };

    /**
     * Decode an encoded image, replacing what was held. A forged count,
     * a truncated record, an overlong varint, a page outside every VMA
     * of the image or a page not above the one before it throws
     * sim::FatalError.
     */
    void decode(const std::vector<uint8_t> &data);

    const proto::CriuImageMsg &header() const { return header_; }
    const std::vector<Run> &runs() const { return runs_; }

    /** One token per page, in record order: run by run. */
    const std::vector<uint64_t> &contents() const { return contents_; }

  private:
    proto::CriuImageMsg header_;
    std::vector<Run> runs_;
    std::vector<uint64_t> contents_;
};

/**
 * Handle to a CRIU image file set on the shared CXL filesystem. Owns
 * its file: the handle's destruction (or its reclaim from the
 * checkpoint store) removes the file, returning its CXL frames — so a
 * garbage-collected orphan cannot strand file frames on the device.
 */
class CriuHandle : public CheckpointHandle
{
  public:
    /**
     * Created empty before serialization begins so the handle can be
     * STAGED ahead of the image-file write; setContents() +
     * markCommitted() complete it.
     */
    CriuHandle(std::string fileName, cxl::SharedFs *fs)
        : fileName_(std::move(fileName)), fs_(fs)
    {}

    ~CriuHandle() override
    {
        if (fs_)
            fs_->remove(fileName_); // no-op when the file never landed
    }

    CriuHandle(const CriuHandle &) = delete;
    CriuHandle &operator=(const CriuHandle &) = delete;

    /**
     * @param cxlFrees The CXL tier's freeCount() right after the image
     *        file was written, when all its frames were allocated.
     */
    void
    setContents(uint64_t simBytes, uint64_t pages, uint64_t records,
                uint64_t cxlFrees)
    {
        simBytes_ = simBytes;
        pages_ = pages;
        records_ = records;
        cxlFreesAtWrite_ = cxlFrees;
    }

    /** The image file is fully on the device and its CRC is sealed. */
    void markCommitted() { committed_ = true; }

    const std::string &fileName() const { return fileName_; }
    uint64_t simulatedBytes() const { return simBytes_; }
    uint64_t pages() const { return pages_; }
    uint64_t records() const { return records_; }

    /**
     * True while no CXL frame has been freed since the image file was
     * written, so every frame it lists is still allocated.
     */
    bool
    framesSurelyLive(const mem::FrameAllocator &cxl) const
    {
        return cxl.freeCount() == cxlFreesAtWrite_;
    }

    uint64_t cxlBytes() const override { return simBytes_; }
    uint64_t localBytes() const override { return 0; }

    bool
    complete() const override
    {
        return committed_ && fs_ && fs_->open(fileName_) != nullptr &&
               fs_->verify(fileName_);
    }

    /**
     * The image in `file`, this handle's image file, decoded on the
     * first call after each change of its bytes (a new generation) and
     * kept until the next, so repeated restores of one image parse it
     * once. A malformed image throws sim::FatalError on every call.
     */
    const CriuRecords &
    decoded(const cxl::CxlFsFile &file)
    {
        if (decodedGeneration_ != file.generation) {
            decodedGeneration_ = 0;
            decoded_.decode(file.data);
            decodedGeneration_ = file.generation;
        }
        return decoded_;
    }

    bool
    referencesFrame(mem::PhysAddr addr) const override
    {
        if (!fs_)
            return false;
        const cxl::CxlFsFile *file = fs_->open(fileName_);
        if (!file)
            return false;
        return std::find(file->frames.begin(), file->frames.end(), addr) !=
               file->frames.end();
    }

  private:
    std::string fileName_;
    cxl::SharedFs *fs_ = nullptr;
    bool committed_ = false;
    uint64_t simBytes_ = 0;
    uint64_t pages_ = 0;
    uint64_t records_ = 0;
    uint64_t cxlFreesAtWrite_ = 0;
    CriuRecords decoded_;
    /** The file generation decoded_ holds; 0 (no file's) when none. */
    uint64_t decodedGeneration_ = 0;
};

/** The CRIU-CXL mechanism. */
class CriuCxl : public RemoteForkMechanism
{
  public:
    explicit CriuCxl(cxl::CxlFabric &fabric)
        : fabric_(fabric), metrics_(fabric.machine().metrics(), "criu")
    {}

    const char *name() const override { return "CRIU-CXL"; }

    std::shared_ptr<CheckpointHandle>
    checkpoint(os::NodeOs &node, os::Task &parent,
               CheckpointStats *stats = nullptr) override;

    std::shared_ptr<os::Task>
    restore(const std::shared_ptr<CheckpointHandle> &handle,
            os::NodeOs &target, const RestoreOptions &opts = {},
            RestoreStats *stats = nullptr) override;

  private:
    cxl::CxlFabric &fabric_;
    uint64_t nextImageId_ = 1;
    MechanismMetrics metrics_;
};

} // namespace cxlfork::rfork
