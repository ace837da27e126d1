/**
 * @file
 * An in-CXL-memory filesystem shared by all nodes.
 *
 * This is the CRIU-CXL transport (paper Sec. 6.2): the checkpointing
 * node serializes image files here; the restoring node reads them
 * without any file copy, paying only CXL access costs. Backing frames
 * are allocated on the CXL device so checkpoint files count against
 * its capacity.
 */

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "mem/machine.hh"
#include "page_store.hh"
#include "sim/clock.hh"

namespace cxlfork::cxl {

/** One file stored in CXL memory. */
struct CxlFsFile
{
    std::string name;
    std::vector<uint8_t> data;  ///< Real encoded bytes (token-compressed).
    uint64_t simulatedBytes = 0; ///< Size the file would have for real.
    std::vector<mem::PhysAddr> frames; ///< CXL frames backing it.
    uint32_t crc = 0;           ///< CRC-32 of data, sealed at write time.
};

/** The shared checkpoint-file store. */
class SharedFs
{
  public:
    /**
     * Backing frames are materialized through the fabric's page store:
     * each file page carries a content token derived from its slice of
     * the encoded bytes, so identical image files (the same function
     * checkpointed by different tenants) share frames when dedup is on.
     */
    SharedFs(mem::Machine &machine, PageStore &pageStore)
        : machine_(machine), pageStore_(pageStore)
    {}

    ~SharedFs();

    SharedFs(const SharedFs &) = delete;
    SharedFs &operator=(const SharedFs &) = delete;

    /**
     * Write a file: allocates CXL frames for its simulated size and
     * charges the writing node's clock for the non-temporal stores.
     * Overwrites any previous file of the same name. Seals a CRC-32 of
     * the encoded bytes so readers can detect torn writes.
     *
     * Exception-safe: on device exhaustion (sim::CapacityError) or an
     * injected transient escalation, already-allocated frames are
     * released and the previous file of the same name, if any, is left
     * intact.
     */
    const CxlFsFile &write(const std::string &name,
                           std::vector<uint8_t> encoded,
                           uint64_t simulatedBytes, sim::SimClock &clock,
                           mem::NodeId node = mem::kInvalidNode);

    /** Open for reading; nullptr when absent. No cost (mapped access). */
    const CxlFsFile *open(const std::string &name) const;

    /** Recompute the CRC of a stored file against its sealed value. */
    bool verify(const std::string &name) const;

    /** Flip one payload bit of a stored file (torn-write test hook). */
    void corruptBit(const std::string &name, uint64_t bit);

    /** Remove a file, releasing its CXL frames. */
    void remove(const std::string &name);

    /**
     * Release frames orphaned by an injected node crash mid-write (a
     * crashed writer cannot run its own cleanup, so write() parks them
     * here instead of freeing them). Called by the recovery pass.
     * @return number of frames returned to the CXL allocator.
     */
    uint64_t reclaimOrphans();

    uint64_t fileCount() const { return files_.size(); }
    uint64_t usedBytes() const { return usedBytes_; }

  private:
    void releaseFrames(CxlFsFile &file);

    mem::Machine &machine_;
    PageStore &pageStore_;
    std::map<std::string, CxlFsFile> files_;
    std::vector<std::vector<mem::PhysAddr>> orphans_;
    uint64_t usedBytes_ = 0;
};

} // namespace cxlfork::cxl
