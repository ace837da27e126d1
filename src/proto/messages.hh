/**
 * @file
 * Checkpoint message schema.
 *
 * CRIU-CXL serializes the *entire* process state through these
 * messages (task, VMAs, page map, pages). CXLfork serializes only the
 * global state (files, sockets, mounts, PID namespace) and keeps
 * everything else as-is in CXL memory (paper Sec. 4.1).
 */

#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "wire.hh"

namespace cxlfork::proto {

/** One VMA record. */
struct VmaMsg
{
    uint64_t start = 0;
    uint64_t end = 0;
    uint8_t perms = 0;
    uint8_t kind = 0;
    uint8_t segClass = 0;
    uint64_t fileOffset = 0;
    std::string filePath;
    std::string name;

    void encode(Encoder &e) const;
    static VmaMsg decode(Decoder &d);

    /** Size this record would occupy in a native checkpoint. */
    uint64_t simulatedBytes() const { return 64 + filePath.size() + name.size(); }

    bool operator==(const VmaMsg &) const = default;
};

/** An open regular file. */
struct FileMsg
{
    int32_t fd = 0;
    std::string path;
    uint32_t flags = 0;
    uint64_t offset = 0;

    void encode(Encoder &e) const;
    static FileMsg decode(Decoder &d);

    uint64_t simulatedBytes() const { return 24 + path.size(); }

    bool operator==(const FileMsg &) const = default;
};

/** An open socket (re-connected on restore). */
struct SocketMsg
{
    int32_t fd = 0;
    std::string peer;

    void encode(Encoder &e) const;
    static SocketMsg decode(Decoder &d);

    uint64_t simulatedBytes() const { return 16 + peer.size(); }

    bool operator==(const SocketMsg &) const = default;
};

/** Architectural register file. */
struct CpuMsg
{
    std::array<uint64_t, 16> gpr{};
    uint64_t rip = 0;
    uint64_t rsp = 0;
    uint64_t fpstate = 0;

    void encode(Encoder &e) const;
    static CpuMsg decode(Decoder &d);

    static constexpr uint64_t simulatedBytes() { return 16 * 8 + 24 + 832; }

    bool operator==(const CpuMsg &) const = default;
};

/** One checkpointed memory page (CRIU pagemap + page data). */
struct PageMsg
{
    uint64_t vpn = 0;
    uint64_t content = 0; ///< Token standing in for 4 KB of data.

    void encode(Encoder &e) const;

    static PageMsg
    decode(Decoder &d)
    {
        PageMsg m;
        m.vpn = d.getU64();
        m.content = d.getU64();
        return m;
    }

    /** A page costs its full 4 KB on the wire plus map entry. */
    static constexpr uint64_t simulatedBytes() { return 4096 + 16; }

    bool operator==(const PageMsg &) const = default;
};

/**
 * Global + reconfigurable state every mechanism must re-instantiate on
 * the target node (paper Sec. 4.1 "Global State").
 */
struct GlobalStateMsg
{
    std::string taskName;
    std::vector<FileMsg> files;
    std::vector<SocketMsg> sockets;
    std::vector<std::string> mounts;
    uint64_t pidNamespaceId = 0;

    void encode(Encoder &e) const;
    static GlobalStateMsg decode(Decoder &d);

    uint64_t simulatedBytes() const;
    uint64_t recordCount() const { return 1 + files.size() + sockets.size() + mounts.size(); }

    bool operator==(const GlobalStateMsg &) const = default;
};

/** The full CRIU checkpoint: everything, serialized. */
struct CriuImageMsg
{
    GlobalStateMsg global;
    CpuMsg cpu;
    std::vector<VmaMsg> vmas;
    std::vector<PageMsg> pages;

    void encode(Encoder &e) const;

    /**
     * Decode all but the page section: global state, CPU and VMAs. The
     * decoder is left at the page count (decodePageCount), and the
     * header's `pages` stays empty.
     */
    static CriuImageMsg decodeHeader(Decoder &d);

    uint64_t simulatedBytes() const;
    uint64_t recordCount() const;

    bool operator==(const CriuImageMsg &) const = default;
};

/**
 * Read the page count that opens the page section of an encoded CRIU
 * image; the records follow, each read with PageMsg::decode. A count
 * the bytes left could not encode throws sim::FatalError, so a caller
 * may size its storage by the count before reading any record.
 */
uint64_t decodePageCount(Decoder &d);

} // namespace cxlfork::proto
