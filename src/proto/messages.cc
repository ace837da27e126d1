#include "messages.hh"

#include <algorithm>

#include "sim/log.hh"

namespace cxlfork::proto {

namespace {

/** Fewest encoded bytes per record: one byte per varint field. */
constexpr uint64_t kMinVmaBytes = 8;  ///< six varints, two string lengths
constexpr uint64_t kMinPageBytes = 2; ///< vpn, content

} // namespace

void
VmaMsg::encode(Encoder &e) const
{
    e.putU64(start);
    e.putU64(end);
    e.putU32(perms);
    e.putU32(kind);
    e.putU32(segClass);
    e.putU64(fileOffset);
    e.putString(filePath);
    e.putString(name);
}

VmaMsg
VmaMsg::decode(Decoder &d)
{
    VmaMsg m;
    m.start = d.getU64();
    m.end = d.getU64();
    m.perms = uint8_t(d.getU32());
    m.kind = uint8_t(d.getU32());
    m.segClass = uint8_t(d.getU32());
    m.fileOffset = d.getU64();
    m.filePath = d.getString();
    m.name = d.getString();
    return m;
}

void
FileMsg::encode(Encoder &e) const
{
    e.putU32(uint32_t(fd));
    e.putString(path);
    e.putU32(flags);
    e.putU64(offset);
}

FileMsg
FileMsg::decode(Decoder &d)
{
    FileMsg m;
    m.fd = int32_t(d.getU32());
    m.path = d.getString();
    m.flags = d.getU32();
    m.offset = d.getU64();
    return m;
}

void
SocketMsg::encode(Encoder &e) const
{
    e.putU32(uint32_t(fd));
    e.putString(peer);
}

SocketMsg
SocketMsg::decode(Decoder &d)
{
    SocketMsg m;
    m.fd = int32_t(d.getU32());
    m.peer = d.getString();
    return m;
}

void
CpuMsg::encode(Encoder &e) const
{
    for (uint64_t r : gpr)
        e.putU64(r);
    e.putU64(rip);
    e.putU64(rsp);
    e.putU64(fpstate);
}

CpuMsg
CpuMsg::decode(Decoder &d)
{
    CpuMsg m;
    for (uint64_t &r : m.gpr)
        r = d.getU64();
    m.rip = d.getU64();
    m.rsp = d.getU64();
    m.fpstate = d.getU64();
    return m;
}

void
PageMsg::encode(Encoder &e) const
{
    e.putU64(vpn);
    e.putU64(content);
}

void
GlobalStateMsg::encode(Encoder &e) const
{
    e.putString(taskName);
    e.putU64(files.size());
    for (const FileMsg &f : files)
        f.encode(e);
    e.putU64(sockets.size());
    for (const SocketMsg &s : sockets)
        s.encode(e);
    e.putU64(mounts.size());
    for (const std::string &m : mounts)
        e.putString(m);
    e.putU64(pidNamespaceId);
}

GlobalStateMsg
GlobalStateMsg::decode(Decoder &d)
{
    GlobalStateMsg m;
    m.taskName = d.getString();
    const uint64_t nf = d.getU64();
    for (uint64_t i = 0; i < nf; ++i)
        m.files.push_back(FileMsg::decode(d));
    const uint64_t ns = d.getU64();
    for (uint64_t i = 0; i < ns; ++i)
        m.sockets.push_back(SocketMsg::decode(d));
    const uint64_t nm = d.getU64();
    for (uint64_t i = 0; i < nm; ++i)
        m.mounts.push_back(d.getString());
    m.pidNamespaceId = d.getU64();
    return m;
}

uint64_t
GlobalStateMsg::simulatedBytes() const
{
    uint64_t bytes = 32 + taskName.size();
    for (const FileMsg &f : files)
        bytes += f.simulatedBytes();
    for (const SocketMsg &s : sockets)
        bytes += s.simulatedBytes();
    for (const std::string &m : mounts)
        bytes += 16 + m.size();
    return bytes;
}

void
CriuImageMsg::encode(Encoder &e) const
{
    global.encode(e);
    cpu.encode(e);
    e.putU64(vmas.size());
    for (const VmaMsg &v : vmas)
        v.encode(e);
    e.putU64(pages.size());
    for (const PageMsg &p : pages)
        p.encode(e);
}

CriuImageMsg
CriuImageMsg::decodeHeader(Decoder &d)
{
    CriuImageMsg m;
    m.global = GlobalStateMsg::decode(d);
    m.cpu = CpuMsg::decode(d);
    // Reserve no more records than the bytes left could encode, so a
    // forged count still runs out of input (a FatalError) instead of
    // asking for an impossible allocation.
    const uint64_t nv = d.getU64();
    m.vmas.reserve(std::min<uint64_t>(nv, d.remaining() / kMinVmaBytes));
    for (uint64_t i = 0; i < nv; ++i)
        m.vmas.push_back(VmaMsg::decode(d));
    return m;
}

uint64_t
decodePageCount(Decoder &d)
{
    const uint64_t count = d.getU64();
    if (count > d.remaining() / kMinPageBytes)
        sim::fatal("wire: page count %llu exceeds the %zu bytes left",
                   (unsigned long long)count, d.remaining());
    return count;
}

uint64_t
CriuImageMsg::simulatedBytes() const
{
    uint64_t bytes = global.simulatedBytes() + CpuMsg::simulatedBytes();
    for (const VmaMsg &v : vmas)
        bytes += v.simulatedBytes();
    bytes += pages.size() * PageMsg::simulatedBytes();
    return bytes;
}

uint64_t
CriuImageMsg::recordCount() const
{
    return global.recordCount() + 1 + vmas.size() + pages.size();
}

} // namespace cxlfork::proto
