#include "state_capture.hh"

#include "sim/log.hh"

namespace cxlfork::rfork {

proto::GlobalStateMsg
captureGlobalState(const os::Task &task)
{
    proto::GlobalStateMsg msg;
    msg.taskName = task.name();
    for (const auto &[fd, file] : task.fds().files()) {
        proto::FileMsg m;
        m.fd = fd;
        m.path = file.inode->path;
        m.flags = file.flags;
        m.offset = file.offset;
        msg.files.push_back(std::move(m));
    }
    for (const auto &[fd, sock] : task.fds().sockets()) {
        proto::SocketMsg m;
        m.fd = fd;
        m.peer = sock.peer;
        msg.sockets.push_back(std::move(m));
    }
    if (task.namespaces().mount)
        msg.mounts = task.namespaces().mount->mounts;
    if (task.namespaces().pid)
        msg.pidNamespaceId = task.namespaces().pid->id;
    return msg;
}

proto::VmaMsg
toMsg(const os::Vma &vma)
{
    proto::VmaMsg m;
    m.start = vma.start.raw;
    m.end = vma.end.raw;
    m.perms = vma.perms;
    m.kind = uint8_t(vma.kind);
    m.segClass = uint8_t(vma.segClass);
    m.fileOffset = vma.fileOffset;
    m.filePath = vma.filePath;
    m.name = vma.name;
    return m;
}

os::Vma
fromMsg(const proto::VmaMsg &msg)
{
    os::Vma v;
    v.start = mem::VirtAddr{msg.start};
    v.end = mem::VirtAddr{msg.end};
    v.perms = msg.perms;
    v.kind = os::VmaKind(msg.kind);
    v.segClass = os::SegClass(msg.segClass);
    v.fileOffset = msg.fileOffset;
    v.filePath = msg.filePath;
    v.name = msg.name;
    return v;
}

std::vector<proto::VmaMsg>
captureVmas(const os::Task &task)
{
    std::vector<proto::VmaMsg> out;
    task.mm().vmas().forEach(
        [&](const os::Vma &vma) { out.push_back(toMsg(vma)); });
    return out;
}

void
redoGlobalState(os::NodeOs &node, os::Task &task,
                const proto::GlobalStateMsg &msg)
{
    const sim::CostParams &costs = node.machine().costs();
    for (const proto::FileMsg &f : msg.files) {
        auto inode = node.vfs().lookup(f.path);
        if (!inode) {
            sim::fatal("restore: file %s missing from shared root FS",
                       f.path.c_str());
        }
        os::File file;
        file.inode = inode;
        file.flags = f.flags;
        file.offset = f.offset;
        task.fds().installFile(std::move(file));
        node.clock().advance(costs.fileOpen);
    }
    for (const proto::SocketMsg &s : msg.sockets) {
        task.fds().installSocket(os::Socket{s.peer});
        node.clock().advance(costs.fileOpen);
    }
    if (task.namespaces().mount) {
        task.namespaces().mount->mounts = msg.mounts;
        node.clock().advance(costs.namespaceSetup);
    }
}

} // namespace cxlfork::rfork
