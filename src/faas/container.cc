#include "container.hh"

#include "sim/log.hh"

namespace cxlfork::faas {

ContainerManager::ContainerManager(os::NodeOs &node)
    : node_(node),
      createdCounter_(
          &node.machine().metrics().counter("faas.container.created")),
      ghostProvisionedCounter_(&node.machine().metrics().counter(
          "faas.container.ghost_provisioned")),
      ghostTriggeredCounter_(&node.machine().metrics().counter(
          "faas.container.ghost_triggered"))
{}

std::shared_ptr<Container>
ContainerManager::makeShell(const std::string &name)
{
    auto c = std::make_shared<Container>();
    c->id_ = sim::format("%s-%llu", name.c_str(),
                         (unsigned long long)nextId_++);
    c->node_ = node_.id();
    c->ns_.pid = node_.nsRegistry().makePidNs();
    c->ns_.mount = node_.nsRegistry().makeMountNs();
    c->ns_.net = node_.nsRegistry().makeNetNs();
    c->ns_.cgroup.name = "/faas/" + c->id_;
    c->shellBytes_ = node_.machine().costs().ghostFootprintBytes;
    ++liveCount_;
    return c;
}

std::shared_ptr<Container>
ContainerManager::create(const std::string &name)
{
    node_.clock().advance(node_.machine().costs().containerCreate);
    createdCounter_->inc();
    auto c = makeShell(name);
    c->state_ = Container::State::Active;
    return c;
}

std::shared_ptr<Container>
ContainerManager::provisionGhost(const std::string &name)
{
    node_.clock().advance(node_.machine().costs().containerCreate);
    ghostProvisionedCounter_->inc();
    auto c = makeShell(name);
    c->state_ = Container::State::Ghost;
    return c;
}

void
ContainerManager::trigger(Container &c)
{
    if (c.state_ != Container::State::Ghost)
        sim::fatal("trigger on non-ghost container %s", c.id().c_str());
    node_.clock().advance(node_.machine().costs().ghostTrigger);
    ghostTriggeredCounter_->inc();
    c.state_ = Container::State::Active;
}

void
ContainerManager::retire(Container &c)
{
    if (c.state_ == Container::State::Retired)
        return;
    c.state_ = Container::State::Retired;
    CXLF_ASSERT(liveCount_ > 0);
    --liveCount_;
}

} // namespace cxlfork::faas
