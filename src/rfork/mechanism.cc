#include "mechanism.hh"

#include "rfork/criu.hh"
#include "rfork/cxlfork.hh"
#include "rfork/localfork.hh"
#include "rfork/mitosis.hh"
#include "sim/log.hh"

namespace cxlfork::rfork {

namespace {

/** Display name and key of each kind, in MechanismKind order. */
constexpr struct
{
    const char *name;
    const char *key;
} kNames[] = {
    {"CRIU-CXL", "criu"},
    {"Mitosis-CXL", "mitosis"},
    {"CXLfork", "cxlfork"},
    {"LocalFork", "localfork"},
};

} // namespace

std::unique_ptr<RemoteForkMechanism>
makeMechanism(MechanismKind kind, cxl::CxlFabric &fabric)
{
    switch (kind) {
      case MechanismKind::CriuCxl:
        return std::make_unique<CriuCxl>(fabric);
      case MechanismKind::MitosisCxl:
        return std::make_unique<MitosisCxl>(fabric);
      case MechanismKind::CxlFork:
        return std::make_unique<CxlFork>(fabric);
      case MechanismKind::LocalFork:
        return std::make_unique<LocalFork>();
    }
    sim::panic("unknown mechanism kind %u", unsigned(kind));
}

const char *
mechanismName(MechanismKind kind)
{
    return kNames[size_t(kind)].name;
}

const char *
mechanismKey(MechanismKind kind)
{
    return kNames[size_t(kind)].key;
}

std::optional<MechanismKind>
parseMechanism(std::string_view key)
{
    for (MechanismKind kind : kAllMechanisms) {
        if (key == mechanismKey(kind))
            return kind;
    }
    return std::nullopt;
}

} // namespace cxlfork::rfork
