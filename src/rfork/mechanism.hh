/**
 * @file
 * The one way to choose a remote-fork mechanism, by kind or by the
 * lowercase key every golden key and tool flag uses.
 */

#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>

#include "cxl/fabric.hh"
#include "rfork/rfork.hh"

namespace cxlfork::rfork {

/** The four mechanisms the paper compares. */
enum class MechanismKind : uint8_t
{
    CriuCxl,
    MitosisCxl,
    CxlFork,
    LocalFork,
};

/** Every kind, in the order the sweep tools run them. */
inline constexpr std::array<MechanismKind, 4> kAllMechanisms{
    MechanismKind::CxlFork, MechanismKind::CriuCxl,
    MechanismKind::MitosisCxl, MechanismKind::LocalFork};

/** A fresh mechanism of `kind`; LocalFork ignores the fabric. */
std::unique_ptr<RemoteForkMechanism> makeMechanism(MechanismKind kind,
                                                   cxl::CxlFabric &fabric);

/** Display name: "CXLfork", "CRIU-CXL", "Mitosis-CXL", "LocalFork". */
const char *mechanismName(MechanismKind kind);

/** Lowercase key: "cxlfork", "criu", "mitosis", "localfork". */
const char *mechanismKey(MechanismKind kind);

/** The kind whose mechanismKey() is `key`, if any. */
std::optional<MechanismKind> parseMechanism(std::string_view key);

} // namespace cxlfork::rfork
