/**
 * @file
 * Strict flag parsing shared by the cxlfork CLI, crash_sweep,
 * chaos_soak and partition_soak. A number is plain decimal: no sign, no
 * trailing characters, no overflow, and finite. A bad number, a missing
 * value, an unknown flag or an unknown mechanism prints the tool's
 * usage line and exits 2.
 */

#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "porter/scenario.hh"
#include "rfork/mechanism.hh"

namespace cxlfork::tools {

class Flags
{
  public:
    /** `usage` is the argument synopsis printed after the tool name. */
    Flags(const char *argv0, const char *usage)
        : argv0_(argv0), usage_(usage)
    {}

    [[noreturn]] void
    usage() const
    {
        std::fprintf(stderr, "usage: %s %s\n", argv0_, usage_);
        std::exit(2);
    }

    /** An integer in [lo, hi]. */
    uint64_t
    count(const char *text, uint64_t lo = 0, uint64_t hi = UINT64_MAX) const
    {
        uint64_t v = 0;
        const char *end = text + std::strlen(text);
        const auto [ptr, ec] = std::from_chars(text, end, v);
        if (ptr == text || ec != std::errc() || ptr != end || v < lo ||
            v > hi)
            usage();
        return v;
    }

    /** A finite number, at least 0; with `positive`, above 0. */
    double
    number(const char *text, bool positive = false) const
    {
        double v = 0.0;
        const char *end = text + std::strlen(text);
        const auto [ptr, ec] = std::from_chars(text, end, v);
        if (*text == '-' || ptr == text || ec != std::errc() || ptr != end ||
            !std::isfinite(v) || (positive && !(v > 0.0)))
            usage();
        return v;
    }

    /** A number in [0, 1]. */
    double
    fraction(const char *text) const
    {
        const double v = number(text);
        if (v > 1.0)
            usage();
        return v;
    }

    rfork::MechanismKind
    mechanism(const char *text) const
    {
        const auto kind = rfork::parseMechanism(text);
        if (!kind)
            usage();
        return *kind;
    }

  private:
    const char *argv0_;
    const char *usage_;
};

/** The flags chaos_soak and partition_soak share. */
struct SoakFlags
{
    std::vector<rfork::MechanismKind> mechanisms{rfork::kAllMechanisms.begin(),
                                                 rfork::kAllMechanisms.end()};
    porter::Scenario scenario;
    bool negative = false;
    double minSurvival = 0.9;
};

/**
 * Parse the soak flags over `preset`: --negative picks the preset's
 * negative control, and --rounds, --replicas and --seed override it,
 * in whatever order they come.
 */
inline SoakFlags
parseSoakFlags(int argc, char **argv, porter::Scenario (*preset)(bool))
{
    const Flags flags(argv[0],
                      "[--mechanism cxlfork|criu|mitosis|localfork] "
                      "[--rounds N] [--replicas K] [--seed S] [--negative] "
                      "[--min-survival F]");
    SoakFlags f;
    std::optional<uint64_t> rounds, seed;
    std::optional<uint32_t> replicas;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--mechanism" && i + 1 < argc) {
            f.mechanisms = {flags.mechanism(argv[++i])};
        } else if (arg == "--rounds" && i + 1 < argc) {
            rounds = flags.count(argv[++i], 1);
        } else if (arg == "--replicas" && i + 1 < argc) {
            replicas = uint32_t(flags.count(argv[++i], 0, UINT32_MAX));
        } else if (arg == "--seed" && i + 1 < argc) {
            seed = flags.count(argv[++i]);
        } else if (arg == "--negative") {
            f.negative = true;
        } else if (arg == "--min-survival" && i + 1 < argc) {
            f.minSurvival = flags.fraction(argv[++i]);
        } else {
            flags.usage();
        }
    }
    f.scenario = preset(f.negative);
    f.scenario.rounds = rounds.value_or(f.scenario.rounds);
    f.scenario.seed = seed.value_or(f.scenario.seed);
    if (replicas)
        f.scenario.setReplicas(*replicas);
    return f;
}

} // namespace cxlfork::tools
