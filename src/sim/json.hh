/**
 * @file
 * A minimal JSON toolkit for the observability exporters and their
 * round-trip tests: string escaping, stable number formatting, and a
 * small recursive-descent parser producing a generic Value tree.
 *
 * This is not a general-purpose JSON library; it supports exactly the
 * subset the tracer / metrics exporters emit (objects, arrays,
 * strings, finite numbers, booleans, null) and is strict about it.
 */

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace cxlfork::sim::json {

/** A parsed JSON value. Object member order is preserved. */
struct Value
{
    enum class Kind : uint8_t { Null, Bool, Number, String, Array, Object };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string str;
    std::vector<Value> array;
    std::vector<std::pair<std::string, Value>> object;

    bool isObject() const { return kind == Kind::Object; }
    bool isArray() const { return kind == Kind::Array; }
    bool isNumber() const { return kind == Kind::Number; }
    bool isString() const { return kind == Kind::String; }

    /** Object member lookup; nullptr when absent or not an object. */
    const Value *find(std::string_view key) const;

    /** Convenience accessors with defaults. */
    double numberOr(std::string_view key, double dflt) const;
    std::string stringOr(std::string_view key, std::string dflt) const;
};

/**
 * Parse a complete JSON document. Throws sim::FatalError on malformed
 * input (tests assert on the round trip, so errors must be loud),
 * including objects and arrays nested more than 256 deep; the message
 * names the byte offset where parsing stopped.
 */
Value parse(std::string_view text);

/** Escape a string for embedding between JSON double quotes. */
std::string escape(std::string_view s);

/**
 * Render a double with enough digits for an exact round trip
 * (shortest form via %.17g, with integral values kept integral).
 */
std::string formatNumber(double v);

} // namespace cxlfork::sim::json
