/**
 * @file
 * Azure-style bursty invocation trace generation (paper Sec. 6.1:
 * "we invoke these functions according to real-world Azure serverless
 * traces"). We do not ship the proprietary traces; instead a seeded
 * generator reproduces their load characteristics: a Poisson baseline
 * per function plus heavy bursts concentrated on individual functions,
 * at a configurable aggregate request rate.
 */

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/rng.hh"
#include "sim/time.hh"

namespace cxlfork::porter {

/**
 * An interned function name: an 8-byte handle into a process-wide,
 * append-only, mutex-guarded name table. Interning one name twice, on
 * any thread, gives equal ids, and an entry lives as long as the
 * process, so copying an id is copying a pointer.
 *
 * Ids compare for equality only. Which index a name gets depends on
 * which thread interned it first, so no id value may order, hash or
 * print any output: order by name(), and use index() only to address
 * a table of one's own.
 */
class FunctionId
{
  public:
    /** No function: the id of a default Request. */
    constexpr FunctionId() = default;

    /** The id of `name`, added to the table on its first intern. */
    static FunctionId intern(std::string_view name);

    /** Whether this id names a function (not the default id). */
    bool valid() const { return entry_ != nullptr; }

    /** The interned name; empty for the default id. */
    const std::string &name() const;

    /**
     * This name's position in the table: dense from 0, in intern
     * order. Only for valid ids.
     */
    uint32_t index() const { return entry_->index; }

    friend bool operator==(FunctionId, FunctionId) = default;

  private:
    /** One table entry; its address never changes. */
    struct Entry
    {
        std::string name;
        uint32_t index;
    };

    explicit FunctionId(const Entry *entry) : entry_(entry) {}

    const Entry *entry_ = nullptr;
};

/** One function invocation request. */
struct Request
{
    uint64_t id = 0;
    sim::SimTime arrival;
    FunctionId function;
};

/** Trace generation parameters. */
struct TraceConfig
{
    double totalRps = 150.0;        ///< Paper Sec. 7.2.
    sim::SimTime duration = sim::SimTime::sec(60);
    double burstRateMultiplier = 8.0;
    sim::SimTime meanBurstGap = sim::SimTime::sec(8);
    sim::SimTime meanBurstLength = sim::SimTime::sec(2);
    uint64_t seed = 0x7ace;
};

/** Generates a deterministic bursty trace over a set of functions. */
class TraceGenerator
{
  public:
    TraceGenerator(std::vector<std::string> functions, TraceConfig cfg);

    /** All requests, sorted by arrival time. */
    std::vector<Request> generate() const;

    /** Observed aggregate rate of a generated trace. */
    static double measuredRps(const std::vector<Request> &reqs,
                              sim::SimTime duration);

  private:
    std::vector<std::string> functions_;
    std::vector<FunctionId> ids_; ///< functions_, interned.
    TraceConfig cfg_;
};

/**
 * Parse an invocation trace from CSV text with lines of the form
 * `timestamp_seconds,function_name` (comments with '#', blank lines
 * and an optional header are skipped). This is the import path for
 * real production traces, e.g. a flattened Azure Functions dataset;
 * the seeded TraceGenerator is the stand-in when none is available.
 *
 * Requests are sorted by arrival, ties by function name, and
 * assigned sequential ids.
 * @throws sim::FatalError on malformed rows.
 */
std::vector<Request> parseTraceCsv(const std::string &csvText);

/** Read and parse a trace CSV from disk. */
std::vector<Request> loadTraceCsv(const std::string &path);

} // namespace cxlfork::porter
