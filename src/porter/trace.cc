#include "trace.hh"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <deque>
#include <fstream>
#include <mutex>
#include <sstream>
#include <unordered_map>

#include "sim/log.hh"

namespace cxlfork::porter {

using sim::SimTime;

FunctionId
FunctionId::intern(std::string_view name)
{
    // Entries never move or die, so an id stays valid after the lock
    // is released, and the index keys view their entries' names.
    static std::mutex mu;
    static std::deque<Entry> entries;
    static std::unordered_map<std::string_view, const Entry *> byName;
    std::lock_guard<std::mutex> lock(mu);
    const auto it = byName.find(name);
    if (it != byName.end())
        return FunctionId(it->second);
    const Entry &e =
        entries.emplace_back(Entry{std::string(name),
                                   uint32_t(entries.size())});
    byName.emplace(e.name, &e);
    return FunctionId(&e);
}

const std::string &
FunctionId::name() const
{
    static const std::string none;
    return entry_ ? entry_->name : none;
}

TraceGenerator::TraceGenerator(std::vector<std::string> functions,
                               TraceConfig cfg)
    : functions_(std::move(functions)), cfg_(cfg)
{
    if (functions_.empty())
        sim::fatal("trace generator needs at least one function");
    // Each of these would make generate() loop forever, draw gaps from
    // a zero-rate exponential, or quietly thin the requested rate.
    if (!(cfg_.totalRps > 0 && std::isfinite(cfg_.totalRps)))
        sim::fatal("trace rate must be finite and > 0 (got %g rps)",
                   cfg_.totalRps);
    // A NaN duration never ends the arrival loop, and an infinite one
    // never ends the burst loop.
    const double duration = cfg_.duration.toSec();
    if (!(duration >= 0 && std::isfinite(duration)))
        sim::fatal("trace duration must be finite and >= 0 (got %g s)",
                   duration);
    if (!(cfg_.burstRateMultiplier >= 1.0))
        sim::fatal("trace burst rate multiplier must be >= 1 (got %g)",
                   cfg_.burstRateMultiplier);
    if (!(cfg_.meanBurstGap > SimTime::zero()) ||
        !(cfg_.meanBurstLength > SimTime::zero())) {
        sim::fatal("trace mean burst gap and length must be > 0 "
                   "(got %s, %s)", cfg_.meanBurstGap.toString().c_str(),
                   cfg_.meanBurstLength.toString().c_str());
    }
    ids_.reserve(functions_.size());
    for (const std::string &fn : functions_)
        ids_.push_back(FunctionId::intern(fn));
}

std::vector<Request>
TraceGenerator::generate() const
{
    sim::Rng rng(cfg_.seed);
    // One arrival stream per function, each in arrival order.
    std::vector<std::vector<SimTime>> streams(functions_.size());
    // Scale the baseline so the burst-inflated expectation matches the
    // requested aggregate rate.
    const double duration = cfg_.duration.toSec();
    const double meanGap = cfg_.meanBurstGap.toSec();
    const double meanLength = cfg_.meanBurstLength.toSec();
    const double burstFrac = meanLength / (meanLength + meanGap);
    const double inflation =
        (1.0 - burstFrac) + cfg_.burstRateMultiplier * burstFrac;
    const double perFnRps =
        cfg_.totalRps / (double(functions_.size()) * inflation);
    // Thinning keeps a candidate with probability rate / maxRate: 1 in
    // a burst, perFnRps / maxRate outside one.
    const double maxRate = perFnRps * cfg_.burstRateMultiplier;
    const double meanCandidateGap = 1.0 / maxRate;
    const double quietKeep = perFnRps / maxRate;

    // Each stream's expected count, with headroom for a stream whose
    // bursts cover more than their share, so a stream rarely regrows.
    const size_t expected =
        size_t(cfg_.totalRps / double(functions_.size()) * duration);
    const size_t presize = expected + expected / 4 + 16;

    struct Burst
    {
        double start, end;
    };
    std::vector<Burst> bursts;
    for (std::vector<SimTime> &stream : streams) {
        sim::Rng fnRng = rng.split();
        stream.reserve(presize);

        // Burst schedule for this function: alternating quiet/burst
        // windows, exponential lengths.
        bursts.clear();
        double t = fnRng.exponential(meanGap);
        while (t < duration) {
            const double len = fnRng.exponential(meanLength);
            bursts.push_back({t, t + len});
            t += len + fnRng.exponential(meanGap);
        }
        // Bursts are disjoint and ordered, and candidate arrivals only
        // move forward, so one cursor finds the burst (if any) holding
        // each arrival.
        size_t cursor = 0;
        auto inBurst = [&](double at) {
            while (cursor < bursts.size() && bursts[cursor].end <= at)
                ++cursor;
            return cursor < bursts.size() && at >= bursts[cursor].start;
        };

        // Thinned non-homogeneous Poisson arrivals.
        double at = 0.0;
        while (true) {
            at += fnRng.exponential(meanCandidateGap);
            if (at >= duration)
                break;
            const double keep = inBurst(at) ? 1.0 : quietKeep;
            if (fnRng.uniform() < keep)
                stream.push_back(SimTime::sec(at));
        }
    }

    // k-way merge by (arrival, function name), the order a sort of the
    // whole trace gives. Each head carries its stream's rank among the
    // function names, so ties compare two integers. Two streams of one
    // name tie only on equal requests, so which goes first changes
    // nothing.
    struct Head
    {
        SimTime arrival;
        uint32_t rank;
        uint32_t stream;
    };
    auto before = [](const Head &a, const Head &b) {
        if (a.arrival != b.arrival)
            return a.arrival < b.arrival;
        return a.rank < b.rank;
    };
    std::vector<Head> heads; // min-heap by (arrival, rank)
    size_t total = 0;
    for (size_t s = 0; s < streams.size(); ++s) {
        total += streams[s].size();
        if (streams[s].empty())
            continue;
        uint32_t rank = 0;
        for (const std::string &other : functions_)
            rank += other < functions_[s];
        heads.push_back({streams[s].front(), rank, uint32_t(s)});
    }
    // Sorted is a valid heap.
    std::sort(heads.begin(), heads.end(), before);
    std::vector<size_t> cursor(streams.size());
    std::vector<Request> out;
    out.reserve(total);
    while (!heads.empty()) {
        // Emit the root, put its stream's next arrival in its place (or
        // the last head, once the stream is done), and sift that down.
        Head h = heads.front();
        out.push_back({out.size(), h.arrival, ids_[h.stream]});
        const std::vector<SimTime> &st = streams[h.stream];
        if (++cursor[h.stream] < st.size()) {
            h.arrival = st[cursor[h.stream]];
        } else {
            h = heads.back();
            heads.pop_back();
        }
        const size_t n = heads.size();
        size_t i = 0;
        for (size_t c = 1; c < n; c = 2 * i + 1) {
            if (c + 1 < n && before(heads[c + 1], heads[c]))
                ++c;
            if (!before(heads[c], h))
                break;
            heads[i] = heads[c];
            i = c;
        }
        if (n)
            heads[i] = h;
    }
    return out;
}

double
TraceGenerator::measuredRps(const std::vector<Request> &reqs,
                            SimTime duration)
{
    if (duration.isZero())
        return 0.0;
    return double(reqs.size()) / duration.toSec();
}

namespace {

std::string
trim(const std::string &s)
{
    size_t b = 0, e = s.size();
    while (b < e && std::isspace(uint8_t(s[b])))
        ++b;
    while (e > b && std::isspace(uint8_t(s[e - 1])))
        --e;
    return s.substr(b, e - b);
}

} // namespace

std::vector<Request>
parseTraceCsv(const std::string &csvText)
{
    std::vector<Request> out;
    // Each name takes the table's lock once per call, not once a row.
    std::unordered_map<std::string, FunctionId> ids;
    std::istringstream in(csvText);
    std::string line;
    size_t lineNo = 0;
    bool firstRow = true; // the only row that may be a header
    while (std::getline(in, line)) {
        ++lineNo;
        const std::string t = trim(line);
        if (t.empty() || t[0] == '#')
            continue;
        const size_t comma = t.find(',');
        if (comma == std::string::npos) {
            sim::fatal("trace csv line %zu: expected "
                       "`timestamp,function`", lineNo);
        }
        const std::string tsField = trim(t.substr(0, comma));
        const std::string fn = trim(t.substr(comma + 1));
        const bool header = firstRow && !tsField.empty() &&
                            !std::isdigit(uint8_t(tsField[0])) &&
                            tsField[0] != '.';
        firstRow = false;
        if (header)
            continue;
        if (fn.empty())
            sim::fatal("trace csv line %zu: empty function name", lineNo);
        double ts = 0.0;
        try {
            size_t used = 0;
            ts = std::stod(tsField, &used);
            if (used != tsField.size())
                throw std::invalid_argument(tsField);
        } catch (const std::exception &) {
            sim::fatal("trace csv line %zu: bad timestamp '%s'", lineNo,
                       tsField.c_str());
        }
        // stod accepts "inf" and "nan": an infinite arrival never
        // comes, and a NaN key breaks the sort's strict weak order.
        if (!std::isfinite(ts)) {
            sim::fatal("trace csv line %zu: non-finite timestamp '%s'",
                       lineNo, tsField.c_str());
        }
        if (ts < 0)
            sim::fatal("trace csv line %zu: negative timestamp", lineNo);
        auto [it, fresh] = ids.try_emplace(fn);
        if (fresh)
            it->second = FunctionId::intern(fn);
        out.push_back({0, SimTime::sec(ts), it->second});
    }
    std::sort(out.begin(), out.end(),
              [](const Request &a, const Request &b) {
                  if (a.arrival != b.arrival)
                      return a.arrival < b.arrival;
                  return a.function != b.function &&
                         a.function.name() < b.function.name();
              });
    for (uint64_t i = 0; i < out.size(); ++i)
        out[i].id = i;
    return out;
}

std::vector<Request>
loadTraceCsv(const std::string &path)
{
    std::ifstream f(path);
    if (!f)
        sim::fatal("cannot open trace file %s", path.c_str());
    std::stringstream buf;
    buf << f.rdbuf();
    return parseTraceCsv(buf.str());
}

} // namespace cxlfork::porter
