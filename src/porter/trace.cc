#include "trace.hh"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <fstream>
#include <sstream>

#include "sim/log.hh"

namespace cxlfork::porter {

using sim::SimTime;

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
    if (!(cfg_.burstRateMultiplier >= 1.0))
        sim::fatal("trace burst rate multiplier must be >= 1 (got %g)",
                   cfg_.burstRateMultiplier);
    if (!(cfg_.meanBurstGap > SimTime::zero()) ||
        !(cfg_.meanBurstLength > SimTime::zero())) {
        sim::fatal("trace mean burst gap and length must be > 0 "
                   "(got %s, %s)", cfg_.meanBurstGap.toString().c_str(),
                   cfg_.meanBurstLength.toString().c_str());
    }
}

std::vector<Request>
TraceGenerator::generate() const
{
    sim::Rng rng(cfg_.seed);
    // One arrival stream per function, each in arrival order.
    std::vector<std::vector<Request>> streams(functions_.size());
    // Scale the baseline so the burst-inflated expectation matches the
    // requested aggregate rate.
    const double burstFrac =
        cfg_.meanBurstLength.toSec() /
        (cfg_.meanBurstLength.toSec() + cfg_.meanBurstGap.toSec());
    const double inflation =
        (1.0 - burstFrac) + cfg_.burstRateMultiplier * burstFrac;
    const double perFnRps =
        cfg_.totalRps / (double(functions_.size()) * inflation);

    for (size_t s = 0; s < functions_.size(); ++s) {
        const std::string &fn = functions_[s];
        sim::Rng fnRng = rng.split();

        // Burst schedule for this function: alternating quiet/burst
        // windows, exponential lengths.
        struct Burst
        {
            double start, end;
        };
        std::vector<Burst> bursts;
        double t = fnRng.exponential(cfg_.meanBurstGap.toSec());
        while (t < cfg_.duration.toSec()) {
            const double len =
                fnRng.exponential(cfg_.meanBurstLength.toSec());
            bursts.push_back({t, t + len});
            t += len + fnRng.exponential(cfg_.meanBurstGap.toSec());
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
        const double maxRate = perFnRps * cfg_.burstRateMultiplier;
        double at = 0.0;
        while (true) {
            at += fnRng.exponential(1.0 / maxRate);
            if (at >= cfg_.duration.toSec())
                break;
            const double rate =
                inBurst(at) ? maxRate : perFnRps;
            if (fnRng.uniform() < rate / maxRate) {
                Request r;
                r.arrival = SimTime::sec(at);
                r.function = fn;
                streams[s].push_back(std::move(r));
            }
        }
    }

    // k-way merge by (arrival, function), the order a sort of the
    // whole trace gives. Each head carries its stream's rank among the
    // function names, so ties compare two integers. Two streams of one
    // name tie only on equal requests, so which goes first changes
    // nothing.
    struct Head
    {
        SimTime arrival;
        size_t rank;
        size_t stream;
    };
    auto after = [](const Head &a, const Head &b) {
        if (a.arrival != b.arrival)
            return b.arrival < a.arrival;
        return b.rank < a.rank;
    };
    std::vector<Head> heads; // min-heap by (arrival, rank)
    size_t total = 0;
    for (size_t s = 0; s < streams.size(); ++s) {
        total += streams[s].size();
        if (streams[s].empty())
            continue;
        size_t rank = 0;
        for (const std::string &other : functions_)
            rank += other < functions_[s];
        heads.push_back({streams[s].front().arrival, rank, s});
    }
    std::make_heap(heads.begin(), heads.end(), after);
    std::vector<size_t> cursor(streams.size());
    std::vector<Request> out;
    out.reserve(total);
    while (!heads.empty()) {
        std::pop_heap(heads.begin(), heads.end(), after);
        Head &h = heads.back();
        std::vector<Request> &st = streams[h.stream];
        out.push_back(std::move(st[cursor[h.stream]]));
        out.back().id = out.size() - 1;
        if (++cursor[h.stream] < st.size()) {
            h.arrival = st[cursor[h.stream]].arrival;
            std::push_heap(heads.begin(), heads.end(), after);
        } else {
            heads.pop_back();
        }
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
        Request r;
        r.arrival = SimTime::sec(ts);
        r.function = fn;
        out.push_back(std::move(r));
    }
    std::sort(out.begin(), out.end(),
              [](const Request &a, const Request &b) {
                  if (a.arrival != b.arrival)
                      return a.arrival < b.arrival;
                  return a.function < b.function;
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
