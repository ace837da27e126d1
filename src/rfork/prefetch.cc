#include "prefetch.hh"

#include <algorithm>

namespace cxlfork::rfork {

namespace {

/** splitmix64 finalizer: the seeded per-index degradation draw. */
uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/**
 * Exponential decay applied to every page's score per trained
 * invocation; a page refaulted every invocation converges to score
 * 1/(1-decay), one never seen again decays toward zero.
 */
constexpr double kDecay = 0.5;

/**
 * Hot-set admission threshold as a fraction of the maximum possible
 * score: pages below it (stale one-off faults) are not scheduled.
 */
constexpr double kMinScoreFrac = 0.25;

} // namespace

void
FaultTraceRecorder::recordFault(mem::VirtAddr va, os::FaultKind kind,
                                bool isWrite, sim::SimTime now)
{
    FaultTraceEntry e;
    e.vpn = va.pageNumber();
    e.kind = kind;
    e.isWrite = isWrite;
    e.order = entries_.size();
    e.sinceLast = any_ ? now - last_ : sim::SimTime::zero();
    entries_.push_back(e);
    last_ = now;
    any_ = true;
}

void
FaultTraceRecorder::clear()
{
    entries_.clear();
    last_ = sim::SimTime::zero();
    any_ = false;
}

void
WorkingSetPredictor::train(const std::vector<FaultTraceEntry> &trace)
{
    // Decay every tracked page first, then credit this invocation's
    // faults. Only the first fault of a page per invocation counts —
    // refaults of the same page within one run carry no extra signal
    // for a restore-time prefetch.
    for (auto &[vpn, s] : pages_) {
        s.score *= kDecay;
        s.orderSum *= kDecay;
        s.writeScore *= kDecay;
        s.readScore *= kDecay;
    }
    std::map<uint64_t, const FaultTraceEntry *> firstFault;
    std::map<uint64_t, bool> wrote;
    for (const FaultTraceEntry &e : trace) {
        firstFault.emplace(e.vpn, &e);
        // Write intent is a property of the page across the whole
        // invocation, not just its first fault: a page first read then
        // written wants its CoW pre-broken.
        wrote[e.vpn] = wrote[e.vpn] || e.isWrite;
    }
    for (const auto &[vpn, e] : firstFault) {
        PageScore &s = pages_[vpn];
        s.score += 1.0;
        s.orderSum += double(e->order);
        (wrote[vpn] ? s.writeScore : s.readScore) += 1.0;
    }
    ++invocations_;

    // Drop pages decayed to noise so the table tracks the working set,
    // not the union of everything ever faulted.
    const double floor = 1e-6;
    for (auto it = pages_.begin(); it != pages_.end();) {
        if (it->second.score < floor)
            it = pages_.erase(it);
        else
            ++it;
    }
}

PrefetchSchedule
WorkingSetPredictor::schedule() const
{
    PrefetchSchedule out;
    if (invocations_ == 0)
        return out;
    // Max possible score: a page present in every trained invocation.
    double maxScore = 0.0;
    double w = 1.0;
    for (uint64_t i = 0; i < invocations_ && i < 64; ++i) {
        maxScore += w;
        w *= kDecay;
    }
    const double admit = kMinScoreFrac * maxScore;

    struct Ranked
    {
        double meanOrder;
        uint64_t vpn;
        bool wantWrite;
    };
    std::vector<Ranked> ranked;
    ranked.reserve(pages_.size());
    for (const auto &[vpn, s] : pages_) {
        if (s.score < admit)
            continue;
        ranked.push_back({s.orderSum / s.score, vpn,
                          s.writeScore > s.readScore});
    }
    std::sort(ranked.begin(), ranked.end(), [](const Ranked &a,
                                               const Ranked &b) {
        if (a.meanOrder != b.meanOrder)
            return a.meanOrder < b.meanOrder;
        return a.vpn < b.vpn;
    });
    out.pages.reserve(ranked.size());
    for (const Ranked &r : ranked)
        out.pages.push_back({r.vpn, r.wantWrite});
    return out;
}

PrefetchSchedule
degradeSchedule(const PrefetchSchedule &in, double accuracy,
                const std::vector<uint64_t> &coldDecoyVpns, uint64_t seed)
{
    accuracy = std::clamp(accuracy, 0.0, 1.0);
    PrefetchSchedule out;
    out.pages.reserve(in.pages.size());
    size_t decoy = 0;
    for (size_t i = 0; i < in.pages.size(); ++i) {
        const double u =
            double(mix64(seed ^ (uint64_t(i) * 0x2545f4914f6cdd1dull)) >>
                   11) *
            0x1.0p-53;
        if (u < accuracy) {
            out.pages.push_back(in.pages[i]);
        } else if (!coldDecoyVpns.empty()) {
            // A wrong guess still issues: the decoy is a legal, never-
            // accessed page, so the batch pays its fabric cost for
            // nothing — the honest price of low accuracy.
            out.pages.push_back(
                {coldDecoyVpns[decoy++ % coldDecoyVpns.size()], false});
        }
    }
    return out;
}

void
runSpeculativePrefetch(os::NodeOs &node, os::Task &task,
                       const PrefetchSchedule &schedule, RestoreStats *stats)
{
    if (schedule.empty())
        return;
    sim::SimClock &clock = node.clock();
    const sim::SimTime start = clock.now();
    sim::SpanScope span = node.machine().tracer().span(
        clock, node.id(), "restore.speculative", "rfork");
    span.attr("scheduled", uint64_t(schedule.size()));
    std::vector<os::PrefetchRequest> reqs;
    reqs.reserve(schedule.pages.size());
    for (const PrefetchSchedule::Entry &e : schedule.pages) {
        reqs.push_back({mem::VirtAddr::fromPageNumber(e.vpn), e.wantWrite});
    }
    const os::PrefetchResult r = node.prefetchPages(task, reqs);
    span.attr("mapped", r.mapped).attr("copied", r.copied)
        .attr("skipped", r.skipped);
    if (stats) {
        stats->prefetchTime += clock.now() - start;
        stats->pagesPrefetched += r.mapped + r.copied;
        stats->prefetchSkipped += r.skipped;
    }
}

} // namespace cxlfork::rfork
