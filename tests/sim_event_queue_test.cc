#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <numeric>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/rng.hh"

#include "sim/event_queue.hh"

namespace cxlfork::sim {
namespace {

using namespace time_literals;
using Event = EventQueue::Event;

/** An event whose payload is just an id. */
Event
ev(uint64_t id)
{
    return Event{0, 0, id};
}

/** A handler that records the id of every event it is handed. */
struct Recorder
{
    std::vector<uint64_t> ids;
    void operator()(Event e) { ids.push_back(e.b); }
};

/** A handler that does nothing. */
void
ignore(Event)
{
}

TEST(EventQueue, DispatchesInTimeOrder)
{
    EventQueue q;
    Recorder rec;
    q.schedule(3_ms, ev(3));
    q.schedule(1_ms, ev(1));
    q.schedule(2_ms, ev(2));
    q.run(rec);
    EXPECT_EQ(rec.ids, (std::vector<uint64_t>{1, 2, 3}));
    EXPECT_EQ(q.now(), 3_ms);
}

TEST(EventQueue, TieBreaksByInsertionOrder)
{
    EventQueue q;
    Recorder rec;
    for (uint64_t i = 0; i < 5; ++i)
        q.schedule(1_ms, ev(i));
    q.run(rec);
    EXPECT_EQ(rec.ids, (std::vector<uint64_t>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, PayloadReachesTheHandlerUnchanged)
{
    EventQueue q;
    const Event onHeap{0xffff'ffffu, 7, 0x8000'0000'0000'0001ull};
    const Event onLane{3, 0xffff'fffeu, ~0ull};
    q.schedule(2_ms, onHeap);
    q.scheduleSorted(1_ms, onLane, 5);
    std::vector<Event> got;
    while (q.step([&](Event e) { got.push_back(e); })) {
    }
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0].kind, onLane.kind);
    EXPECT_EQ(got[0].a, onLane.a);
    EXPECT_EQ(got[0].b, onLane.b);
    EXPECT_EQ(got[1].kind, onHeap.kind);
    EXPECT_EQ(got[1].a, onHeap.a);
    EXPECT_EQ(got[1].b, onHeap.b);
}

TEST(EventQueue, EventsMayScheduleEvents)
{
    EventQueue q;
    int fired = 0;
    q.schedule(1_ms, ev(1));
    q.run([&](Event e) {
        ++fired;
        if (e.b == 1)
            q.scheduleAfter(1_ms, ev(2));
    });
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(q.now(), 2_ms);
}

TEST(EventQueue, HorizonStopsDispatch)
{
    EventQueue q;
    int fired = 0;
    q.schedule(1_ms, ev(0));
    q.schedule(10_ms, ev(0));
    q.run([&](Event) { ++fired; }, 5_ms);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(q.pending(), 1u);
}

TEST(EventQueue, StepReturnsFalseWhenEmpty)
{
    EventQueue q;
    EXPECT_FALSE(q.step(ignore));
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, SchedulingInThePastPanics)
{
    EventQueue q;
    q.schedule(5_ms, ev(0));
    q.run(ignore);
    EXPECT_DEATH(q.schedule(1_ms, ev(0)), "past");
}

TEST(EventQueue, SortedLaneTiesBreakByInsertionOrder)
{
    EventQueue q;
    Recorder rec;
    q.schedule(1_ms, ev(0));
    q.scheduleSorted(1_ms, ev(1));
    q.schedule(1_ms, ev(2));
    q.scheduleSorted(1_ms, ev(3));
    q.scheduleSorted(2_ms, ev(5));
    q.schedule(2_ms, ev(6));
    q.schedule(1_ms, ev(4));
    q.run(rec);
    EXPECT_EQ(rec.ids, (std::vector<uint64_t>{0, 1, 2, 3, 4, 5, 6}));
}

TEST(EventQueue, SortedLaneOutOfOrderPanics)
{
    EventQueue q;
    q.scheduleSorted(5_ms, ev(0));
    EXPECT_DEATH(q.scheduleSorted(4_ms, ev(0)), "out of order");
}

TEST(EventQueue, SortedLaneInThePastPanics)
{
    EventQueue q;
    q.schedule(5_ms, ev(0));
    q.run(ignore);
    EXPECT_DEATH(q.scheduleSorted(1_ms, ev(0)), "past");
}

TEST(EventQueue, HorizonStopsBothLanes)
{
    EventQueue q;
    Recorder rec;
    q.scheduleSorted(1_ms, ev(1));
    q.schedule(2_ms, ev(2));
    q.scheduleSorted(6_ms, ev(6));
    q.schedule(7_ms, ev(7));
    q.run(rec, 5_ms);
    EXPECT_EQ(rec.ids, (std::vector<uint64_t>{1, 2}));
    EXPECT_EQ(q.now(), 2_ms);
    EXPECT_EQ(q.pending(), 2u);
    q.run(rec, 6_ms);
    EXPECT_EQ(rec.ids, (std::vector<uint64_t>{1, 2, 6}));
    EXPECT_EQ(q.pending(), 1u);
}

TEST(EventQueue, PendingAndEmptyCountBothLanes)
{
    EventQueue q;
    q.scheduleSorted(1_ms, ev(0));
    EXPECT_FALSE(q.empty());
    EXPECT_EQ(q.pending(), 1u);
    q.schedule(2_ms, ev(0));
    EXPECT_EQ(q.pending(), 2u);
    EXPECT_TRUE(q.step(ignore));
    EXPECT_EQ(q.pending(), 1u);
    EXPECT_FALSE(q.empty());
    EXPECT_TRUE(q.step(ignore));
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.pending(), 0u);
    EXPECT_FALSE(q.step(ignore));
}

/**
 * Random interleavings of schedule / scheduleSorted / step, including
 * events scheduled from callbacks, against a reference multimap keyed
 * by (when, seq): every dispatch must be the reference's next entry.
 */
TEST(EventQueue, MatchesReferenceOrderUnderRandomOps)
{
    EventQueue q;
    Rng rng(0xe7e47);
    using RefKey = std::pair<double, uint64_t>; // (when ns, seq)
    std::multimap<RefKey, uint64_t> ref;        // -> event id
    uint64_t seq = 0;
    uint64_t nextId = 0;
    double laneLast = 0.0;
    uint64_t dispatched = 0;
    std::vector<uint64_t> fired;

    // Times come from a small grid so equal-time ties are common.
    auto drawWhen = [&](double floor) {
        return floor + double(rng.index(8)) * 250.0;
    };
    auto add = [&](bool sorted, double when) {
        const uint64_t id = nextId++;
        ref.emplace(RefKey{when, seq++}, id);
        if (sorted)
            q.scheduleSorted(SimTime::ns(when), ev(id));
        else
            q.schedule(SimTime::ns(when), ev(id));
    };
    // Every fourth event schedules a follow-up on the heap when it runs.
    auto handle = [&](Event e) {
        fired.push_back(e.b);
        if (e.b % 4 == 0)
            add(false, drawWhen(q.now().toNs()));
    };

    for (int op = 0; op < 10000; ++op) {
        const uint64_t kind = rng.index(3);
        const double now = q.now().toNs();
        if (kind == 0) {
            add(false, drawWhen(now));
        } else if (kind == 1) {
            laneLast = drawWhen(std::max(laneLast, now));
            add(true, laneLast);
        } else if (!ref.empty()) {
            ASSERT_TRUE(q.step(handle));
            ++dispatched;
            ASSERT_EQ(fired.size(), dispatched);
            const auto head = ref.begin();
            ASSERT_EQ(fired.back(), head->second) << "op " << op;
            ASSERT_EQ(q.now().toNs(), head->first.first);
            ref.erase(head);
        } else {
            ASSERT_FALSE(q.step(handle));
        }
        ASSERT_EQ(q.pending(), ref.size());
    }
    while (!ref.empty()) {
        ASSERT_TRUE(q.step(handle));
        ASSERT_EQ(fired.back(), ref.begin()->second);
        ref.erase(ref.begin());
    }
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, LanesAreSortedIndependently)
{
    EventQueue q;
    Recorder rec;
    q.scheduleSorted(5_ms, ev(3), 1);
    q.scheduleSorted(1_ms, ev(0), 2);
    q.scheduleSorted(5_ms, ev(4), 2);
    q.scheduleSorted(2_ms, ev(1), 0);
    q.schedule(3_ms, ev(2));
    EXPECT_DEATH(q.scheduleSorted(4_ms, ev(0), 1), "out of order on lane 1");
    q.run(rec);
    EXPECT_EQ(rec.ids, (std::vector<uint64_t>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, LaneKeepsOrderAcrossItsWrap)
{
    EventQueue q;
    Recorder rec;
    auto add = [&](uint64_t i) {
        q.scheduleSorted(SimTime::ms(double(i)), ev(i), 2);
    };
    for (uint64_t i = 0; i < 12; ++i) // a 16-key ring
        add(i);
    q.run(rec, 5_ms); // its head moves to slot 6, so pushes wrap
    for (uint64_t i = 12; i < 40; ++i)
        add(i);
    q.run(rec);
    ASSERT_EQ(rec.ids.size(), 40u);
    for (uint64_t i = 0; i < 40; ++i)
        EXPECT_EQ(rec.ids[i], i);
}

TEST(EventQueue, LaneOutOfRangePanics)
{
    EventQueue q;
    EXPECT_DEATH(q.scheduleSorted(1_ms, ev(0), EventQueue::kLanes), "lane");
}

TEST(EventQueue, CountersCountPushesPerLaneAndDispatches)
{
    EventQueue q;
    q.schedule(1_ms, ev(1)); // schedules a follow-up on the heap
    q.scheduleSorted(1_ms, ev(0), 0);
    q.scheduleSorted(2_ms, ev(0), 3);
    q.scheduleSorted(3_ms, ev(0), 3);
    EXPECT_EQ(q.counters().heapPushes, 1u);
    EXPECT_EQ(q.counters().dispatches, 0u);
    q.run([&](Event e) {
        if (e.b == 1)
            q.scheduleAfter(1_ms, ev(0));
    });
    const EventQueue::Counters &c = q.counters();
    EXPECT_EQ(c.heapPushes, 2u);
    EXPECT_EQ(c.lanePushes[0], 1u);
    EXPECT_EQ(c.lanePushes[1], 0u);
    EXPECT_EQ(c.lanePushes[3], 2u);
    EXPECT_EQ(c.dispatches, 5u);
}

/**
 * MatchesReferenceOrderUnderRandomOps with the sorted events spread
 * over several lanes, each with its own non-decreasing clock, and a
 * lane ring that wraps and grows while events are pending.
 */
TEST(EventQueue, MultiLaneMatchesReferenceOrder)
{
    constexpr size_t kUsed = 4;
    EventQueue q;
    Rng rng(0x1a9e5);
    using RefKey = std::pair<double, uint64_t>; // (when ns, seq)
    std::multimap<RefKey, uint64_t> ref;        // -> event id
    uint64_t seq = 0;
    uint64_t nextId = 0;
    std::array<double, kUsed> laneLast{};
    Recorder fired;

    auto drawWhen = [&](double floor) {
        return floor + double(rng.index(8)) * 250.0;
    };
    auto add = [&](size_t lane, double when) {
        const uint64_t id = nextId++;
        ref.emplace(RefKey{when, seq++}, id);
        if (lane == kUsed)
            q.schedule(SimTime::ns(when), ev(id));
        else
            q.scheduleSorted(SimTime::ns(when), ev(id), lane);
    };

    for (int op = 0; op < 20000; ++op) {
        const size_t kind = rng.index(kUsed + 2);
        const double now = q.now().toNs();
        if (kind == kUsed) {
            add(kUsed, drawWhen(now));
        } else if (kind < kUsed) {
            laneLast[kind] = drawWhen(std::max(laneLast[kind], now));
            add(kind, laneLast[kind]);
        } else if (!ref.empty()) {
            ASSERT_TRUE(q.step(fired));
            const auto head = ref.begin();
            ASSERT_EQ(fired.ids.back(), head->second) << "op " << op;
            ASSERT_EQ(q.now().toNs(), head->first.first);
            ref.erase(head);
        }
        ASSERT_EQ(q.pending(), ref.size());
    }
    while (!ref.empty()) {
        ASSERT_TRUE(q.step(fired));
        ASSERT_EQ(fired.ids.back(), ref.begin()->second);
        ref.erase(ref.begin());
    }
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.counters().dispatches, nextId);
}

// --- runMerged: arrivals read from the caller's trace.

/**
 * runMerged over `arrivals`, recording in dispatch order each arrival's
 * index and each queued event's id.
 */
void
runMergedRecording(EventQueue &q, const std::vector<SimTime> &arrivals,
                   std::vector<uint64_t> &order)
{
    q.runMerged(
        arrivals.size(), [&](size_t i) { return arrivals[i]; },
        [&](size_t i) {
            EXPECT_EQ(q.now(), arrivals[i]);
            order.push_back(i);
        },
        [&](Event e) { order.push_back(e.b); });
}

TEST(EventQueue, MergedArrivalGoesBeforeQueuedEventsAtItsTime)
{
    EventQueue q;
    q.schedule(5_ms, ev(100));
    q.scheduleSorted(5_ms, ev(101), 0);
    q.schedule(4_ms, ev(102));
    std::vector<uint64_t> order;
    runMergedRecording(q, {5_ms}, order);
    EXPECT_EQ(order, (std::vector<uint64_t>{102, 0, 100, 101}));
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, MergedArrivalGoesBeforeAnEventScheduledAtItsTime)
{
    // The first arrival schedules events at now on the heap and on a
    // lane; the second arrival, at the same time, still goes first.
    EventQueue q;
    const std::vector<SimTime> arrivals{1_ms, 1_ms, 2_ms};
    std::vector<uint64_t> order;
    q.runMerged(
        arrivals.size(), [&](size_t i) { return arrivals[i]; },
        [&](size_t i) {
            order.push_back(i);
            if (i == 0) {
                q.schedule(q.now(), ev(100));
                q.scheduleSorted(q.now(), ev(101), 1);
            }
        },
        [&](Event e) { order.push_back(e.b); });
    EXPECT_EQ(order, (std::vector<uint64_t>{0, 1, 100, 101, 2}));
}

TEST(EventQueue, UnsortedMergedArrivalsGoInArrivalThenPositionOrder)
{
    EventQueue q;
    q.schedule(2_ms, ev(100));
    std::vector<uint64_t> order;
    runMergedRecording(q, {3_ms, 1_ms, 2_ms, 1_ms, 3_ms}, order);
    EXPECT_EQ(order, (std::vector<uint64_t>{1, 3, 2, 100, 0, 4}));
    EXPECT_EQ(q.now(), 3_ms);
}

TEST(EventQueue, EmptyMergedTraceDrainsTheQueue)
{
    EventQueue q;
    q.schedule(2_ms, ev(100));
    q.scheduleSorted(1_ms, ev(101));
    std::vector<uint64_t> order;
    runMergedRecording(q, {}, order);
    EXPECT_EQ(order, (std::vector<uint64_t>{101, 100}));
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.counters().dispatches, 2u);
}

TEST(EventQueue, MergedArrivalsCountAsDispatches)
{
    EventQueue q;
    q.schedule(1_ms, ev(100));
    q.scheduleSorted(3_ms, ev(101), 2);
    std::vector<uint64_t> order;
    runMergedRecording(q, {0_ms, 2_ms, 2_ms, 4_ms}, order);
    const EventQueue::Counters &c = q.counters();
    EXPECT_EQ(c.heapPushes, 1u);
    EXPECT_EQ(c.lanePushes[2], 1u);
    EXPECT_EQ(c.dispatches, 2u + 4u);
    EXPECT_EQ(order.size(), 6u);
}

TEST(EventQueue, MergedArrivalInThePastPanics)
{
    EventQueue q;
    q.schedule(5_ms, ev(0));
    q.run(ignore);
    std::vector<uint64_t> order;
    EXPECT_DEATH(runMergedRecording(q, {1_ms}, order), "past");
}

/** A dispatch as the handler saw it: (time ns, kind, operand). */
using Dispatch = std::tuple<double, uint32_t, uint64_t>;

enum : uint32_t {
    kArrival,
    kOnHeap,
    kAtNowOnLane0,
    kLaterOnLane1,
    kFirstTimer,
};

/**
 * A handler standing in for a simulation. It records every dispatch,
 * and an event less than two follow-ups deep (operand a) schedules
 * follow-ups picked by a hash of its operand: on the heap up to 0.75 ms
 * later (possibly at now), on lane 0 at now, on lane 1 0.5 ms later.
 */
struct FollowUps
{
    EventQueue &q;
    std::vector<Dispatch> seen;

    void
    operator()(Event e)
    {
        seen.emplace_back(q.now().toNs(), e.kind, e.b);
        if (e.a >= 2)
            return;
        const uint64_t h = (e.b + 1) * 0x9e3779b97f4a7c15ull >> 59;
        const uint32_t depth = e.a + 1;
        if (h & 1) {
            q.scheduleAfter(SimTime::us(250.0 * double((h >> 1) & 3)),
                            {kOnHeap, depth, e.b * 4 + 1});
        }
        if (h & 8)
            q.scheduleSorted(q.now(), {kAtNowOnLane0, depth, e.b * 4 + 2}, 0);
        if (h & 16) {
            q.scheduleSorted(q.now() + 500_us,
                             {kLaterOnLane1, depth, e.b * 4 + 3}, 1);
        }
    }
};

/** Events queued before the run, as a simulation's first timers are. */
void
scheduleFirstTimers(EventQueue &q)
{
    q.schedule(1_ms, {kFirstTimer, 1, 1'000'000});
    q.scheduleSorted(1_ms, {kFirstTimer, 1, 1'000'001}, 3);
}

/**
 * The merge against the scheme it replaces: every arrival scheduled on
 * a lane of its own, in (arrival, trace position) order, before any
 * other event. Over seeded traces, sorted and not, with times on a
 * 0.25 ms grid so that arrivals tie follow-ups of every kind, the
 * handler must see the same (time, kind, operand) sequence.
 */
TEST(EventQueue, MergedArrivalsKeepTheOrderOfQueuedArrivals)
{
    for (uint64_t seed = 1; seed <= 6; ++seed) {
        Rng rng(seed);
        std::vector<SimTime> arrivals(300);
        for (SimTime &t : arrivals)
            t = SimTime::us(250.0 * double(rng.index(400)));
        if (seed % 2 == 0)
            std::sort(arrivals.begin(), arrivals.end());

        EventQueue queued;
        FollowUps viaLane{queued, {}};
        std::vector<size_t> order(arrivals.size());
        std::iota(order.begin(), order.end(), size_t(0));
        std::stable_sort(order.begin(), order.end(),
                         [&](size_t a, size_t b) {
                             return arrivals[a] < arrivals[b];
                         });
        for (size_t i : order)
            queued.scheduleSorted(arrivals[i], {kArrival, 0, i}, 2);
        scheduleFirstTimers(queued);
        queued.run(viaLane);

        EventQueue merged;
        FollowUps viaMerge{merged, {}};
        scheduleFirstTimers(merged);
        merged.runMerged(
            arrivals.size(), [&](size_t i) { return arrivals[i]; },
            [&](size_t i) { viaMerge({kArrival, 0, i}); }, viaMerge);

        ASSERT_GT(viaLane.seen.size(), 2 * arrivals.size()) << seed;
        EXPECT_TRUE(viaLane.seen == viaMerge.seen) << "seed " << seed;
        EXPECT_EQ(merged.counters().dispatches, viaMerge.seen.size());
        EXPECT_EQ(queued.counters().dispatches, viaLane.seen.size());
    }
}

} // namespace
} // namespace cxlfork::sim
