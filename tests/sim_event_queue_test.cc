#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "sim/rng.hh"

#include "sim/event_queue.hh"

namespace cxlfork::sim {
namespace {

using namespace time_literals;

TEST(EventQueue, DispatchesInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(3_ms, [&] { order.push_back(3); });
    q.schedule(1_ms, [&] { order.push_back(1); });
    q.schedule(2_ms, [&] { order.push_back(2); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.now(), 3_ms);
}

TEST(EventQueue, TieBreaksByInsertionOrder)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        q.schedule(1_ms, [&order, i] { order.push_back(i); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, EventsMayScheduleEvents)
{
    EventQueue q;
    int fired = 0;
    q.schedule(1_ms, [&] {
        ++fired;
        q.scheduleAfter(1_ms, [&] { ++fired; });
    });
    q.run();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(q.now(), 2_ms);
}

TEST(EventQueue, HorizonStopsDispatch)
{
    EventQueue q;
    int fired = 0;
    q.schedule(1_ms, [&] { ++fired; });
    q.schedule(10_ms, [&] { ++fired; });
    q.run(5_ms);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(q.pending(), 1u);
}

TEST(EventQueue, StepReturnsFalseWhenEmpty)
{
    EventQueue q;
    EXPECT_FALSE(q.step());
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, SchedulingInThePastPanics)
{
    EventQueue q;
    q.schedule(5_ms, [] {});
    q.run();
    EXPECT_DEATH(q.schedule(1_ms, [] {}), "past");
}

TEST(EventQueue, SortedLaneTiesBreakByInsertionOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(1_ms, [&] { order.push_back(0); });
    q.scheduleSorted(1_ms, [&] { order.push_back(1); });
    q.schedule(1_ms, [&] { order.push_back(2); });
    q.scheduleSorted(1_ms, [&] { order.push_back(3); });
    q.scheduleSorted(2_ms, [&] { order.push_back(5); });
    q.schedule(2_ms, [&] { order.push_back(6); });
    q.schedule(1_ms, [&] { order.push_back(4); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6}));
}

TEST(EventQueue, SortedLaneOutOfOrderPanics)
{
    EventQueue q;
    q.scheduleSorted(5_ms, [] {});
    EXPECT_DEATH(q.scheduleSorted(4_ms, [] {}), "out of order");
}

TEST(EventQueue, SortedLaneInThePastPanics)
{
    EventQueue q;
    q.schedule(5_ms, [] {});
    q.run();
    EXPECT_DEATH(q.scheduleSorted(1_ms, [] {}), "past");
}

TEST(EventQueue, HorizonStopsBothLanes)
{
    EventQueue q;
    std::vector<int> order;
    q.scheduleSorted(1_ms, [&] { order.push_back(1); });
    q.schedule(2_ms, [&] { order.push_back(2); });
    q.scheduleSorted(6_ms, [&] { order.push_back(6); });
    q.schedule(7_ms, [&] { order.push_back(7); });
    q.run(5_ms);
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_EQ(q.now(), 2_ms);
    EXPECT_EQ(q.pending(), 2u);
    q.run(6_ms);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 6}));
    EXPECT_EQ(q.pending(), 1u);
}

TEST(EventQueue, PendingAndEmptyCountBothLanes)
{
    EventQueue q;
    q.scheduleSorted(1_ms, [] {});
    EXPECT_FALSE(q.empty());
    EXPECT_EQ(q.pending(), 1u);
    q.schedule(2_ms, [] {});
    EXPECT_EQ(q.pending(), 2u);
    EXPECT_TRUE(q.step());
    EXPECT_EQ(q.pending(), 1u);
    EXPECT_FALSE(q.empty());
    EXPECT_TRUE(q.step());
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.pending(), 0u);
    EXPECT_FALSE(q.step());
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
    // Every fourth event schedules a follow-up on the heap when it runs.
    std::function<void(bool, double)> add = [&](bool sorted, double when) {
        const uint64_t id = nextId++;
        ref.emplace(RefKey{when, seq++}, id);
        auto cb = [&, id] {
            fired.push_back(id);
            if (id % 4 == 0)
                add(false, drawWhen(q.now().toNs()));
        };
        if (sorted)
            q.scheduleSorted(SimTime::ns(when), cb);
        else
            q.schedule(SimTime::ns(when), cb);
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
            ASSERT_TRUE(q.step());
            ++dispatched;
            ASSERT_EQ(fired.size(), dispatched);
            const auto head = ref.begin();
            ASSERT_EQ(fired.back(), head->second) << "op " << op;
            ASSERT_EQ(q.now().toNs(), head->first.first);
            ref.erase(head);
        } else {
            ASSERT_FALSE(q.step());
        }
        ASSERT_EQ(q.pending(), ref.size());
    }
    while (!ref.empty()) {
        ASSERT_TRUE(q.step());
        ASSERT_EQ(fired.back(), ref.begin()->second);
        ref.erase(ref.begin());
    }
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, LanesAreSortedIndependently)
{
    EventQueue q;
    std::vector<int> order;
    q.scheduleSorted(5_ms, [&] { order.push_back(3); }, 1);
    q.scheduleSorted(1_ms, [&] { order.push_back(0); }, 2);
    q.scheduleSorted(5_ms, [&] { order.push_back(4); }, 2);
    q.scheduleSorted(2_ms, [&] { order.push_back(1); }, 0);
    q.schedule(3_ms, [&] { order.push_back(2); });
    EXPECT_DEATH(q.scheduleSorted(4_ms, [] {}, 1), "out of order on lane 1");
    q.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, ReservedLaneKeepsOrderAcrossItsWrap)
{
    EventQueue q;
    std::vector<int> order;
    auto add = [&](int i) {
        q.scheduleSorted(SimTime::ms(i), [&order, i] { order.push_back(i); },
                         2);
    };
    q.reserveSorted(2, 20);
    for (int i = 0; i < 12; ++i)
        add(i);
    q.run(5_ms); // the ring's head moves to slot 6
    for (int i = 12; i < 40; ++i)
        add(i);
    q.run();
    ASSERT_EQ(order.size(), 40u);
    for (int i = 0; i < 40; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, LaneOutOfRangePanics)
{
    EventQueue q;
    EXPECT_DEATH(q.scheduleSorted(1_ms, [] {}, EventQueue::kLanes), "lane");
}

TEST(EventQueue, CountersCountPushesPerLaneAndDispatches)
{
    EventQueue q;
    q.schedule(1_ms, [&] { q.scheduleAfter(1_ms, [] {}); });
    q.scheduleSorted(1_ms, [] {}, 0);
    q.scheduleSorted(2_ms, [] {}, 3);
    q.scheduleSorted(3_ms, [] {}, 3);
    EXPECT_EQ(q.counters().heapPushes, 1u);
    EXPECT_EQ(q.counters().dispatches, 0u);
    q.run();
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
    std::vector<uint64_t> fired;

    auto drawWhen = [&](double floor) {
        return floor + double(rng.index(8)) * 250.0;
    };
    auto add = [&](size_t lane, double when) {
        const uint64_t id = nextId++;
        ref.emplace(RefKey{when, seq++}, id);
        auto cb = [&fired, id] { fired.push_back(id); };
        if (lane == kUsed)
            q.schedule(SimTime::ns(when), cb);
        else
            q.scheduleSorted(SimTime::ns(when), cb, lane);
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
            ASSERT_TRUE(q.step());
            const auto head = ref.begin();
            ASSERT_EQ(fired.back(), head->second) << "op " << op;
            ASSERT_EQ(q.now().toNs(), head->first.first);
            ref.erase(head);
        }
        ASSERT_EQ(q.pending(), ref.size());
    }
    while (!ref.empty()) {
        ASSERT_TRUE(q.step());
        ASSERT_EQ(fired.back(), ref.begin()->second);
        ref.erase(ref.begin());
    }
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.counters().dispatches, nextId);
}

} // namespace
} // namespace cxlfork::sim
