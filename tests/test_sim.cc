/**
 * @file
 * Unit tests of the simulation kernel: event queue ordering,
 * deterministic RNG, and statistics collectors.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <vector>

#include "sim/event.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"

namespace msgsim
{
namespace
{

TEST(EventQueue, OrdersByTimeThenFifo)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(10, [&] { order.push_back(1); });
    q.schedule(5, [&] { order.push_back(2); });
    q.schedule(10, [&] { order.push_back(3); });
    q.schedule(1, [&] { order.push_back(4); });

    while (!q.empty()) {
        Tick t;
        q.pop(t)();
    }
    EXPECT_EQ(order, (std::vector<int>{4, 2, 1, 3}));
}

TEST(EventQueue, MatchesReferenceOrder)
{
    // Typed records and closures, many same-tick ties, pops
    // interleaved with pushes, and closures that schedule from inside
    // a running closure (reusing the slab entry the running one just
    // left): the pop order must be a stable sort on (tick, insertion).
    struct Scheduled
    {
        Tick when;
        std::uint32_t id;
    };
    EventQueue q;
    Rng rng(2024);
    std::vector<Scheduled> scheduled; // in insertion order
    std::vector<std::uint32_t> popped;
    std::vector<Tick> poppedAt;
    const EventQueue::Handler record = [](void *log, std::uint32_t id) {
        static_cast<std::vector<std::uint32_t> *>(log)->push_back(id);
    };
    std::function<void(Tick)> push = [&](Tick when) {
        const auto id = static_cast<std::uint32_t>(scheduled.size());
        scheduled.push_back({when, id});
        if (rng.chance(0.5)) {
            q.schedule(when, record, &popped, id);
            return;
        }
        const bool nests = rng.chance(0.3);
        if (rng.chance(0.5)) {
            q.schedule(when, [&, id, when, nests] {
                popped.push_back(id);
                if (nests)
                    push(when + rng.below(3));
            });
        } else {
            // Too big for std::function's in-place buffer.
            const std::array<Tick, 6> pad{when, when, when, when, when,
                                          when};
            q.schedule(when, [&, id, pad, nests] {
                popped.push_back(id);
                if (nests)
                    push(pad[5] + rng.below(3));
            });
        }
    };

    Tick now = 0;
    const auto popOne = [&] {
        Tick t = 0;
        const EventQueue::Event ev = q.pop(t);
        ASSERT_GE(t, now);
        now = t;
        poppedAt.push_back(t);
        ev();
    };
    for (int round = 0; round < 400; ++round) {
        const auto batch = rng.below(6);
        for (std::uint64_t i = 0; i < batch; ++i)
            push(now + rng.below(5));
        const auto pops = rng.below(q.size() + 1);
        for (std::uint64_t i = 0; i < pops; ++i)
            popOne();
    }
    while (!q.empty())
        popOne();

    std::vector<Scheduled> reference = scheduled;
    std::stable_sort(reference.begin(), reference.end(),
                     [](const Scheduled &a, const Scheduled &b) {
                         return a.when < b.when;
                     });
    ASSERT_EQ(popped.size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
        EXPECT_EQ(popped[i], reference[i].id) << "pop " << i;
        EXPECT_EQ(poppedAt[i], reference[i].when) << "pop " << i;
    }
    EXPECT_EQ(q.scheduled(), scheduled.size());
    EXPECT_GT(scheduled.size(), 1000u);
}

TEST(Simulator, ClockAdvancesToEventTime)
{
    Simulator sim;
    Tick seen = 0;
    sim.schedule(42, [&] { seen = sim.now(); });
    sim.run();
    EXPECT_EQ(seen, 42u);
    EXPECT_EQ(sim.now(), 42u);
    EXPECT_TRUE(sim.idle());
}

TEST(Simulator, NestedScheduling)
{
    Simulator sim;
    int fired = 0;
    sim.schedule(1, [&] {
        ++fired;
        sim.schedule(1, [&] {
            ++fired;
            sim.schedule(1, [&] { ++fired; });
        });
    });
    const auto executed = sim.run();
    EXPECT_EQ(executed, 3u);
    EXPECT_EQ(fired, 3);
    EXPECT_EQ(sim.now(), 3u);
}

TEST(Simulator, RunUntilPredicate)
{
    Simulator sim;
    int count = 0;
    for (int i = 0; i < 10; ++i)
        sim.schedule(static_cast<Tick>(i + 1), [&] { ++count; });
    const bool hit = sim.runUntil([&] { return count == 4; });
    EXPECT_TRUE(hit);
    EXPECT_EQ(count, 4);
    // Remaining events still pending.
    EXPECT_FALSE(sim.idle());
}

TEST(Simulator, MaxEventsBound)
{
    Simulator sim;
    // A self-perpetuating event chain: the bound must stop it.
    std::function<void()> loop = [&] { sim.schedule(1, loop); };
    sim.schedule(1, loop);
    const auto executed = sim.run(1000);
    EXPECT_EQ(executed, 1000u);
}

TEST(Rng, DeterministicAcrossReseed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
    a.reseed(123);
    Rng c(123);
    EXPECT_EQ(a.next(), c.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += (a.next() == b.next());
    EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i) {
        const double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, BelowRespectsBound)
{
    Rng r(9);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(r.below(17), 17u);
    EXPECT_EQ(r.below(0), 0u);
}

TEST(Rng, ChanceRoughlyCalibrated)
{
    Rng r(11);
    int hits = 0;
    const int trials = 20000;
    for (int i = 0; i < trials; ++i)
        hits += r.chance(0.25);
    EXPECT_NEAR(static_cast<double>(hits) / trials, 0.25, 0.02);
}

TEST(Rng, ShufflePreservesMultiset)
{
    Rng r(13);
    std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
    auto sorted = v;
    r.shuffle(v);
    auto resorted = v;
    std::sort(resorted.begin(), resorted.end());
    EXPECT_EQ(resorted, sorted);
}

TEST(RunningStat, MeanVarianceExtrema)
{
    RunningStat s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.sample(x);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_NEAR(s.stddev(), 2.138, 0.001);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(Histogram, BinningAndSaturation)
{
    Histogram h(0.0, 10.0, 5);
    h.sample(0.5);   // bin 0
    h.sample(3.0);   // bin 1
    h.sample(9.99);  // bin 4
    h.sample(-5.0);  // clamps to bin 0
    h.sample(123.0); // clamps to bin 4
    EXPECT_EQ(h.bins()[0], 2u);
    EXPECT_EQ(h.bins()[1], 1u);
    EXPECT_EQ(h.bins()[4], 2u);
    EXPECT_EQ(h.stat().count(), 5u);
    EXPECT_DOUBLE_EQ(h.binLow(1), 2.0);
}

} // namespace
} // namespace msgsim
