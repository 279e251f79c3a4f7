/**
 * @file
 * Unit tests of the simulation kernel: event queue ordering,
 * deterministic RNG, and statistics collectors.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sim/event.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"

namespace msgsim
{
namespace
{

/** Typed-event handler: append the event's argument to a log. */
void
logArg(void *log, std::uint32_t arg)
{
    static_cast<std::vector<std::uint32_t> *>(log)->push_back(arg);
}

TEST(EventQueue, OrdersByTimeThenFifo)
{
    EventQueue q;
    std::vector<std::uint32_t> order;
    q.schedule(10, &logArg, &order, 1);
    q.schedule(5, &logArg, &order, 2);
    q.schedule(10, &logArg, &order, 3);
    q.schedule(1, &logArg, &order, 4);

    while (!q.empty()) {
        Tick t;
        q.pop(t)();
    }
    EXPECT_EQ(order, (std::vector<std::uint32_t>{4, 2, 1, 3}));
}

/**
 * MatchesReferenceOrder's workload: typed records, some of which
 * schedule another record from inside their own run.
 */
struct ReferenceRun
{
    struct Scheduled
    {
        Tick when;
        std::uint32_t id;
    };

    EventQueue q;
    Rng rng{2024};
    std::vector<Scheduled> scheduled; // in insertion order
    std::vector<std::uint32_t> popped;

    void
    push(Tick when)
    {
        const auto id = static_cast<std::uint32_t>(scheduled.size());
        scheduled.push_back({when, id});
        const bool nests = !rng.chance(0.5) && rng.chance(0.3);
        q.schedule(when, nests ? &nest : &logArg,
                   nests ? static_cast<void *>(this) : &popped, id);
    }

    /** A delay: mostly a few ticks, one in five up to 200, which
     *  reaches past the queue's 64-tick window. */
    Tick
    delay()
    {
        return rng.chance(0.2) ? rng.below(200) : rng.below(5);
    }

    /** Log @p id, then schedule a record a delay() after its own. */
    static void
    nest(void *run, std::uint32_t id)
    {
        ReferenceRun &r = *static_cast<ReferenceRun *>(run);
        r.popped.push_back(id);
        r.push(r.scheduled[id].when + r.delay());
    }
};

TEST(EventQueue, MatchesReferenceOrder)
{
    // Many same-tick ties, pops interleaved with pushes, records that
    // schedule from inside a running record, delays past the window,
    // and now and then a drained queue whose next record lies
    // thousands of ticks ahead: the pop order must be a stable sort
    // on (tick, insertion).
    ReferenceRun run;
    EventQueue &q = run.q;
    std::vector<Tick> poppedAt;
    Tick now = 0;
    const auto popOne = [&] {
        const Tick next = q.nextTick();
        Tick t = 0;
        const EventQueue::Event ev = q.pop(t);
        ASSERT_EQ(t, next);
        ASSERT_GE(t, now);
        now = t;
        poppedAt.push_back(t);
        ev();
    };
    int jumps = 0;
    for (int round = 0; round < 800; ++round) {
        if (run.rng.chance(0.03)) {
            while (!q.empty())
                popOne();
            run.push(now + 1000 + run.rng.below(5000));
            ++jumps;
        }
        const auto batch = run.rng.below(6);
        for (std::uint64_t i = 0; i < batch; ++i)
            run.push(now + run.delay());
        const auto pops = run.rng.below(q.size() + 1);
        for (std::uint64_t i = 0; i < pops; ++i)
            popOne();
    }
    while (!q.empty())
        popOne();
    EXPECT_GT(jumps, 10);

    std::vector<ReferenceRun::Scheduled> reference = run.scheduled;
    std::stable_sort(reference.begin(), reference.end(),
                     [](const ReferenceRun::Scheduled &a,
                        const ReferenceRun::Scheduled &b) {
                         return a.when < b.when;
                     });
    ASSERT_EQ(run.popped.size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
        EXPECT_EQ(run.popped[i], reference[i].id) << "pop " << i;
        EXPECT_EQ(poppedAt[i], reference[i].when) << "pop " << i;
    }
    EXPECT_EQ(q.scheduled(), run.scheduled.size());
    EXPECT_GT(run.scheduled.size(), 1000u);
}

TEST(EventQueue, FarEventPopsBeforeALaterEventOfItsTick)
{
    // Tick 200 lies beyond the window when record 1 is scheduled.
    // Popping record 2 at tick 150 brings 200 into the window, and
    // record 3 is scheduled for 200 only then: record 1 must still
    // pop first, as it was scheduled first.
    EventQueue q;
    std::vector<std::uint32_t> order;
    q.schedule(200, &logArg, &order, 1);
    q.schedule(150, &logArg, &order, 2);
    Tick t = 0;
    q.pop(t)();
    EXPECT_EQ(t, 150u);
    q.schedule(200, &logArg, &order, 3);
    EXPECT_EQ(q.nextTick(), 200u);
    while (!q.empty())
        q.pop(t)();
    EXPECT_EQ(t, 200u);
    EXPECT_EQ(order, (std::vector<std::uint32_t>{2, 1, 3}));
}

/** A typed-event target on a simulator: counts and timestamps runs. */
struct Ticker
{
    explicit Ticker(Simulator &s) : sim(s) {}

    Simulator &sim;
    int fired = 0;
    std::vector<Tick> seen;

    void
    mark(std::uint32_t)
    {
        ++fired;
        seen.push_back(sim.now());
    }

    /** Run, then schedule @p more further runs one tick apart. */
    void
    chain(std::uint32_t more)
    {
        mark(0);
        if (more > 0)
            sim.scheduleAt<&Ticker::chain>(sim.now() + 1, this, more - 1);
    }

    /** Reschedule itself one tick on, forever. */
    void
    forever(std::uint32_t)
    {
        sim.scheduleAt<&Ticker::forever>(sim.now() + 1, this, 0);
    }
};

TEST(Simulator, ClockAdvancesToEventTime)
{
    Simulator sim;
    Ticker t(sim);
    sim.scheduleAt<&Ticker::mark>(42, &t, 0);
    sim.run();
    EXPECT_EQ(t.seen, (std::vector<Tick>{42}));
    EXPECT_EQ(sim.now(), 42u);
    EXPECT_TRUE(sim.idle());
}

TEST(Simulator, NestedScheduling)
{
    Simulator sim;
    Ticker t(sim);
    sim.scheduleAt<&Ticker::chain>(1, &t, 2);
    const auto executed = sim.run();
    EXPECT_EQ(executed, 3u);
    EXPECT_EQ(t.fired, 3);
    EXPECT_EQ(sim.now(), 3u);
}

TEST(Simulator, AdvanceToFarPastTheLastPop)
{
    // The clock jumps thousands of ticks past the last popped event,
    // so everything scheduled next lies beyond the queue's window.
    Simulator sim;
    Ticker t(sim);
    sim.scheduleAt<&Ticker::mark>(5, &t, 0);
    sim.run();
    sim.advanceTo(100000);
    sim.scheduleAt<&Ticker::chain>(100003, &t, 2);
    sim.scheduleAt<&Ticker::mark>(100000, &t, 0);
    sim.scheduleAt<&Ticker::mark>(100003, &t, 0);
    EXPECT_EQ(sim.run(), 5u);
    EXPECT_EQ(t.seen, (std::vector<Tick>{5, 100000, 100003, 100003,
                                         100004, 100005}));
    EXPECT_EQ(sim.now(), 100005u);
}

TEST(Simulator, RunUntilPredicate)
{
    Simulator sim;
    Ticker t(sim);
    for (int i = 0; i < 10; ++i)
        sim.scheduleAt<&Ticker::mark>(static_cast<Tick>(i + 1), &t, 0);
    const bool hit = sim.runUntil([&] { return t.fired == 4; });
    EXPECT_TRUE(hit);
    EXPECT_EQ(t.fired, 4);
    // Remaining events still pending.
    EXPECT_FALSE(sim.idle());
}

TEST(Simulator, MaxEventsBound)
{
    Simulator sim;
    // A self-perpetuating event chain: the bound must stop it.
    Ticker t(sim);
    sim.scheduleAt<&Ticker::forever>(1, &t, 0);
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
