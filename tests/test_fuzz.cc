/**
 * @file
 * Randomized property tests: seeded sweeps over hostile network
 * configurations, asserting the invariants that must hold for every
 * seed — byte-exact in-order delivery, conservation of packets, and
 * bit-for-bit determinism of repeated runs.
 */

#include <gtest/gtest.h>

#include "net/tracer.hh"
#include "protocols/finite_xfer.hh"
#include "protocols/stream.hh"
#include "sim/rng.hh"

namespace msgsim
{
namespace
{

class SeedSweep : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(SeedSweep, StreamSurvivesRandomHostility)
{
    const std::uint64_t seed = GetParam();
    Rng knobs(seed);

    StackConfig cfg;
    cfg.nodes = 2;
    cfg.maxJitter = knobs.below(60);
    cfg.faults.dropRate = knobs.uniform() * 0.12;
    cfg.faults.corruptRate = knobs.uniform() * 0.08;
    cfg.faults.seed = knobs.next();
    cfg.seed = knobs.next();
    Stack stack(cfg);

    StreamProtocol proto(stack);
    StreamParams p;
    p.words = static_cast<std::uint32_t>(4 * (8 + knobs.below(120)));
    p.eventMode = true;
    p.groupAck = static_cast<int>(1 + knobs.below(8));
    p.window = static_cast<std::uint32_t>(knobs.below(3) == 0
                                              ? 0
                                              : 4 + knobs.below(12));
    p.retxTimeout = 600 + knobs.below(1200);
    p.maxRetx = 4096;
    p.fillSeed = knobs.next();

    const auto res = proto.run(p);
    EXPECT_TRUE(res.dataOk) << "seed=" << seed
                            << " words=" << p.words
                            << " G=" << p.groupAck
                            << " W=" << p.window;
}

TEST_P(SeedSweep, FiniteSurvivesRandomDropsViaRestart)
{
    const std::uint64_t seed = GetParam();
    Rng knobs(seed ^ 0xabcdefULL);

    StackConfig cfg;
    cfg.nodes = 2;
    cfg.faults.dropRate = knobs.uniform() * 0.03;
    cfg.faults.seed = knobs.next();
    Stack stack(cfg);

    FiniteXfer proto(stack);
    FiniteXferParams p;
    p.words = static_cast<std::uint32_t>(4 * (4 + knobs.below(40)));
    p.eventMode = true;
    p.ackTimeout = 3000;
    p.maxRestarts = 64;
    p.fillSeed = knobs.next();

    const auto res = proto.run(p);
    EXPECT_TRUE(res.dataOk) << "seed=" << seed << " words=" << p.words;
}

TEST_P(SeedSweep, PacketConservationAlwaysHolds)
{
    const std::uint64_t seed = GetParam();
    Rng knobs(seed ^ 0x777ULL);

    StackConfig cfg;
    cfg.nodes = 2;
    cfg.maxJitter = knobs.below(40);
    cfg.faults.dropRate = knobs.uniform() * 0.1;
    cfg.faults.seed = knobs.next();
    Stack stack(cfg);
    PacketTracer tracer;
    tracer.attach();

    StreamProtocol proto(stack);
    StreamParams p;
    p.words = 256;
    p.eventMode = true;
    p.retxTimeout = 700;
    p.maxRetx = 2048;
    const auto res = proto.run(p);
    ASSERT_TRUE(res.dataOk) << seed;
    EXPECT_EQ(tracer.observed(TraceEvent::Inject),
              tracer.observed(TraceEvent::Deliver) +
                  tracer.observed(TraceEvent::Drop))
        << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep,
                         ::testing::Values(1ull, 2ull, 3ull, 5ull,
                                           8ull, 13ull, 21ull, 34ull,
                                           55ull, 89ull));

TEST(Determinism, IdenticalSeedsIdenticalRuns)
{
    auto run = [] {
        StackConfig cfg;
        cfg.nodes = 2;
        cfg.maxJitter = 30;
        cfg.faults.dropRate = 0.06;
        cfg.faults.seed = 99;
        cfg.seed = 7;
        Stack stack(cfg);
        StreamProtocol proto(stack);
        StreamParams p;
        p.words = 256;
        p.eventMode = true;
        p.retxTimeout = 700;
        p.maxRetx = 1024;
        return proto.run(p);
    };
    const auto a = run();
    const auto b = run();
    ASSERT_TRUE(a.dataOk);
    EXPECT_TRUE(a.counts.src == b.counts.src);
    EXPECT_TRUE(a.counts.dst == b.counts.dst);
    EXPECT_EQ(a.elapsed, b.elapsed);
    EXPECT_EQ(a.retransmissions, b.retransmissions);
    EXPECT_EQ(a.oooArrivals, b.oooArrivals);
}

TEST(Determinism, DifferentSeedsDiverge)
{
    auto run = [](std::uint64_t seed) {
        StackConfig cfg;
        cfg.nodes = 2;
        cfg.maxJitter = 50;
        cfg.seed = seed;
        Stack stack(cfg);
        StreamProtocol proto(stack);
        StreamParams p;
        p.words = 512;
        p.eventMode = true;
        return proto.run(p);
    };
    const auto a = run(1);
    const auto b = run(2);
    ASSERT_TRUE(a.dataOk);
    ASSERT_TRUE(b.dataOk);
    // Different jitter draws: the reordering profile should differ.
    EXPECT_NE(a.oooArrivals, b.oooArrivals);
}

TEST(Determinism, HlRunsAreDeterministicUnderFaults)
{
    auto run = [] {
        StackConfig cfg = stackConfigFor(HostLayer::Hl);
        cfg.faults.dropRate = 0.2;
        cfg.faults.corruptRate = 0.1;
        cfg.faults.seed = 5;
        Stack stack(cfg);
        StreamParams p;
        p.words = 256;
        return StreamProtocol(stack).run(p);
    };
    const auto a = run();
    const auto b = run();
    ASSERT_TRUE(a.dataOk);
    EXPECT_TRUE(a.counts.src == b.counts.src);
    EXPECT_EQ(a.elapsed, b.elapsed);
}

} // namespace
} // namespace msgsim
