/**
 * @file
 * Tests of the link-bandwidth (serialization) model and the
 * kernel-mediation knob.
 */

#include <gtest/gtest.h>

#include "cm5net/cm5_network.hh"
#include "crnet/cr_network.hh"
#include "protocols/single_packet.hh"
#include "protocols/stream.hh"

namespace msgsim
{
namespace
{

TEST(Bandwidth, InjectGapSpacesDepartures)
{
    Simulator sim;
    Cm5Network::Config cfg;
    cfg.nodes = 4;
    cfg.injectGap = 7;
    Cm5Network net(sim, cfg);

    std::vector<Tick> arrivals;
    net.attach(1, [&](Packet &) {
        arrivals.push_back(sim.now());
        return true;
    });
    for (Word i = 0; i < 5; ++i)
        net.inject(Packet(0, 1, HwTag::UserAm, i, {1, 2, 3, 4}));
    sim.run();
    ASSERT_EQ(arrivals.size(), 5u);
    for (std::size_t i = 1; i < arrivals.size(); ++i)
        EXPECT_GE(arrivals[i] - arrivals[i - 1], 7u);
}

TEST(Bandwidth, DeliverGapSerializesFanIn)
{
    // Two senders converge on one destination: arrivals must still be
    // spaced by the delivery gap.
    Simulator sim;
    Cm5Network::Config cfg;
    cfg.nodes = 4;
    cfg.deliverGap = 9;
    Cm5Network net(sim, cfg);

    std::vector<Tick> arrivals;
    net.attach(2, [&](Packet &) {
        arrivals.push_back(sim.now());
        return true;
    });
    for (Word i = 0; i < 4; ++i) {
        net.inject(Packet(0, 2, HwTag::UserAm, i, {1, 2, 3, 4}));
        net.inject(Packet(1, 2, HwTag::UserAm, i, {5, 6, 7, 8}));
    }
    sim.run();
    ASSERT_EQ(arrivals.size(), 8u);
    for (std::size_t i = 1; i < arrivals.size(); ++i)
        EXPECT_GE(arrivals[i] - arrivals[i - 1], 9u);
}

TEST(Bandwidth, CrGapsPreserveOrder)
{
    Simulator sim;
    CrNetwork::Config cfg;
    cfg.nodes = 4;
    cfg.injectGap = 5;
    cfg.deliverGap = 5;
    cfg.faults.dropRate = 0.2;
    cfg.faults.seed = 8;
    CrNetwork net(sim, cfg);

    std::vector<Word> got;
    net.attach(1, [&](Packet &p) {
        got.push_back(p.header);
        return true;
    });
    for (Word i = 0; i < 50; ++i)
        net.inject(Packet(0, 1, HwTag::StreamData, i, {i, 0, 0, 0}));
    sim.run();
    ASSERT_EQ(got.size(), 50u);
    for (Word i = 0; i < 50; ++i)
        EXPECT_EQ(got[i], i);
}

TEST(Bandwidth, StreamElapsedScalesWithGap)
{
    auto elapsed = [](Tick gap) {
        StackConfig cfg;
        cfg.nodes = 2;
        cfg.injectGap = gap;
        cfg.deliverGap = gap;
        Stack stack(cfg);
        StreamProtocol proto(stack);
        StreamParams p;
        p.words = 256;
        p.eventMode = true;
        const auto res = proto.run(p);
        EXPECT_TRUE(res.dataOk);
        return res.elapsed;
    };
    const Tick fast = elapsed(0);
    const Tick slow = elapsed(10);
    EXPECT_GT(slow, fast + 300);
}

TEST(Bandwidth, GapsDoNotChangeInstructionCounts)
{
    // Bandwidth is a hardware property; the software bill of the
    // calibration path must not move.
    auto counts = [](Tick gap) {
        StackConfig cfg;
        cfg.nodes = 2;
        cfg.order = swapAdjacentFactory();
        cfg.injectGap = gap;
        cfg.deliverGap = gap;
        Stack stack(cfg);
        StreamProtocol proto(stack);
        StreamParams p;
        p.words = 64;
        return proto.run(p).counts.paperTotal();
    };
    EXPECT_EQ(counts(0), counts(13));
}

TEST(Protection, KernelMediationAddsPerCallCost)
{
    Stack user(StackConfig{});
    const auto ru = runSinglePacket(user, {});

    StackConfig kc;
    kc.kernelMediated = true;
    Stack kernel(kc);
    const auto rk = runSinglePacket(kernel, {});

    ASSERT_TRUE(ru.dataOk);
    ASSERT_TRUE(rk.dataOk);
    // One crossing for the send, one for the poll: +120 each.
    EXPECT_EQ(rk.counts.src.paperTotal(),
              ru.counts.src.paperTotal() + 120);
    EXPECT_EQ(rk.counts.dst.paperTotal(),
              ru.counts.dst.paperTotal() + 120);
}

TEST(Protection, PerPacketCallsAmplifyTheDamage)
{
    StackConfig kc;
    kc.kernelMediated = true;
    Stack kernel(kc);
    StreamProtocol proto(kernel);
    StreamParams p;
    p.words = 64; // 16 packets = 16 kernel-mediated sends
    const auto res = proto.run(p);
    ASSERT_TRUE(res.dataOk);
    // At least 16 send crossings on the source side alone.
    EXPECT_GE(res.counts.src.paperTotal(), 16u * 120u);
}

} // namespace
} // namespace msgsim
