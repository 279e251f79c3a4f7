/**
 * @file
 * API-surface tests: the umbrella header is self-contained, the
 * reply-AM convenience works, and the high-level layer's unit costs
 * hold in isolation.
 */

#include <gtest/gtest.h>

#include "msgsim/msgsim.hh"

namespace msgsim
{
namespace
{

TEST(Api, UmbrellaHeaderBuildsAWholeStack)
{
    // Everything needed to assemble and exercise the system is
    // reachable through the one include.
    StackConfig cfg;
    cfg.nodes = 2;
    Stack stack(cfg);
    const auto res = runSinglePacket(stack, {});
    EXPECT_TRUE(res.dataOk);
    EXPECT_EQ(res.counts.paperTotal(), 47u);
}

TEST(Api, Am4ReplyCostsTheSameButRidesVnet1)
{
    Stack stack(StackConfig{});
    PacketTracer tracer;
    tracer.attach();
    int got = 0;
    const int h = stack.cmam(1).registerHandler(
        [&](NodeId, const std::vector<Word> &) { ++got; });

    const InstrCounter before = stack.node(0).acct().counter();
    {
        FeatureScope fs(stack.node(0).acct(), Feature::BaseCost);
        stack.cmam(0).am4Reply(1, h, {5});
    }
    EXPECT_EQ(stack.node(0).acct().counter().diff(before).paperTotal(),
              20u);
    stack.settle();
    stack.cmam(1).poll();
    EXPECT_EQ(got, 1);
    EXPECT_EQ(stack.node(1).ni().hwRecvDepth(1), 0u); // consumed
    // The trace confirms the reply network carried it.
    const auto recs = tracer.select([](const TraceRecord &r) {
        return r.event == TraceEvent::Inject;
    });
    ASSERT_EQ(recs.size(), 1u);
}

TEST(Api, HlLayerUnitCosts)
{
    // HL finite at one packet: src = 3 + 22 = 25; dst = poll entry 13
    // + per-packet 11 reg + 2 mem + 4 dev + completion 5 + buffer
    // bind 13.
    HlStackConfig cfg;
    HlStack stack(cfg);
    HlXferParams p;
    p.words = 4;
    const auto res = runHlFinite(stack, p);
    ASSERT_TRUE(res.dataOk);
    EXPECT_EQ(res.counts.src.paperTotal(), 25u);
    EXPECT_EQ(res.counts.dst.featureTotal(Feature::BaseCost),
              13u + 17u + 5u);
    EXPECT_EQ(res.counts.dst.featureTotal(Feature::BufferMgmt), 13u);
}

TEST(Api, HlStreamUnitCosts)
{
    HlStackConfig cfg;
    HlStack stack(cfg);
    HlStreamParams p;
    p.words = 4;
    const auto res = runHlStream(stack, p);
    ASSERT_TRUE(res.dataOk);
    EXPECT_EQ(res.counts.src.paperTotal(), 20u);
    EXPECT_EQ(res.counts.dst.paperTotal(), 27u);
}

TEST(Api, NetFeatureDescriptorsMatchSubstrates)
{
    StackConfig cm5;
    cm5.nodes = 2;
    Stack a(cm5);
    EXPECT_FALSE(a.network().features().inOrderDelivery);
    EXPECT_FALSE(a.network().features().reliableDelivery);
    EXPECT_FALSE(a.network().features().acceptanceIndependent);

    cm5.substrate = Substrate::Cr;
    Stack b(cm5);
    EXPECT_TRUE(b.network().features().inOrderDelivery);
    EXPECT_TRUE(b.network().features().reliableDelivery);
    EXPECT_TRUE(b.network().features().acceptanceIndependent);
}

} // namespace
} // namespace msgsim
