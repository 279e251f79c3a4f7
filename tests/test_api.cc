/**
 * @file
 * API-surface tests: the umbrella header is self-contained, the
 * reply-AM convenience works, the high-level layer's unit costs hold
 * in isolation, and the fabric descriptors and (fabric, host layer)
 * pair table say what the stacks build.
 */

#include <gtest/gtest.h>

#include <functional>
#include <iterator>
#include <set>
#include <string>
#include <utility>

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

TEST(Api, HlFiniteUnitCosts)
{
    // HL finite at one packet: src = 3 + 22 = 25; dst = poll entry 13
    // + per-packet 11 reg + 2 mem + 4 dev + completion 5 + buffer
    // bind 13.
    StackConfig cfg = stackConfigFor(HostLayer::Hl);
    Stack stack(cfg);
    FiniteXferParams p;
    p.words = 4;
    const auto res = FiniteXfer(stack).run(p);
    ASSERT_TRUE(res.dataOk);
    EXPECT_EQ(res.counts.src.paperTotal(), 25u);
    EXPECT_EQ(res.counts.dst.featureTotal(Feature::BaseCost),
              13u + 17u + 5u);
    EXPECT_EQ(res.counts.dst.featureTotal(Feature::BufferMgmt), 13u);
}

TEST(Api, HlStreamUnitCosts)
{
    StackConfig cfg = stackConfigFor(HostLayer::Hl);
    Stack stack(cfg);
    StreamParams p;
    p.words = 4;
    const auto res = StreamProtocol(stack).run(p);
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

    // The whole DESIGN.md §3.1 table, four fabrics x six bits, as a
    // built fabric reports it and as netFeatures() reads it unbuilt.
    struct Row
    {
        Substrate sub;
        bool inOrder, reliable, acceptance, zeroCopy, offload, cq;
    };
    const Row table[] = {
        {Substrate::Cm5, false, false, false, false, false, false},
        {Substrate::Cr, true, true, true, false, false, false},
        {Substrate::Rdma, true, true, true, true, false, true},
        {Substrate::Nicam, false, false, false, false, true, false},
    };
    for (const Row &want : table) {
        cm5.substrate = want.sub;
        Stack stack(cm5);
        for (const NetFeatures &f :
             {stack.network().features(), netFeatures(want.sub)}) {
            SCOPED_TRACE(toString(want.sub));
            EXPECT_EQ(f.inOrderDelivery, want.inOrder);
            EXPECT_EQ(f.reliableDelivery, want.reliable);
            EXPECT_EQ(f.acceptanceIndependent, want.acceptance);
            EXPECT_EQ(f.zeroCopy, want.zeroCopy);
            EXPECT_EQ(f.offloadDispatch, want.offload);
            EXPECT_EQ(f.completionQueue, want.cq);
        }
    }
}

TEST(Api, StackPairTableListsTheSevenPairsInUse)
{
    std::set<std::pair<std::string, std::string>> got;
    for (const StackPair &p : stackPairs) {
        got.emplace(toString(p.substrate), toString(p.layer));
        StackConfig cfg;
        cfg.substrate = p.substrate;
        cfg.layer = p.layer;
        cfg.nodes = 2;
        Stack stack(cfg); // every listed pair builds
        EXPECT_EQ(stack.config().layer, p.layer);
    }
    const std::set<std::pair<std::string, std::string>> want = {
        {"cm5", "cmam"},  {"cr", "cmam"},   {"rdma", "cmam"},
        {"nicam", "cmam"}, {"cr", "hl"},    {"rdma", "verbs"},
        {"nicam", "offload"},
    };
    EXPECT_EQ(std::size(stackPairs), want.size());
    EXPECT_EQ(got, want);
}

TEST(Api, UnlistedStackPairIsFatal)
{
    log_detail::throwOnError = true;
    const StackPair unlisted[] = {
        {Substrate::Cm5, HostLayer::Hl},
        {Substrate::Cr, HostLayer::Verbs},
        {Substrate::Rdma, HostLayer::Offload},
    };
    for (const StackPair &p : unlisted) {
        SCOPED_TRACE(toString(p.layer));
        StackConfig cfg;
        cfg.substrate = p.substrate;
        cfg.layer = p.layer;
        try {
            Stack stack(cfg);
            ADD_FAILURE() << "built an unlisted pair";
        } catch (const log_detail::SimError &e) {
            EXPECT_FALSE(e.isPanic); // fatal: a configuration error
        }
    }
    log_detail::throwOnError = false;
}

TEST(Api, AccessorOfAnUnbuiltLayerPanics)
{
    log_detail::throwOnError = true;
    auto panics = [](const std::function<void()> &access) {
        try {
            access();
        } catch (const log_detail::SimError &e) {
            return e.isPanic;
        }
        return false;
    };
    Stack cmam(StackConfig{});
    EXPECT_FALSE(panics([&] { cmam.cmam(0); }));
    EXPECT_TRUE(panics([&] { cmam.nic(0); }));
    EXPECT_TRUE(panics([&] { cmam.offload(0); }));
    // The hl layer is CMAM trusting its fabric.
    Stack hl(stackConfigFor(HostLayer::Hl));
    EXPECT_FALSE(panics([&] { hl.cmam(0); }));
    EXPECT_TRUE(panics([&] { hl.nic(0); }));
    log_detail::throwOnError = false;
}

TEST(Stack, UnbuiltLayerAccessorPanics)
{
    // The panic names the layer the stack did build, not an index.
    log_detail::throwOnError = true;
    const auto message = [](const std::function<void()> &access) {
        try {
            access();
        } catch (const log_detail::SimError &e) {
            return e.message;
        }
        return std::string("no panic");
    };
    Stack verbs(stackConfigFor(HostLayer::Verbs));
    Stack offload(stackConfigFor(HostLayer::Offload));
    Stack cmam(StackConfig{});
    EXPECT_EQ(message([&] { verbs.cmam(0); }),
              "cmam(0): the stack was built with the verbs layer only");
    EXPECT_EQ(message([&] { offload.nic(1); }),
              "verbs(1): the stack was built with the offload layer only");
    EXPECT_EQ(message([&] { cmam.offload(0); }),
              "offload(0): the stack was built with the cmam layer only");
    // A built layer still range-checks its node id.
    EXPECT_EQ(message([&] { cmam.cmam(99); }),
              "cmam: node id 99 out of range");
    log_detail::throwOnError = false;
}

} // namespace
} // namespace msgsim
