/**
 * @file
 * Tests of the NIC-offloaded AM substrate (src/nicam): the bounded
 * on-NIC handler table (hit = hardware dispatch, miss = host
 * fallback at full cost), per-handler offload accounting, NIC-side
 * CRC discard, the four protocol drivers, and the design rule that
 * observability never changes counts.
 */

#include <gtest/gtest.h>

#include <vector>

#include "hostprof/hostprof.hh"
#include "nicam/nicam_network.hh"
#include "prof/lineage.hh"
#include "prof/profile.hh"
#include "protocols/layer_drivers.hh"
#include "sim/event.hh"

namespace msgsim
{
namespace
{

/** An offload stack's fabric, for its hit/miss counters. */
NicamNetwork &
nicamFabric(Stack &stack)
{
    return static_cast<NicamNetwork &>(stack.network());
}

// ----------------------------------------------------------------
// The on-NIC handler table.
// ----------------------------------------------------------------

TEST(NicamNetwork, OffloadTableIsBounded)
{
    Simulator sim;
    NicamNetwork::Config cfg;
    cfg.nodes = 2;
    cfg.maxOffloadEntries = 2;
    NicamNetwork net(sim, cfg);

    EXPECT_TRUE(net.offloadHandler(1, HwTag::UserAm, 1,
                                   [](const Packet &) {}));
    EXPECT_TRUE(net.offloadHandler(1, HwTag::UserAm, 2,
                                   [](const Packet &) {}));
    // Table full: the third handler stays on the host.
    EXPECT_FALSE(net.offloadHandler(1, HwTag::UserAm, 3,
                                    [](const Packet &) {}));
    // Replacing an existing entry needs no new slot.
    EXPECT_TRUE(net.offloadHandler(1, HwTag::UserAm, 2,
                                   [](const Packet &) {}));
    EXPECT_EQ(net.offloadEntries(1), 2);
    net.removeOffload(1, HwTag::UserAm, 1);
    EXPECT_TRUE(net.offloadHandler(1, HwTag::UserAm, 3,
                                   [](const Packet &) {}));
}

TEST(NicamNetwork, HitsRunOnNicMissesFallToHost)
{
    Simulator sim;
    NicamNetwork::Config cfg;
    cfg.nodes = 2;
    NicamNetwork net(sim, cfg);

    int nicRuns = 0;
    net.offloadHandler(1, HwTag::UserAm, 5,
                       [&nicRuns](const Packet &) { ++nicRuns; });
    std::vector<Word> hostGot;
    net.attach(1, [&](Packet &p) {
        hostGot.push_back(p.header);
        return true;
    });

    net.inject(Packet(0, 1, HwTag::UserAm, hdr::pack(5, 0),
                      {1, 2, 3, 4}));
    net.inject(Packet(0, 1, HwTag::UserAm, hdr::pack(6, 0),
                      {5, 6, 7, 8}));
    sim.run();

    EXPECT_EQ(nicRuns, 1);
    ASSERT_EQ(hostGot.size(), 1u);
    EXPECT_EQ(hdr::fieldA(hostGot[0]), 5u + 1u);
    EXPECT_EQ(net.offloadHits(), 1u);
    EXPECT_EQ(net.offloadHits(1, HwTag::UserAm, 5), 1u);
    EXPECT_EQ(net.offloadMisses(), 1u);
    EXPECT_EQ(net.stats().delivered, 2u); // both paths count
    const auto f = net.features();
    EXPECT_TRUE(f.offloadDispatch);
    EXPECT_FALSE(f.inOrderDelivery); // still a CM-5-class fabric
    EXPECT_FALSE(f.reliableDelivery);
}

TEST(NicamNetwork, AMissIsCountedOncePerPacket)
{
    // A refused miss is offered again; it is one miss, counted when
    // the host sink accepts it.
    Simulator sim;
    NicamNetwork::Config cfg;
    cfg.nodes = 2;
    cfg.maxOffloadEntries = 1;
    NicamNetwork net(sim, cfg);
    net.offloadHandler(1, HwTag::UserAm, 5, [](const Packet &) {});
    int offers = 0;
    net.attach(1, [&offers](Packet &) { return ++offers > 3; });
    net.inject(Packet(0, 1, HwTag::UserAm, hdr::pack(6, 0),
                      {1, 2, 3, 4}));
    sim.run();
    EXPECT_EQ(offers, 4);
    EXPECT_EQ(net.stats().deliveryRetries, 3u);
    EXPECT_EQ(net.offloadMisses(), 1u);
    EXPECT_EQ(net.offloadHits(), 0u);
}

TEST(NicamNetwork, NicCrcCheckDiscardsCorruptPackets)
{
    Simulator sim;
    NicamNetwork::Config cfg;
    cfg.nodes = 2;
    cfg.faults.corruptRate = 1.0;
    NicamNetwork net(sim, cfg);

    int nicRuns = 0;
    net.offloadHandler(1, HwTag::UserAm, 5,
                       [&nicRuns](const Packet &) { ++nicRuns; });
    net.attach(1, [](Packet &) { return true; });
    net.inject(Packet(0, 1, HwTag::UserAm, hdr::pack(5, 0),
                      {1, 2, 3, 4}));
    sim.run();
    // Detection without correction, same as the NI — but on the NIC.
    EXPECT_EQ(nicRuns, 0);
    EXPECT_EQ(net.offloadCrcDrops(), 1u);
}

// ----------------------------------------------------------------
// The host layer: offloaded protocols.
// ----------------------------------------------------------------

TEST(NicamLayer, SingleAmDispatchesOnNicWithZeroHostDispatch)
{
    StackConfig cfg = stackConfigFor(HostLayer::Offload);
    Stack stack(cfg);
    RunParams p;
    const RunResult res = runNicamSingle(stack, p);
    ASSERT_TRUE(res.dataOk);
    EXPECT_EQ(res.dispatchOps, 0u); // the NIC did the dispatch
    EXPECT_GT(nicamFabric(stack).offloadHits(), 0u);
    EXPECT_EQ(stack.offload(p.dst).hostDispatches(), 0u);
}

TEST(NicamLayer, Am4RoundTripNeverWakesTheDestinationHost)
{
    StackConfig cfg = stackConfigFor(HostLayer::Offload);
    Stack stack(cfg);
    RunParams p;
    const RunResult res = runNicamAm4(stack, p);
    ASSERT_TRUE(res.dataOk);
    // Request handled on dst's NIC, reply injected by the NIC: the
    // destination processor executes nothing at all.
    EXPECT_EQ(res.counts.dst.paperTotal(), 0u);
    EXPECT_GT(res.counts.src.paperTotal(), 0u);
    EXPECT_EQ(res.dispatchOps, 0u);
}

TEST(NicamLayer, OffloadReplyMayGrowThePoolUnderItsRequest)
{
    // The am4 request handler runs on the NIC while its request is
    // parked, and injects (so parks) the reply; with lineage attached,
    // handlerEnd then reads the request again.  Pre-parking 0..48
    // packets puts the reply's park on a pool growth for some fill
    // level, whatever the pool's growth steps: a pool that moved
    // packets when it grew would leave the request dangling (caught
    // by the ASan build).
    for (std::uint32_t held = 0; held <= 48; ++held) {
        SCOPED_TRACE(held);
        Stack stack(stackConfigFor(HostLayer::Offload));
        for (std::uint32_t i = 0; i < held; ++i)
            (void)stack.network().park(Packet());
        prof::LineageSession lineage;
        lineage.attach();
        const RunResult res = runNicamAm4(stack, RunParams{});
        ASSERT_TRUE(res.dataOk);
        EXPECT_EQ(res.counts.dst.paperTotal(), 0u);
    }
}

TEST(NicamLayer, NicReplyIsBuiltInItsSlotWithoutAllocating)
{
    // Node 1's NIC injects replies that node 0's NIC consumes: once
    // the pool and event heap are warm, not one heap allocation.
    Stack stack(stackConfigFor(HostLayer::Offload));
    const Word hRep = 6;
    std::uint64_t got = 0;
    Payload last;
    ASSERT_TRUE(nicamFabric(stack).offloadHandler(
        0, HwTag::UserAm, hRep, [&](const Packet &pkt) {
            ++got;
            last = pkt.data;
        }));
    NicamLayer &nic = stack.offload(1);
    const std::vector<Word> args = {7, 8, 9};
    const auto reply = [&] {
        nic.nicInject(0, hRep, args);
        stack.settle();
    };

    for (int i = 0; i < 16; ++i)
        reply();
    const std::uint64_t before = hostprof::globalAllocCount();
    for (int i = 0; i < 100; ++i)
        reply();
    EXPECT_EQ(hostprof::globalAllocCount() - before, 0u);
    EXPECT_EQ(got, 116u);
    EXPECT_EQ(last, (Payload{7, 8, 9, 0})); // zero-padded to n = 4
}

TEST(NicamLayer, TableMissFallsBackToFullCostHostDispatch)
{
    StackConfig cfg = stackConfigFor(HostLayer::Offload);
    cfg.maxOffloadEntries = 1;
    Stack stack(cfg);
    NicamLayer &dst = stack.offload(1);

    int nicRuns = 0, hostRuns = 0;
    ASSERT_TRUE(dst.installAmHandler(
        1, [&](NodeId, Word, const std::vector<Word> &) {
            ++nicRuns;
        }));
    // Table holds one entry: the second handler stays host-side.
    ASSERT_FALSE(dst.installAmHandler(
        2, [&](NodeId, Word, const std::vector<Word> &) {
            ++hostRuns;
        }));

    stack.offload(0).amSend(1, 1, {10, 11, 12, 13});
    stack.offload(0).amSend(1, 2, {20, 21, 22, 23});
    stack.settle();
    EXPECT_EQ(nicRuns, 1);
    EXPECT_EQ(hostRuns, 0); // sits in the NI until the host polls

    EXPECT_EQ(dst.poll(), 1);
    EXPECT_EQ(hostRuns, 1);
    EXPECT_EQ(dst.hostDispatches(), 1u);
    // The fallback is exactly the software AM dispatch the offload
    // removed — its instruction mirror must be nonzero.
    EXPECT_GT(dst.dispatchOps(), 0u);
    EXPECT_EQ(nicamFabric(stack).offloadMisses(), 1u);
}

TEST(NicamLayer, FiniteXferPlacedByNicAndProbedByFlag)
{
    StackConfig cfg = stackConfigFor(HostLayer::Offload);
    Stack stack(cfg);
    RunParams p;
    p.words = 32;
    const RunResult res = runNicamFinite(stack, p);
    ASSERT_TRUE(res.dataOk);
    EXPECT_EQ(res.packets, 8u);
    EXPECT_EQ(res.dispatchOps, 0u);
    // Receive-side per-packet software is gone; what the host pays is
    // the descriptor post (buffer mgmt) and the completion probe.
    EXPECT_GT(res.counts.featureTotal(Feature::BufferMgmt), 0u);
    EXPECT_EQ(res.counts.featureTotal(Feature::FaultTolerance), 0u);
}

TEST(NicamLayer, StreamIsReorderedOnNicAndHarvestedInOrder)
{
    StackConfig cfg = stackConfigFor(HostLayer::Offload);
    Stack stack(cfg);
    RunParams p;
    p.words = 32;
    const RunResult res = runNicamStream(stack, p);
    ASSERT_TRUE(res.dataOk);
    EXPECT_EQ(res.packets, 8u);
    // The source still pays for sequence stamping: the fabric is out
    // of order and ordering metadata is software's job at the source.
    EXPECT_GT(res.counts.featureTotal(Feature::InOrderDelivery), 0u);
    EXPECT_EQ(res.dispatchOps, 0u);
}

TEST(NicamLayer, AllFourProtocolsRunEventMode)
{
    StackConfig cfg = stackConfigFor(HostLayer::Offload);
    Stack stack(cfg);
    RunParams p;
    p.eventMode = true;
    EXPECT_TRUE(runNicamSingle(stack, p).dataOk);
    EXPECT_TRUE(runNicamAm4(stack, p).dataOk);
    EXPECT_TRUE(runNicamFinite(stack, p).dataOk);
    EXPECT_TRUE(runNicamStream(stack, p).dataOk);
}

// ----------------------------------------------------------------
// Observability must not change what is counted.
// ----------------------------------------------------------------

TEST(NicamLayer, CountsAreBitIdenticalWithTracingOnOrOff)
{
    for (const char *proto : {"single", "am4", "xfer", "stream"}) {
        prof::ProfConfig cfg;
        cfg.protocol = proto;
        cfg.substrate = Substrate::Nicam;
        const auto a = prof::runProfiled(cfg);
        const RunResult b = prof::runProtocol(cfg);
        ASSERT_TRUE(a.result.dataOk) << proto;
        EXPECT_EQ(a.result.dispatchOps, b.dispatchOps)
            << proto;
        EXPECT_EQ(a.result.counts.paperTotal(),
                  b.counts.paperTotal())
            << proto;
        for (int fi = 0; fi < numFeatures; ++fi) {
            const auto f = static_cast<Feature>(fi);
            EXPECT_EQ(a.result.counts.featureTotal(f),
                      b.counts.featureTotal(f))
                << proto << "/" << toString(f);
        }
    }
}

} // namespace
} // namespace msgsim
