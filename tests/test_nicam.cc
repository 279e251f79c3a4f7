/**
 * @file
 * Tests of the NIC-offloaded AM substrate (src/nicam): the bounded
 * on-NIC handler table (hit = hardware dispatch, miss = host
 * fallback at full cost), per-handler offload accounting, NIC-side
 * CRC discard, the four protocols (the engines and prof's active-
 * message exchanges), and the design rule that observability never
 * changes counts.
 */

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "hostprof/hostprof.hh"
#include "net/tracer.hh"
#include "nicam/nicam_network.hh"
#include "prof/lineage.hh"
#include "prof/profile.hh"
#include "protocols/finite_xfer.hh"
#include "protocols/stream.hh"
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

/** prof's @p protocol row on nicam, on a fresh offload stack. */
RunResult
offloadRow(const char *protocol,
           const std::function<void(Machine &)> &onStack = {})
{
    prof::ProfConfig cfg;
    cfg.protocol = protocol;
    cfg.substrate = Substrate::Nicam;
    return prof::runProtocol(cfg, onStack);
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
    PacketTracer tracer;
    tracer.attach();
    net.inject(Packet(0, 1, HwTag::UserAm, hdr::pack(5, 0),
                      {1, 2, 3, 4}));
    sim.run();
    tracer.detach();
    // Detection without correction, same as the NI — but on the NIC,
    // so the packet is lost at the edge: dropped, never delivered.
    EXPECT_EQ(nicRuns, 0);
    EXPECT_EQ(net.offloadCrcDrops(), 1u);
    EXPECT_EQ(net.stats().dropped, 1u);
    EXPECT_EQ(net.stats().delivered, 0u);
    EXPECT_EQ(net.inFlightTo(1), 0u);
    // The discard is the fabric's one drop path, so the trace sees it.
    EXPECT_EQ(tracer.observed(TraceEvent::Drop), 1u);
    EXPECT_EQ(tracer.observed(TraceEvent::Deliver), 0u);
}

#ifdef MSGSIM_CHECKED
TEST(NicamNetwork, PacketWrittenInFlightPanics)
{
    // The checked build seals each packet at launch, and the NIC's
    // CRC check panics on one whose words changed with no fault
    // marking them: a stray host write, not a network fault.
    Simulator sim;
    NicamNetwork::Config cfg;
    cfg.nodes = 2;
    NicamNetwork net(sim, cfg);
    int nicRuns = 0;
    net.offloadHandler(1, HwTag::UserAm, 5,
                       [&nicRuns](const Packet &) { ++nicRuns; });
    net.attach(1, [](Packet &) { return true; });
    auto launch = [&net] {
        const Network::Slot slot =
            net.stage(0, 1, HwTag::UserAm, hdr::pack(5, 0), 0);
        net.parked(slot).data = Payload{1, 2, 3, 4};
        EXPECT_TRUE(net.injectParked(slot));
        return slot;
    };
    launch();
    sim.run(); // an untouched packet passes the check
    EXPECT_EQ(nicRuns, 1);

    const Network::Slot slot = launch();
    net.parked(slot).data[0] ^= 0x1u;
    log_detail::throwOnError = true;
    EXPECT_THROW(sim.run(), log_detail::SimError);
    log_detail::throwOnError = false;
    EXPECT_EQ(nicRuns, 1);
    EXPECT_EQ(net.offloadCrcDrops(), 0u);
}
#endif

// ----------------------------------------------------------------
// The host layer: offloaded protocols.
// ----------------------------------------------------------------

TEST(NicamLayer, SingleAmDispatchesOnNicWithZeroHostDispatch)
{
    const RunResult res = offloadRow("single");
    ASSERT_TRUE(res.dataOk);
    EXPECT_EQ(res.dispatchOps, 0u); // the NIC did the dispatch

    // The same message on a stack the test keeps: a table hit.
    Stack stack(stackConfigFor(HostLayer::Offload));
    int nicRuns = 0;
    ASSERT_TRUE(stack.offload(1).installAmHandler(
        5, [&nicRuns](NodeId, Word, const std::vector<Word> &) {
            ++nicRuns;
        }));
    stack.offload(0).amSend(1, 5, {1, 2, 3, 4});
    stack.settle();
    EXPECT_EQ(nicRuns, 1);
    EXPECT_GT(nicamFabric(stack).offloadHits(), 0u);
    EXPECT_EQ(stack.offload(1).hostDispatches(), 0u);
}

TEST(NicamLayer, Am4RoundTripNeverWakesTheDestinationHost)
{
    const RunResult res = offloadRow("am4");
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
        prof::LineageSession lineage;
        lineage.attach();
        const RunResult res = offloadRow("am4", [held](Machine &m) {
            for (std::uint32_t i = 0; i < held; ++i)
                (void)m.network().park(Packet());
        });
        ASSERT_TRUE(res.dataOk);
        EXPECT_EQ(res.counts.dst.paperTotal(), 0u);
    }
}

TEST(NicamLayer, NicReplyIsBuiltInItsSlotWithoutAllocating)
{
    // Node 1's NIC injects replies that node 0's NIC consumes: once
    // the pool and event queue are warm, not one heap allocation.
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

    // The stack's settled sweep takes a miss in as well.
    stack.offload(0).amSend(1, 2, {30, 31, 32, 33});
    EXPECT_EQ(stack.pollPending(), 1u);
    EXPECT_EQ(hostRuns, 2);
    EXPECT_EQ(stack.pollPending(), 0u);
}

TEST(NicamLayer, FiniteXferPlacedByNicAndProbedByFlag)
{
    Stack stack(stackConfigFor(HostLayer::Offload));
    FiniteXferParams p;
    p.words = 32;
    const RunResult res = FiniteXfer(stack).run(p);
    ASSERT_TRUE(res.dataOk);
    EXPECT_EQ(res.packets, 8u);
    EXPECT_EQ(stack.dispatchOps(p.dst), 0u);
    EXPECT_EQ(nicamFabric(stack).offloadHits(), 8u);
    EXPECT_EQ(stack.offload(p.dst).hostDispatches(), 0u);
    // Receive-side per-packet software is gone; what the host pays is
    // the descriptor post (buffer mgmt) and the completion probe.
    EXPECT_GT(res.counts.featureTotal(Feature::BufferMgmt), 0u);
    EXPECT_EQ(res.counts.featureTotal(Feature::FaultTolerance), 0u);
    // The landed transfer gave its table entry back.
    EXPECT_EQ(nicamFabric(stack).offloadEntries(p.dst), 0);
}

TEST(NicamLayer, StreamIsReorderedOnNicAndHarvestedInOrder)
{
    StackConfig cfg = stackConfigFor(HostLayer::Offload);
    cfg.order = swapAdjacentFactory(); // the fabric swaps neighbours
    Stack stack(cfg);
    StreamParams p;
    p.words = 32;
    const RunResult res = StreamProtocol(stack).run(p);
    ASSERT_TRUE(res.dataOk);
    EXPECT_EQ(res.packets, 8u);
    // The source still pays for sequence stamping: the fabric is out
    // of order and ordering metadata is software's job at the source.
    EXPECT_GT(res.counts.featureTotal(Feature::InOrderDelivery), 0u);
    EXPECT_EQ(stack.dispatchOps(p.dst), 0u);
    EXPECT_EQ(nicamFabric(stack).offloadHits(), 8u);
    // The closed channel gave its table entry back.
    EXPECT_EQ(nicamFabric(stack).offloadEntries(p.dst), 0);
}

TEST(NicamLayer, RunsGiveBackTheirTableEntries)
{
    // Twice the table's eight entries of each, one after another on
    // one engine: every landed transfer and closed channel retires
    // its entry (and its id) for the next.
    Stack stack(stackConfigFor(HostLayer::Offload));
    FiniteXfer fx(stack);
    StreamProtocol sp(stack);
    for (int i = 0; i < 16; ++i) {
        ASSERT_TRUE(fx.run(FiniteXferParams{}).dataOk) << i;
        ASSERT_TRUE(sp.run(StreamParams{}).dataOk) << i;
    }
    EXPECT_EQ(nicamFabric(stack).offloadEntries(1), 0);
}

TEST(NicamLayer, AllFourProtocolsRun)
{
    // prof's rows: xfer is FiniteXfer, stream is StreamProtocol,
    // single and am4 are active messages handled on the NIC.
    for (const char *proto : {"single", "am4", "xfer", "stream"})
        EXPECT_TRUE(offloadRow(proto).dataOk) << proto;
    // The engines in both modes, one after another on one stack.
    Stack stack(stackConfigFor(HostLayer::Offload));
    FiniteXfer fx(stack);
    StreamProtocol sp(stack);
    for (const bool eventMode : {false, true}) {
        FiniteXferParams xp;
        xp.eventMode = eventMode;
        EXPECT_TRUE(fx.run(xp).dataOk) << eventMode;
        StreamParams sp_params;
        sp_params.eventMode = eventMode;
        EXPECT_TRUE(sp.run(sp_params).dataOk) << eventMode;
    }
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
