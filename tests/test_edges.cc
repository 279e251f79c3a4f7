/**
 * @file
 * Edge-case and failure-path tests: invariant violations must panic
 * loudly (gem5 semantics), resource exhaustion must be caught, and
 * boundary configurations must behave.
 */

#include <gtest/gtest.h>

#include "protocols/finite_xfer.hh"
#include "protocols/single_packet.hh"
#include "protocols/stream.hh"
#include "sim/event.hh"

namespace msgsim
{
namespace
{

struct ThrowOnError
{
    ThrowOnError() { log_detail::throwOnError = true; }
    ~ThrowOnError() { log_detail::throwOnError = false; }
};

TEST(Edges, EventQueuePopEmptyPanics)
{
    ThrowOnError guard;
    EventQueue q;
    Tick t;
    EXPECT_THROW(q.pop(t), log_detail::SimError);
    EXPECT_THROW(q.nextTick(), log_detail::SimError);
}

/** A typed-event handler that does nothing. */
void
nopHandler(void *, std::uint32_t)
{
}

TEST(Edges, EventQueueScheduleBeforeLastPopPanics)
{
    ThrowOnError guard;
    EventQueue q;
    q.schedule(10, &nopHandler, nullptr, 0);
    Tick t;
    q.pop(t)();
    EXPECT_THROW(q.schedule(9, &nopHandler, nullptr, 0),
                 log_detail::SimError);
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.scheduled(), 1u);
    q.schedule(10, &nopHandler, nullptr, 0);
    EXPECT_EQ(q.nextTick(), 10u);
}

/** A typed-event target that does nothing. */
struct Nop
{
    void run(std::uint32_t) {}
};

TEST(Edges, ScheduleInThePastPanics)
{
    ThrowOnError guard;
    Simulator sim;
    Nop nop;
    sim.scheduleAt<&Nop::run>(10, &nop, 0);
    sim.run();
    EXPECT_EQ(sim.now(), 10u);
    EXPECT_THROW(sim.scheduleAt<&Nop::run>(5, &nop, 0),
                 log_detail::SimError);
}

TEST(Edges, SegmentDoubleFreePanics)
{
    ThrowOnError guard;
    Stack stack(StackConfig{});
    SegmentTable &segs = stack.cmam(0).segments();
    Processor &p = stack.node(0).proc();
    const Word id = segs.alloc(p, 0, 1);
    segs.free(p, id);
    EXPECT_THROW(segs.free(p, id), log_detail::SimError);
}

TEST(Edges, SegmentOverrunPanics)
{
    ThrowOnError guard;
    Stack stack(StackConfig{});
    SegmentTable &segs = stack.cmam(0).segments();
    Processor &p = stack.node(0).proc();
    const Word id = segs.alloc(p, 0, 1);
    EXPECT_TRUE(segs.packetArrived(p, id));
    EXPECT_THROW(segs.packetArrived(p, id), log_detail::SimError);
}

TEST(Edges, NiReadWithEmptyFifoPanics)
{
    ThrowOnError guard;
    Stack stack(StackConfig{});
    Node &n = stack.node(0);
    EXPECT_THROW(n.ni().readRecvHeader(n.acct()),
                 log_detail::SimError);
    EXPECT_THROW(n.ni().readRecvDouble(n.acct()),
                 log_detail::SimError);
}

TEST(Edges, NiDataPushWithoutCtlPanics)
{
    ThrowOnError guard;
    Stack stack(StackConfig{});
    Node &n = stack.node(0);
    EXPECT_THROW(n.ni().writeSendDouble(n.acct(), 1, 2),
                 log_detail::SimError);
}

TEST(Edges, BadVnetPanics)
{
    ThrowOnError guard;
    Stack stack(StackConfig{});
    Node &n = stack.node(0);
    EXPECT_THROW(
        n.ni().writeSendCtl(n.acct(), 1, HwTag::UserAm, 0, 4, 5),
        log_detail::SimError);
}

TEST(Edges, SmallestMachineAndMessage)
{
    // 2 nodes, one packet: the smallest meaningful configuration.
    StackConfig cfg;
    cfg.nodes = 2;
    Stack stack(cfg);
    const auto res = runSinglePacket(stack, {});
    EXPECT_TRUE(res.dataOk);
}

TEST(Edges, StreamOfOnePacket)
{
    Stack stack(StackConfig{});
    StreamProtocol proto(stack);
    StreamParams p;
    p.words = 4;
    const auto res = proto.run(p);
    EXPECT_TRUE(res.dataOk);
    EXPECT_EQ(res.packets, 1u);
    EXPECT_EQ(res.oooArrivals, 0u);
}

TEST(Edges, OddPacketCountWithSwapAdjacent)
{
    // The held last packet must be flushed, not stranded.
    StackConfig cfg;
    cfg.order = swapAdjacentFactory();
    Stack stack(cfg);
    StreamProtocol proto(stack);
    StreamParams p;
    p.words = 20; // 5 packets
    const auto res = proto.run(p);
    EXPECT_TRUE(res.dataOk);
    EXPECT_EQ(res.oooArrivals, 2u); // two complete swapped pairs
}

TEST(Edges, HlSinglePacketTransfer)
{
    StackConfig cfg = stackConfigFor(HostLayer::Hl);
    Stack stack(cfg);
    FiniteXferParams p;
    p.words = 4; // header packet IS the only packet
    const auto res = FiniteXfer(stack).run(p);
    EXPECT_TRUE(res.dataOk);
    EXPECT_EQ(res.packets, 1u);
}

TEST(Edges, FatTreeSingleNode)
{
    ThrowOnError guard;
    FatTree t(1, 4);
    EXPECT_EQ(t.lca(0, 0), 0u);
    EXPECT_THROW(t.lca(0, 1), log_detail::SimError);
}

TEST(Edges, TinyPacketSizeRejected)
{
    ThrowOnError guard;
    StackConfig cfg;
    cfg.dataWords = 2; // below the CMAM_4 format minimum
    EXPECT_THROW(Stack{cfg}, log_detail::SimError);
}

TEST(Edges, LargePacketSizeWorks)
{
    StackConfig cfg;
    cfg.dataWords = 128;
    Stack stack(cfg);
    StreamProtocol proto(stack);
    StreamParams p;
    p.words = 1024;
    const auto res = proto.run(p);
    EXPECT_TRUE(res.dataOk);
    EXPECT_EQ(res.packets, 8u);
}

TEST(Edges, UnlimitedGroupAckNeverSendsMidStream)
{
    // G larger than the stream: exactly one flush ack at the end.
    Stack stack(StackConfig{});
    StreamProtocol proto(stack);
    StreamParams p;
    p.words = 64;
    p.groupAck = 10000;
    const auto res = proto.run(p);
    EXPECT_TRUE(res.dataOk);
    EXPECT_EQ(res.acksSent, 1u);
}

} // namespace
} // namespace msgsim
