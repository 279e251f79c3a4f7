/**
 * @file
 * Event-driven execution tests: arrival-hook polling, timers,
 * software retransmission over the detection-only network, window
 * flow control, and the cost of recovery.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "protocols/finite_xfer.hh"
#include "protocols/stream.hh"
#include "sim/metrics.hh"
#include "sim/trace_session.hh"

namespace msgsim
{
namespace
{

StackConfig
cleanConfig()
{
    StackConfig cfg;
    cfg.nodes = 4;
    return cfg;
}

TEST(EventMode, FiniteFaultFreeMatchesCalibrationTotals)
{
    // Without faults or jitter, the event-driven run performs the
    // same protocol work; polls are arrival-coalesced, so the only
    // difference is extra poll entries.  Counts must be >= the
    // calibration totals and data must be intact.
    Stack cal(cleanConfig());
    FiniteXfer pcal(cal);
    FiniteXferParams params;
    params.words = 64;
    const auto base = pcal.run(params);

    Stack evt(cleanConfig());
    FiniteXfer pevt(evt);
    params.eventMode = true;
    const auto res = pevt.run(params);
    ASSERT_TRUE(res.dataOk);
    EXPECT_EQ(res.retransmissions, 0u);
    EXPECT_GE(res.counts.paperTotal(), base.counts.paperTotal());
    // The protocol work itself is identical; the overhead is bounded
    // by a handful of extra poll entries per phase.
    EXPECT_LT(res.counts.paperTotal(), base.counts.paperTotal() + 400);
}

TEST(EventMode, StreamFaultFreeDelivers)
{
    Stack stack(cleanConfig());
    StreamProtocol proto(stack);
    StreamParams p;
    p.words = 256;
    p.eventMode = true;
    const auto res = proto.run(p);
    ASSERT_TRUE(res.dataOk);
    EXPECT_EQ(res.retransmissions, 0u);
}

TEST(EventMode, StreamRecoversFromScriptedDrop)
{
    // Drop exactly one data packet; the retransmission timer must
    // recover it and the receiver must still deliver in order.
    Stack stack(cleanConfig());
    auto *net = dynamic_cast<Cm5Network *>(&stack.network());
    ASSERT_NE(net, nullptr);
    net->faults().scriptDrop(3); // the 4th injected packet

    StreamProtocol proto(stack);
    StreamParams p;
    p.words = 64; // 16 packets
    p.eventMode = true;
    p.retxTimeout = 500;
    const auto res = proto.run(p);
    EXPECT_TRUE(res.dataOk);
    EXPECT_GE(res.retransmissions, 1u);
    // Recovery work was charged to fault tolerance.
    EXPECT_GT(res.counts.src.featureTotal(Feature::FaultTolerance),
              16u * 8u);
}

TEST(EventMode, StreamRecoversFromRandomDrops)
{
    StackConfig cfg = cleanConfig();
    cfg.faults.dropRate = 0.08;
    cfg.faults.seed = 1234;
    Stack stack(cfg);
    StreamProtocol proto(stack);
    StreamParams p;
    p.words = 512; // 128 packets
    p.eventMode = true;
    p.retxTimeout = 800;
    p.maxRetx = 256;
    const auto res = proto.run(p);
    EXPECT_TRUE(res.dataOk);
    EXPECT_GT(res.retransmissions, 0u);
}

TEST(EventMode, StreamRecoversFromDroppedAcks)
{
    // Acks traverse the same faulty network.  A lost ack causes a
    // retransmission, which the receiver discards as a duplicate and
    // re-acknowledges.
    Stack stack(cleanConfig());
    auto *net = dynamic_cast<Cm5Network *>(&stack.network());
    ASSERT_NE(net, nullptr);
    // Packet flow: data 0..7 are injections 0..7 interleaved with
    // acks; script drops on a couple of later injections (acks).
    net->faults().scriptDrop(8);
    net->faults().scriptDrop(10);

    StreamProtocol proto(stack);
    StreamParams p;
    p.words = 32; // 8 packets
    p.eventMode = true;
    p.retxTimeout = 400;
    const auto res = proto.run(p);
    EXPECT_TRUE(res.dataOk);
    EXPECT_GT(res.duplicates + res.retransmissions, 0u);
}

TEST(EventMode, StreamWithJitterAndFaults)
{
    // The full gauntlet: latency jitter (out-of-order), drops, and
    // corruption (CRC-discarded at the NI), with group acks.
    StackConfig cfg = cleanConfig();
    cfg.maxJitter = 30;
    cfg.faults.dropRate = 0.05;
    cfg.faults.corruptRate = 0.05;
    cfg.faults.seed = 42;
    Stack stack(cfg);
    StreamProtocol proto(stack);
    StreamParams p;
    p.words = 256;
    p.eventMode = true;
    p.groupAck = 4;
    p.retxTimeout = 1000;
    p.maxRetx = 512;
    const auto res = proto.run(p);
    EXPECT_TRUE(res.dataOk);
}

TEST(EventMode, StreamWindowLimitsInFlight)
{
    Stack stack(cleanConfig());
    StreamProtocol proto(stack);
    StreamParams p;
    p.words = 256; // 64 packets
    p.eventMode = true;
    p.window = 4;
    const auto res = proto.run(p);
    EXPECT_TRUE(res.dataOk);
    // Windowed flow takes longer than firehose: at least 64/4 window
    // round trips.
    EXPECT_GT(res.elapsed, 16u);
}

TEST(EventMode, FiniteRestartsAfterDroppedDataPacket)
{
    Stack stack(cleanConfig());
    auto *net = dynamic_cast<Cm5Network *>(&stack.network());
    ASSERT_NE(net, nullptr);
    // Injections: 0 = alloc req, 1 = reply, 2.. = data.  Drop one
    // data packet: the ack never comes, the timeout restarts the
    // whole handshake + transfer.
    net->faults().scriptDrop(4);

    FiniteXfer proto(stack);
    FiniteXferParams p;
    p.words = 32;
    p.eventMode = true;
    p.ackTimeout = 2000;
    const auto res = proto.run(p);
    EXPECT_TRUE(res.dataOk);
    EXPECT_GE(res.retransmissions, 8u); // full resend of 8 packets
}

TEST(EventMode, FiniteRestartsAfterDroppedReply)
{
    Stack stack(cleanConfig());
    auto *net = dynamic_cast<Cm5Network *>(&stack.network());
    ASSERT_NE(net, nullptr);
    net->faults().scriptDrop(1); // the alloc reply

    FiniteXfer proto(stack);
    FiniteXferParams p;
    p.words = 16;
    p.eventMode = true;
    p.ackTimeout = 2000;
    const auto res = proto.run(p);
    EXPECT_TRUE(res.dataOk);
}

TEST(EventMode, FiniteRestartsAfterDroppedAck)
{
    Stack stack(cleanConfig());
    auto *net = dynamic_cast<Cm5Network *>(&stack.network());
    ASSERT_NE(net, nullptr);
    // 0 req, 1 reply, 2..5 data (16 words), 6 ack.
    net->faults().scriptDrop(6);

    FiniteXfer proto(stack);
    FiniteXferParams p;
    p.words = 16;
    p.eventMode = true;
    p.ackTimeout = 2000;
    const auto res = proto.run(p);
    // The restarted transfer rewrites the same buffer; the duplicate
    // run's stale packets are discarded by the segment epoch check.
    EXPECT_TRUE(res.dataOk);
}

TEST(EventMode, RecoveryCostsAreVisible)
{
    // The headline motivation for hardware fault tolerance: software
    // recovery is expensive.  Compare fault-free and faulty stream
    // runs' fault-tolerance instruction counts.
    StackConfig cfg = cleanConfig();
    Stack clean(cfg);
    StreamProtocol pclean(clean);
    StreamParams params;
    params.words = 256;
    params.eventMode = true;
    params.retxTimeout = 600;
    const auto base = pclean.run(params);
    ASSERT_TRUE(base.dataOk);

    cfg.faults.dropRate = 0.15;
    cfg.faults.seed = 9;
    Stack faulty(cfg);
    StreamProtocol pfaulty(faulty);
    params.maxRetx = 512;
    const auto res = pfaulty.run(params);
    ASSERT_TRUE(res.dataOk);

    const auto ft = [](const RunResult &r) {
        return r.counts.src.featureTotal(Feature::FaultTolerance) +
               r.counts.dst.featureTotal(Feature::FaultTolerance);
    };
    EXPECT_GT(ft(res), ft(base));
}

TEST(EventMode, SimulatorExposesEventLoopMetrics)
{
    Stack stack(cleanConfig());
    StreamProtocol proto(stack);
    StreamParams p;
    p.words = 256;
    p.eventMode = true;
    const auto res = proto.run(p);
    ASSERT_TRUE(res.dataOk);

    const Simulator &sim = stack.sim();
    EXPECT_GT(sim.eventsDispatched(), 0u);
    EXPECT_GE(sim.eventsScheduled(), sim.eventsDispatched());
    EXPECT_GT(sim.tickAdvances(), 0u);
    EXPECT_LE(sim.tickAdvances(), sim.eventsDispatched());
    EXPECT_GE(sim.maxQueueDepth(), 1u);

    MetricsRegistry reg;
    sim.publishMetrics(reg, "sim");
    EXPECT_TRUE(reg.has("sim.events_dispatched"));
    EXPECT_TRUE(reg.has("sim.events_scheduled"));
    EXPECT_TRUE(reg.has("sim.tick_advances"));
    EXPECT_TRUE(reg.has("sim.max_queue_depth"));
    EXPECT_EQ(reg.counter("sim.events_dispatched"),
              sim.eventsDispatched());
}

TEST(EventMode, QueueDepthCounterSamplesLandInAnAttachedSession)
{
    TraceSession ts;
    ts.attach();

    Stack stack(cleanConfig());
    ts.bindClock(&stack.sim());
    FiniteXfer proto(stack);
    FiniteXferParams p;
    p.words = 64;
    p.eventMode = true;
    const auto res = proto.run(p);
    ASSERT_TRUE(res.dataOk);
    ts.detach();

    std::uint64_t depthSamples = 0;
    for (const auto &rec : ts.snapshot())
        if (rec.kind == TraceSession::Kind::Counter &&
            std::string(rec.name) == "sim.queue_depth")
            ++depthSamples;
    EXPECT_GT(depthSamples, 0u);
}

TEST(EventMode, RunsLeaveNothingQueued)
{
    // The ack timer is due long after the ack arrives; run() settles
    // it, so nothing queued outlives the engine that scheduled it.
    Stack stack(cleanConfig());
    {
        FiniteXfer proto(stack);
        FiniteXferParams p;
        p.eventMode = true;
        ASSERT_TRUE(proto.run(p).dataOk);
        EXPECT_TRUE(stack.sim().idle());
    }
    {
        StreamProtocol proto(stack);
        StreamParams p;
        p.eventMode = true;
        p.groupAck = 4;
        ASSERT_TRUE(proto.run(p).dataOk);
        EXPECT_TRUE(stack.sim().idle());
    }
    // Both engines are gone: settling runs nothing of theirs (the
    // sanitizer build checks that no event reaches freed memory).
    stack.settle();
    EXPECT_TRUE(stack.sim().idle());
}

/** What node 1 paid for two am4s from node 0 landing in one tick. */
struct TwoArrivals
{
    std::uint64_t instr = 0;  ///< node 1's instructions
    std::uint64_t events = 0; ///< simulator events scheduled
    std::vector<Tick> handledAt;
};

/**
 * Two am4s 0 -> 1 on the cr fabric under @p layer, serviced by
 * arrival polls; with @p onArrival false, settle and poll node 1 once
 * by hand.
 */
TwoArrivals
twoArrivals(HostLayer layer, bool onArrival)
{
    StackConfig cfg = cleanConfig();
    cfg.substrate = Substrate::Cr;
    cfg.layer = layer;
    Stack stack(cfg);
    TwoArrivals out;
    Node &dst = stack.node(1);
    const int h = stack.cmam(1).registerHandler(
        [&](NodeId, const std::vector<Word> &) {
            out.handledAt.push_back(stack.sim().now());
        });
    if (onArrival)
        stack.pollOnArrival(1);
    const std::uint64_t instr0 = dst.acct().counter().paperTotal();
    const std::uint64_t events0 = stack.sim().eventsScheduled();
    stack.cmam(0).am4(1, h, {1, 2, 3, 4});
    stack.cmam(0).am4(1, h, {5, 6, 7, 8});
    stack.settle();
    if (onArrival) {
        stack.stopPollOnArrival(1);
    } else {
        FeatureScope fs(dst.acct(), Feature::BaseCost);
        stack.cmam(1).poll();
    }
    out.instr = dst.acct().counter().paperTotal() - instr0;
    out.events = stack.sim().eventsScheduled() - events0;
    return out;
}

/** Instructions of one poll entry that finds the FIFO empty. */
std::uint64_t
emptyPollEntry()
{
    Stack stack(cleanConfig());
    Node &nd = stack.node(1);
    const std::uint64_t before = nd.acct().counter().paperTotal();
    FeatureScope fs(nd.acct(), Feature::BaseCost);
    stack.cmam(1).poll();
    return nd.acct().counter().paperTotal() - before;
}

TEST(Stack, CoalescedArrivalsShareOnePollEntry)
{
    // The layer decides: CMAM coalesces, the §4 layer takes an entry
    // per arrival.
    const TwoArrivals byHand = twoArrivals(HostLayer::Cmam, false);
    const TwoArrivals co = twoArrivals(HostLayer::Cmam, true);
    const TwoArrivals each = twoArrivals(HostLayer::Hl, true);
    ASSERT_EQ(byHand.handledAt.size(), 2u);
    // Both packets land in one tick, and the first entry handles both.
    ASSERT_EQ(co.handledAt.size(), 2u);
    EXPECT_EQ(co.handledAt[0], co.handledAt[1]);
    EXPECT_EQ(each.handledAt, co.handledAt);
    // Coalesced: one poll entry, as one settled poll by hand.
    EXPECT_EQ(co.instr, byHand.instr);
    EXPECT_EQ(co.events, byHand.events + 1);
    // Per arrival: a second entry, which finds the FIFO empty.
    EXPECT_GT(emptyPollEntry(), 0u);
    EXPECT_EQ(each.instr, co.instr + emptyPollEntry());
    EXPECT_EQ(each.events, byHand.events + 2);
}

TEST(Stack, StoppedProgressLoopLeavesTheQueueIdle)
{
    Stack stack(cleanConfig());
    int steps = 0;
    for (NodeId id : {0u, 1u})
        stack.startProgress(id, 8, 8, [&steps] {
            ++steps;
            return false;
        });
    stack.sim().runUntil([&steps] { return steps == 6; });
    EXPECT_EQ(stack.sim().now(), 24u);
    EXPECT_TRUE(stack.progressing(0));
    stack.stopProgress();
    EXPECT_TRUE(stack.sim().idle());
    EXPECT_FALSE(stack.progressing(0));
    EXPECT_FALSE(stack.progressing(1));

    // A later loop on the same node runs only its own step, and ends
    // itself when the step reports done.
    int later = 0;
    stack.startProgress(0, 8, 8, [&later] { return ++later == 2; });
    stack.settle();
    EXPECT_EQ(later, 2);
    EXPECT_EQ(steps, 6);
    EXPECT_FALSE(stack.progressing(0));
    EXPECT_TRUE(stack.sim().idle());
}

} // namespace
} // namespace msgsim
