/**
 * @file
 * Tests of the packet tracer and event-level invariants of whole
 * protocol runs observed through it.
 */

#include <gtest/gtest.h>

#include <map>

#include "net/tracer.hh"
#include "protocols/finite_xfer.hh"
#include "protocols/stream.hh"
#include "sim/trace_session.hh"

namespace msgsim
{
namespace
{

Packet
mk(NodeId s, NodeId d, std::uint64_t seq)
{
    Packet p(s, d, HwTag::UserAm, 0xaa, {1, 2});
    p.injectSeq = seq;
    return p;
}

TEST(Tracer, RecordsAndCounts)
{
    PacketTracer t(16);
    t.record(5, TraceEvent::Inject, mk(0, 1, 0));
    t.record(9, TraceEvent::Deliver, mk(0, 1, 0));
    t.record(12, TraceEvent::Drop, mk(0, 2, 1));

    EXPECT_EQ(t.observed(), 3u);
    EXPECT_EQ(t.observed(TraceEvent::Inject), 1u);
    EXPECT_EQ(t.observed(TraceEvent::Drop), 1u);
    const auto snap = t.snapshot();
    ASSERT_EQ(snap.size(), 3u);
    EXPECT_EQ(snap[0].when, 5u);
    EXPECT_EQ(snap[2].event, TraceEvent::Drop);
}

TEST(Tracer, RingEvictsOldestButKeepsCounting)
{
    PacketTracer t(4);
    for (std::uint64_t i = 0; i < 10; ++i)
        t.record(i, TraceEvent::Inject, mk(0, 1, i));
    EXPECT_EQ(t.observed(), 10u);
    const auto snap = t.snapshot();
    ASSERT_EQ(snap.size(), 4u);
    EXPECT_EQ(snap.front().injectSeq, 6u); // oldest retained
    EXPECT_EQ(snap.back().injectSeq, 9u);
}

TEST(Tracer, CapacityZeroClampsToOneInsteadOfCrashing)
{
    // Regression: a zero-capacity ring used to be constructible and
    // record() would then index an empty vector.
    PacketTracer t(0);
    t.record(1, TraceEvent::Inject, mk(0, 1, 0));
    t.record(2, TraceEvent::Deliver, mk(0, 1, 0));
    EXPECT_EQ(t.observed(), 2u);
    const auto snap = t.snapshot();
    ASSERT_EQ(snap.size(), 1u);
    EXPECT_EQ(snap[0].when, 2u); // only the newest record retained
}

TEST(Tracer, ObserverSeesEveryRecordAndBridgesToTraceSession)
{
    PacketTracer t(4);
    std::uint64_t seen = 0;
    t.setObserver([&](const TraceRecord &) { ++seen; });
    for (std::uint64_t i = 0; i < 10; ++i)
        t.record(i, TraceEvent::Inject, mk(0, 1, i));
    EXPECT_EQ(seen, 10u); // evicted records were still observed

    // The bridge lands hardware events as instants on the session
    // timeline: injections on the source track, deliveries on the
    // destination track.
    TraceSession session;
    attachTraceBridge(t, session);
    t.record(20, TraceEvent::Inject, mk(2, 3, 7));
    t.record(25, TraceEvent::Deliver, mk(2, 3, 7));
    const auto recs = session.snapshot();
    ASSERT_EQ(recs.size(), 2u);
    EXPECT_EQ(recs[0].kind, TraceSession::Kind::Instant);
    EXPECT_STREQ(recs[0].cat, "hw");
    EXPECT_STREQ(recs[0].name, "inject");
    EXPECT_EQ(recs[0].node, 2u);
    EXPECT_EQ(recs[0].start, 20u);
    EXPECT_EQ(recs[1].node, 3u);
    EXPECT_EQ(recs[1].start, 25u);
}

TEST(Tracer, SelectAndDump)
{
    PacketTracer t(16);
    t.record(1, TraceEvent::Inject, mk(0, 1, 0));
    t.record(2, TraceEvent::Inject, mk(0, 2, 1));
    t.record(3, TraceEvent::Deliver, mk(0, 2, 1));
    const auto to2 = t.select(
        [](const TraceRecord &r) { return r.dst == 2; });
    EXPECT_EQ(to2.size(), 2u);
    const std::string dump = t.dump();
    EXPECT_NE(dump.find("inject"), std::string::npos);
    EXPECT_NE(dump.find("deliver"), std::string::npos);
    EXPECT_NE(dump.find("seq=1"), std::string::npos);
}

TEST(Tracer, ObservesWholeProtocolRun)
{
    Stack stack(StackConfig{});
    PacketTracer tracer;
    stack.network().setTracer(&tracer);

    FiniteXfer proto(stack);
    FiniteXferParams p;
    p.words = 16; // 4 data packets + req + reply + ack = 7 injections
    const auto res = proto.run(p);
    ASSERT_TRUE(res.dataOk);

    EXPECT_EQ(tracer.observed(TraceEvent::Inject), 7u);
    EXPECT_EQ(tracer.observed(TraceEvent::Deliver), 7u);
    EXPECT_EQ(tracer.observed(TraceEvent::Drop), 0u);

    // Event-level invariant: every delivery follows its injection.
    std::map<std::uint64_t, Tick> injected;
    for (const auto &rec : tracer.snapshot())
        if (rec.event == TraceEvent::Inject)
            injected[rec.injectSeq] = rec.when;
    for (const auto &rec : tracer.snapshot())
        if (rec.event == TraceEvent::Deliver) {
            ASSERT_TRUE(injected.count(rec.injectSeq));
            EXPECT_GT(rec.when, injected[rec.injectSeq]);
        }
}

TEST(Tracer, AccountsForEveryPacketUnderFaults)
{
    StackConfig cfg;
    cfg.nodes = 2;
    cfg.faults.dropRate = 0.1;
    cfg.faults.corruptRate = 0.05;
    cfg.faults.seed = 21;
    Stack stack(cfg);
    PacketTracer tracer;
    stack.network().setTracer(&tracer);

    StreamProtocol proto(stack);
    StreamParams p;
    p.words = 512;
    p.eventMode = true;
    p.retxTimeout = 600;
    p.maxRetx = 512;
    const auto res = proto.run(p);
    ASSERT_TRUE(res.dataOk);

    // Conservation: injections = deliveries + drops (corruptions are
    // delivered and then CRC-discarded at the NI).
    EXPECT_EQ(tracer.observed(TraceEvent::Inject),
              tracer.observed(TraceEvent::Deliver) +
                  tracer.observed(TraceEvent::Drop));
    EXPECT_GT(tracer.observed(TraceEvent::Drop), 0u);
}

TEST(Tracer, SeesCrHardwareRetries)
{
    Simulator sim;
    CrNetwork::Config cfg;
    cfg.nodes = 2;
    cfg.faults.dropRate = 0.5;
    cfg.faults.seed = 4;
    CrNetwork net(sim, cfg);
    PacketTracer tracer;
    net.setTracer(&tracer);
    net.attach(1, [](Packet &) { return true; });
    for (Word i = 0; i < 50; ++i)
        net.inject(Packet(0, 1, HwTag::StreamData, i, {1, 2, 3, 4}));
    sim.run();
    EXPECT_EQ(tracer.observed(TraceEvent::Deliver), 50u);
    EXPECT_GT(tracer.observed(TraceEvent::HwRetry), 10u);
    EXPECT_EQ(tracer.observed(TraceEvent::Drop), 0u);
}

TEST(Tracer, IsAPureObserver)
{
    // Attaching a tracer must not change a single instruction count.
    auto run = [](bool traced) {
        Stack stack(StackConfig{});
        PacketTracer tracer;
        if (traced)
            stack.network().setTracer(&tracer);
        FiniteXfer proto(stack);
        FiniteXferParams p;
        p.words = 64;
        return proto.run(p).counts.paperTotal();
    };
    EXPECT_EQ(run(false), run(true));
}

} // namespace
} // namespace msgsim
