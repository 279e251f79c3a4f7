/**
 * @file
 * Functional tests of the high-level-features layer (CMAM trusting
 * CR): no-handshake transfers, hardware-order streams, CR header
 * rejection with hardware retransmission, and hardware fault
 * correction.
 */

#include <gtest/gtest.h>

#include <string>

#include "protocols/finite_xfer.hh"
#include "protocols/stream.hh"
#include "sim/log.hh"

namespace msgsim
{
namespace
{

TEST(HlFinite, IntegrityAcrossSizes)
{
    for (std::uint32_t words : {4u, 16u, 64u, 1024u}) {
        StackConfig cfg = stackConfigFor(HostLayer::Hl);
        Stack stack(cfg);
        FiniteXferParams p;
        p.words = words;
        const auto res = FiniteXfer(stack).run(p);
        EXPECT_TRUE(res.dataOk) << words;
    }
}

TEST(HlFinite, NoHandshakeNoAckNoOrderingCosts)
{
    StackConfig cfg = stackConfigFor(HostLayer::Hl);
    Stack stack(cfg);
    FiniteXferParams p;
    p.words = 64;
    const auto res = FiniteXfer(stack).run(p);
    ASSERT_TRUE(res.dataOk);
    // Source: pure base cost — not a single instruction of buffer
    // management, sequencing, or fault tolerance.
    EXPECT_EQ(res.counts.src.featureTotal(Feature::BufferMgmt), 0u);
    EXPECT_EQ(res.counts.src.featureTotal(Feature::InOrderDelivery), 0u);
    EXPECT_EQ(res.counts.src.featureTotal(Feature::FaultTolerance), 0u);
    // Destination: only the 13-instruction buffer-table insert.
    EXPECT_EQ(res.counts.dst.featureTotal(Feature::BufferMgmt), 13u);
    EXPECT_EQ(res.counts.dst.featureTotal(Feature::InOrderDelivery), 0u);
    EXPECT_EQ(res.counts.dst.featureTotal(Feature::FaultTolerance), 0u);
}

TEST(HlFinite, SurvivesHeavyFaultsViaHardwareRetry)
{
    StackConfig cfg = stackConfigFor(HostLayer::Hl);
    cfg.faults.dropRate = 0.2;
    cfg.faults.corruptRate = 0.1;
    cfg.faults.seed = 31;
    Stack stack(cfg);
    FiniteXferParams p;
    p.words = 256;
    const auto res = FiniteXfer(stack).run(p);
    EXPECT_TRUE(res.dataOk);
    EXPECT_GT(stack.machine().network().stats().hwRetries, 0u);
    // Software never paid for any of it.
    EXPECT_EQ(res.counts.src.featureTotal(Feature::FaultTolerance), 0u);
    EXPECT_EQ(res.counts.dst.featureTotal(Feature::FaultTolerance), 0u);
}

TEST(HlFinite, HeaderRejectionDefersStalledTransfer)
{
    // Fill the segment table; the CR network must park the header
    // packet (hardware retransmission) until a slot frees — no
    // deadlock, no software involvement at the source.
    StackConfig cfg = stackConfigFor(HostLayer::Hl);
    cfg.maxSegments = 1;
    Stack stack(cfg);

    Node &src = stack.node(0);
    Node &dst = stack.node(1);
    const Addr sbuf = src.mem().alloc(8);
    const Addr dbuf1 = dst.mem().alloc(8);
    const Addr dbuf2 = dst.mem().alloc(8);
    for (Word i = 0; i < 8; ++i)
        src.mem().write(sbuf + i, 40 + i);

    int done = 0;
    stack.cmam(1).postTransfer(51, dbuf1, [&](Word) { ++done; });
    stack.cmam(1).postTransfer(52, dbuf2, [&](Word) { ++done; });

    // First transfer occupies the only slot by arriving but not being
    // polled yet; second transfer's header must be rejected.
    stack.cmam(0).xferSend(1, 51, sbuf, 8);
    stack.settle();
    stack.cmam(1).poll(); // transfer 51 completes, slot frees
    EXPECT_EQ(done, 1);

    stack.cmam(0).xferSend(1, 52, sbuf, 8);
    stack.settle();
    stack.cmam(1).poll();
    EXPECT_EQ(done, 2);
    for (Word i = 0; i < 8; ++i)
        EXPECT_EQ(dst.mem().read(dbuf2 + i), 40 + i);
}

TEST(HlFinite, ConcurrentHeadersWithRejection)
{
    // Two transfers in flight with a one-segment table: the CR hardware
    // serializes them by rejecting the second header until the first
    // completes.  Event mode drives polls from arrivals.
    StackConfig cfg = stackConfigFor(HostLayer::Hl);
    cfg.maxSegments = 1;
    Stack stack(cfg);

    Node &src = stack.node(0);
    Node &dst = stack.node(1);
    const Addr sbuf = src.mem().alloc(16);
    const Addr dbuf1 = dst.mem().alloc(8);
    const Addr dbuf2 = dst.mem().alloc(8);
    for (Word i = 0; i < 16; ++i)
        src.mem().write(sbuf + i, 80 + i);

    int done = 0;
    stack.cmam(1).postTransfer(61, dbuf1, [&](Word) { ++done; });
    stack.cmam(1).postTransfer(62, dbuf2, [&](Word) { ++done; });

    // Start transfer 61 and poll only its first packet, so the single
    // table slot is occupied by a transfer in progress.
    stack.cmam(0).xferSend(1, 61, sbuf, 8);
    stack.sim().runUntil([&dst] { return dst.ni().hwRecvPending(); },
                         1'000'000);
    stack.cmam(1).poll();
    EXPECT_EQ(stack.cmam(1).segments().allocatedCount(), 1);

    // Transfer 62's header packet must now be rejected in hardware
    // and parked for retransmission — the source stays oblivious.
    stack.cmam(0).xferSend(1, 62, sbuf + 8, 8);
    stack.sim().runUntil(
        [&stack] {
            return stack.machine().network().stats().deliveryRetries >
                   0;
        },
        1'000'000);
    EXPECT_GT(stack.machine().network().stats().deliveryRetries, 0u);
    EXPECT_GT(dst.ni().acceptRefusals(), 0u);

    // Finishing transfer 61 frees the slot; the hardware retry then
    // lands transfer 62 in order.
    stack.cmam(1).poll();
    EXPECT_EQ(done, 1);
    stack.settle();
    stack.cmam(1).poll();
    EXPECT_EQ(done, 2);
    for (Word i = 0; i < 8; ++i) {
        EXPECT_EQ(dst.mem().read(dbuf1 + i), 80 + i);
        EXPECT_EQ(dst.mem().read(dbuf2 + i), 88 + i);
    }
}

TEST(HlStream, OrderedWithoutAnySoftwareHelp)
{
    StackConfig cfg = stackConfigFor(HostLayer::Hl);
    Stack stack(cfg);
    StreamParams p;
    p.words = 256;
    const auto res = StreamProtocol(stack).run(p);
    ASSERT_TRUE(res.dataOk); // order verified by content comparison
    EXPECT_EQ(res.counts.src.featureTotal(Feature::InOrderDelivery), 0u);
    EXPECT_EQ(res.counts.dst.featureTotal(Feature::InOrderDelivery), 0u);
    EXPECT_EQ(res.counts.src.featureTotal(Feature::FaultTolerance), 0u);
    EXPECT_EQ(res.counts.dst.featureTotal(Feature::FaultTolerance), 0u);
}

TEST(HlStream, OrderedEvenUnderFaults)
{
    StackConfig cfg = stackConfigFor(HostLayer::Hl);
    cfg.faults.dropRate = 0.15;
    cfg.faults.corruptRate = 0.1;
    cfg.faults.seed = 77;
    Stack stack(cfg);
    StreamParams p;
    p.words = 512;
    const auto res = StreamProtocol(stack).run(p);
    EXPECT_TRUE(res.dataOk);
    EXPECT_GT(stack.machine().network().stats().hwRetries, 0u);
}

TEST(HlStream, RejectsVolumeNotMultipleOfPacket)
{
    log_detail::throwOnError = true;
    Stack stack(stackConfigFor(HostLayer::Hl));
    StreamParams p;
    p.words = 6;
    EXPECT_THROW(StreamProtocol(stack).run(p), log_detail::SimError);
    log_detail::throwOnError = false;
}

TEST(HlStream, DispatchOpsMatchCmamStream)
{
    // Both layers run the same receive loop over the same NI: the
    // dispatch mirror counts the same instructions for a 64-word
    // calibration stream (poll entry, status reads, tag dispatch,
    // handler linkage, back-edges).
    Stack cm5(StackConfig{});
    StreamProtocol proto(cm5);
    StreamParams sp;
    sp.words = 64;
    ASSERT_TRUE(proto.run(sp).dataOk);

    Stack hl(stackConfigFor(HostLayer::Hl));
    StreamParams hp;
    hp.words = 64;
    ASSERT_TRUE(StreamProtocol(hl).run(hp).dataOk);

    EXPECT_EQ(cm5.dispatchOps(1), hl.dispatchOps(1));
    EXPECT_EQ(hl.dispatchOps(1), 189u);
}

TEST(HlStream, PersistentChannelDeliversByClose)
{
    // No acks on the hl layer: flushing waits for delivery itself.
    Stack stack(stackConfigFor(HostLayer::Hl));
    StreamProtocol proto(stack);
    std::vector<Word> got;
    std::vector<std::uint32_t> seqs;
    const Word chan = proto.openPersistent(
        0, 1, 1, 4,
        [&](std::uint32_t seq, const std::vector<Word> &words) {
            seqs.push_back(seq);
            got.insert(got.end(), words.begin(), words.end());
        });
    std::vector<Word> sent(64);
    for (std::size_t i = 0; i < sent.size(); ++i)
        sent[i] = static_cast<Word>(1000 + i);
    proto.sendOn(chan, sent);
    EXPECT_EQ(proto.channelUnacked(chan), 0u);
    proto.closePersistent(chan);
    EXPECT_EQ(got, sent);
    ASSERT_EQ(seqs.size(), 16u);
    EXPECT_EQ(seqs.back(), 15u);
    EXPECT_EQ(proto.totals().acksSent, 0u);
    EXPECT_FALSE(proto.channelOpen(chan));
}

TEST(HlStream, ChannelsCarveNoNodeMemory)
{
    // The fabric orders and delivers, so an hl channel has no
    // sequence words, retransmission ring or reorder arena to carve.
    Stack stack(stackConfigFor(HostLayer::Hl));
    const Memory &src = stack.node(0).mem();
    const Memory &dst = stack.node(1).mem();
    const std::size_t srcBefore = src.allocated();
    const std::size_t dstBefore = dst.allocated();
    StreamProtocol proto(stack);
    StreamParams p;
    p.words = 1024;
    ASSERT_TRUE(proto.run(p).dataOk);
    const Word chan = proto.openPersistent(0, 1, 1, 64, nullptr);
    proto.sendOn(chan, std::vector<Word>(256, 7));
    proto.closePersistent(chan);
    EXPECT_EQ(src.allocated(), srcBefore);
    EXPECT_EQ(dst.allocated(), dstBefore);

    // CMAM carves them: a 256-packet channel holds two sequence words
    // and a 257-packet ring at the source, and a 258-slot arena of
    // (seq, link, 4 words) plus three list words at the destination.
    Stack cm5(StackConfig{});
    const std::size_t cmSrcBefore = cm5.node(0).mem().allocated();
    const std::size_t cmDstBefore = cm5.node(1).mem().allocated();
    StreamProtocol cmam(cm5);
    ASSERT_TRUE(cmam.run(p).dataOk);
    EXPECT_EQ(cm5.node(0).mem().allocated() - cmSrcBefore, 1030u);
    EXPECT_EQ(cm5.node(1).mem().allocated() - cmDstBefore, 1551u);
}

TEST(HlStream, EventModeDelivers)
{
    StackConfig cfg = stackConfigFor(HostLayer::Hl);
    Stack stack(cfg);
    StreamParams p;
    p.words = 128;
    p.eventMode = true;
    const auto res = StreamProtocol(stack).run(p);
    EXPECT_TRUE(res.dataOk);
}

TEST(HlFinite, EventModeDelivers)
{
    StackConfig cfg = stackConfigFor(HostLayer::Hl);
    Stack stack(cfg);
    FiniteXferParams p;
    p.words = 128;
    p.eventMode = true;
    const auto res = FiniteXfer(stack).run(p);
    EXPECT_TRUE(res.dataOk);
}

TEST(HlFinite, StepwiseTransferNeedsNoHandshake)
{
    // The checker's stepwise API on the hl layer: beginTransfer posts
    // the buffer and sends the data, so one settled poll round
    // completes the transfer.
    Stack stack(stackConfigFor(HostLayer::Hl));
    FiniteXfer fx(stack);
    FiniteXferParams p;
    p.words = 64;
    const Word tid = fx.beginTransfer(p);
    stack.pollPending();
    EXPECT_TRUE(fx.transferComplete(tid));
    EXPECT_TRUE(fx.transferDataOk(tid));
    EXPECT_EQ(fx.activeDstSegments(), 0u);
    EXPECT_EQ(stack.cmam(1).segments().allocatedCount(), 0);
    // Recovery is the fabric's: there is nothing to restart.
    EXPECT_FALSE(fx.restartTransfer(tid));
    EXPECT_EQ(fx.transferRestarts(tid), 0);
}

TEST(HlFinite, OneEngineRunsMoreTransfersThanTheIdField)
{
    // A posted transfer's id rides in the 8-bit header field.
    Stack stack(stackConfigFor(HostLayer::Hl));
    FiniteXfer fx(stack);
    FiniteXferParams p;
    p.words = 4;
    for (int i = 0; i < 300; ++i)
        ASSERT_TRUE(fx.run(p).dataOk) << i;
}

TEST(HlFinite, RepeatedRunsStopGrowingNodeMemory)
{
    // One engine, transfer after transfer: a completed run's buffers
    // serve the next run of the same shape, on every pair alike (so
    // verbs connects one queue pair, and offload's transfer ids and
    // NIC-table entries are given back as each transfer lands).
    for (const StackPair &pair : stackPairs) {
        const std::string name = std::string(toString(pair.substrate)) +
                                 "/" + toString(pair.layer);
        StackConfig cfg;
        cfg.substrate = pair.substrate;
        cfg.layer = pair.layer;
        cfg.nodes = 2;
        Stack stack(cfg);
        FiniteXfer fx(stack);
        FiniteXferParams p;
        p.words = 1024;
        ASSERT_TRUE(fx.run(p).dataOk);
        const std::size_t src = stack.node(0).mem().allocated();
        const std::size_t dst = stack.node(1).mem().allocated();
        for (int i = 1; i < 2000; ++i)
            ASSERT_TRUE(fx.run(p).dataOk) << name << " " << i;
        EXPECT_EQ(stack.node(0).mem().allocated(), src) << name;
        EXPECT_EQ(stack.node(1).mem().allocated(), dst) << name;
    }
}

TEST(HlFinite, Figure6ImprovementShape)
{
    // Figure 6 left: 10-50% improvement based on message size —
    // large for small messages (handshake dominates), ~10-15% for
    // 1024 words.
    auto cmamTotal = [](std::uint32_t words) {
        const std::uint64_t p = words / 4;
        return (77 + 24 * p) + (140 + 21 * p);
    };
    StackConfig cfg = stackConfigFor(HostLayer::Hl);
    Stack small(cfg), big(cfg);
    FiniteXferParams ps;
    ps.words = 16;
    const auto rs = FiniteXfer(small).run(ps);
    FiniteXferParams pb;
    pb.words = 1024;
    const auto rb = FiniteXfer(big).run(pb);

    const double imp_small =
        1.0 - static_cast<double>(rs.counts.paperTotal()) /
                  static_cast<double>(cmamTotal(16));
    const double imp_big =
        1.0 - static_cast<double>(rb.counts.paperTotal()) /
                  static_cast<double>(cmamTotal(1024));
    EXPECT_GT(imp_small, 0.45);
    EXPECT_GT(imp_big, 0.10);
    EXPECT_LT(imp_big, 0.20);
    EXPECT_GT(imp_small, imp_big);
}

} // namespace
} // namespace msgsim
