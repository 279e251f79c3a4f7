/**
 * @file
 * Whole-system integration tests: many nodes, mixed protocols,
 * randomized AM workloads, concurrent transfers, and both
 * substrates under one roof.
 */

#include <gtest/gtest.h>

#include <map>

#include "protocols/finite_xfer.hh"
#include "protocols/single_packet.hh"
#include "protocols/stream.hh"
#include "sim/rng.hh"

namespace msgsim
{
namespace
{

TEST(Integration, RandomAmWorkloadAcross16Nodes)
{
    StackConfig cfg;
    cfg.nodes = 16;
    cfg.maxJitter = 20;
    cfg.seed = 2024;
    Stack stack(cfg);

    // Every node registers an accumulator handler; messages carry
    // (sender, value); we check global sums.
    std::map<NodeId, std::uint64_t> received_sum;
    std::vector<int> handler_ids(16);
    for (NodeId i = 0; i < 16; ++i)
        handler_ids[i] = stack.cmam(i).registerHandler(
            [&received_sum, i](NodeId, const std::vector<Word> &args) {
                received_sum[i] += args[1];
            });

    Rng rng(555);
    std::uint64_t expected_total = 0;
    for (int k = 0; k < 500; ++k) {
        const NodeId s = static_cast<NodeId>(rng.below(16));
        NodeId d = static_cast<NodeId>(rng.below(16));
        if (d == s)
            d = (d + 1) % 16;
        const Word v = static_cast<Word>(rng.below(1000));
        expected_total += v;
        stack.cmam(s).am4(d, handler_ids[d], {s, v});
    }
    stack.settle();
    for (NodeId i = 0; i < 16; ++i)
        stack.cmam(i).poll();

    std::uint64_t got_total = 0;
    for (const auto &[node, sum] : received_sum)
        got_total += sum;
    EXPECT_EQ(got_total, expected_total);
}

TEST(Integration, ConcurrentFiniteTransfersManyPairs)
{
    StackConfig cfg;
    cfg.nodes = 8;
    Stack stack(cfg);
    FiniteXfer proto(stack);

    // Ring of transfers: i -> (i+1) % 8, sequenced through the
    // calibration driver one at a time but sharing all state tables.
    for (NodeId i = 0; i < 8; ++i) {
        FiniteXferParams p;
        p.src = i;
        p.dst = (i + 1) % 8;
        p.words = 64 + 4 * i;
        p.fillSeed = 1000 + i;
        const auto res = proto.run(p);
        EXPECT_TRUE(res.dataOk) << "pair " << i;
    }
}

TEST(Integration, InterleavedEventModeTransfers)
{
    // Two finite transfers in opposite directions, event mode, on a
    // jittery network — their control traffic interleaves on the
    // same CMAM layers.
    StackConfig cfg;
    cfg.nodes = 4;
    cfg.maxJitter = 15;
    Stack stack(cfg);
    FiniteXfer proto(stack);

    FiniteXferParams a;
    a.src = 0;
    a.dst = 1;
    a.words = 64;
    a.eventMode = true;
    const auto ra = proto.run(a);
    EXPECT_TRUE(ra.dataOk);

    FiniteXferParams b;
    b.src = 1;
    b.dst = 0;
    b.words = 128;
    b.eventMode = true;
    const auto rb = proto.run(b);
    EXPECT_TRUE(rb.dataOk);
}

TEST(Integration, StreamsAndTransfersShareAStack)
{
    StackConfig cfg;
    cfg.nodes = 4;
    cfg.order = swapAdjacentFactory();
    Stack stack(cfg);
    FiniteXfer fin(stack);
    StreamProtocol str(stack);

    FiniteXferParams fp;
    fp.words = 64;
    EXPECT_TRUE(fin.run(fp).dataOk);

    StreamParams sp;
    sp.words = 128;
    EXPECT_TRUE(str.run(sp).dataOk);

    fp.words = 256;
    fp.src = 2;
    fp.dst = 3;
    EXPECT_TRUE(fin.run(fp).dataOk);
}

TEST(Integration, SubstrateComparisonEndToEnd)
{
    // The paper's bottom line, end to end on live simulations: the
    // same logical workload costs far less software on the CR
    // substrate.
    const std::uint32_t words = 512;

    StackConfig cfg;
    cfg.nodes = 2;
    cfg.order = swapAdjacentFactory();
    Stack cm5(cfg);
    StreamProtocol proto(cm5);
    StreamParams sp;
    sp.words = words;
    const auto r_cm5 = proto.run(sp);
    ASSERT_TRUE(r_cm5.dataOk);

    StackConfig hcfg = stackConfigFor(HostLayer::Hl);
    hcfg.nodes = 2;
    Stack hl(hcfg);
    StreamParams hp;
    hp.words = words;
    const auto r_hl = StreamProtocol(hl).run(hp);
    ASSERT_TRUE(r_hl.dataOk);

    EXPECT_LT(r_hl.counts.paperTotal() * 2,
              r_cm5.counts.paperTotal());
}

TEST(Integration, BigMachineManyStreams)
{
    StackConfig cfg;
    cfg.nodes = 32;
    cfg.maxJitter = 10;
    Stack stack(cfg);
    StreamProtocol proto(stack);
    for (int k = 0; k < 8; ++k) {
        StreamParams p;
        p.src = static_cast<NodeId>(k);
        p.dst = static_cast<NodeId>(31 - k);
        p.words = 64;
        p.fillSeed = static_cast<std::uint64_t>(k) + 1;
        EXPECT_TRUE(proto.run(p).dataOk) << k;
    }
}

TEST(Integration, LargeTransferStressCalibration)
{
    Stack stack(StackConfig{});
    FiniteXfer proto(stack);
    FiniteXferParams p;
    p.words = 65536; // 16K packets
    const auto res = proto.run(p);
    ASSERT_TRUE(res.dataOk);
    // Linear cost law holds at scale.
    EXPECT_EQ(res.counts.src.paperTotal(), 77u + 24u * 16384u);
    EXPECT_EQ(res.counts.dst.paperTotal(), 140u + 21u * 16384u);
}

} // namespace
} // namespace msgsim
