/**
 * @file
 * Calibration tests: the simulator must reproduce the paper's
 * Tables 1, 2 and 3 cell-for-cell at n = 4 (see DESIGN.md 2.1 for
 * the derivation of the per-cell targets, all of which are exact
 * fits of the published numbers).
 */

#include <gtest/gtest.h>

#include "hlam/hl_stack.hh"
#include "protocols/finite_xfer.hh"
#include "protocols/single_packet.hh"
#include "protocols/stream.hh"

namespace msgsim
{
namespace
{

StackConfig
cm5Config()
{
    StackConfig cfg;
    cfg.substrate = Substrate::Cm5;
    cfg.nodes = 4;
    cfg.dataWords = 4;
    return cfg;
}

std::uint64_t
cat(const InstrCounter &c, Feature f, Category k)
{
    return c.category(f, k);
}

// ------------------------------------------------------------------
// Table 1: single-packet delivery, row by row.
// ------------------------------------------------------------------

TEST(Table1, SinglePacketRowBreakdown)
{
    Stack stack(cm5Config());
    const auto res = runSinglePacket(stack, {});
    ASSERT_TRUE(res.dataOk);

    auto srow = [&](CostRow r) {
        return res.srcRows[static_cast<std::size_t>(r)];
    };
    auto drow = [&](CostRow r) {
        return res.dstRows[static_cast<std::size_t>(r)];
    };

    // Source column.
    EXPECT_EQ(srow(CostRow::CallReturn), 3u);
    EXPECT_EQ(srow(CostRow::NiSetup), 5u);
    EXPECT_EQ(srow(CostRow::WriteNi), 2u);
    EXPECT_EQ(srow(CostRow::ReadNi), 0u);
    EXPECT_EQ(srow(CostRow::CheckStatus), 7u);
    EXPECT_EQ(srow(CostRow::ControlFlow), 3u);
    EXPECT_EQ(res.counts.src.paperTotal(), 20u);

    // Destination column.
    EXPECT_EQ(drow(CostRow::CallReturn), 10u);
    EXPECT_EQ(drow(CostRow::NiSetup), 0u);
    EXPECT_EQ(drow(CostRow::WriteNi), 0u);
    EXPECT_EQ(drow(CostRow::ReadNi), 3u);
    EXPECT_EQ(drow(CostRow::CheckStatus), 12u);
    EXPECT_EQ(drow(CostRow::ControlFlow), 2u);
    EXPECT_EQ(res.counts.dst.paperTotal(), 27u);
}

TEST(Table1, IdenticalOnCrSubstrate)
{
    // Section 4.1: "the costs ... are identical to the CMAM case"
    // because the NI is the same.
    StackConfig cfg = cm5Config();
    cfg.substrate = Substrate::Cr;
    Stack stack(cfg);
    const auto res = runSinglePacket(stack, {});
    ASSERT_TRUE(res.dataOk);
    EXPECT_EQ(res.counts.src.paperTotal(), 20u);
    EXPECT_EQ(res.counts.dst.paperTotal(), 27u);
}

// ------------------------------------------------------------------
// Table 2 + Table 3: finite-sequence, multi-packet delivery.
// ------------------------------------------------------------------

// Table rows hold only 64-bit fields: gtest names each case by the raw
// bytes of its parameter, and padding after a narrower field would put
// uninitialised (address-dependent) bytes into the test name.
struct FiniteCase
{
    std::uint64_t words;
    // Feature totals [src, dst]: base, buf, ord, ft; grand totals.
    std::uint64_t base_s, base_d, buf_s, buf_d, ord_s, ord_d, ft_s,
        ft_d, tot_s, tot_d;
};

class FiniteTable : public ::testing::TestWithParam<FiniteCase>
{
};

TEST_P(FiniteTable, FeatureTotalsMatchPaper)
{
    const auto &c = GetParam();
    Stack stack(cm5Config());
    FiniteXfer proto(stack);
    FiniteXferParams params;
    params.words = c.words;
    const auto res = proto.run(params);
    ASSERT_TRUE(res.dataOk);

    const auto &s = res.counts.src;
    const auto &d = res.counts.dst;
    EXPECT_EQ(s.featureTotal(Feature::BaseCost), c.base_s);
    EXPECT_EQ(d.featureTotal(Feature::BaseCost), c.base_d);
    EXPECT_EQ(s.featureTotal(Feature::BufferMgmt), c.buf_s);
    EXPECT_EQ(d.featureTotal(Feature::BufferMgmt), c.buf_d);
    EXPECT_EQ(s.featureTotal(Feature::InOrderDelivery), c.ord_s);
    EXPECT_EQ(d.featureTotal(Feature::InOrderDelivery), c.ord_d);
    EXPECT_EQ(s.featureTotal(Feature::FaultTolerance), c.ft_s);
    EXPECT_EQ(d.featureTotal(Feature::FaultTolerance), c.ft_d);
    EXPECT_EQ(s.paperTotal(), c.tot_s);
    EXPECT_EQ(d.paperTotal(), c.tot_d);
}

INSTANTIATE_TEST_SUITE_P(
    Paper, FiniteTable,
    ::testing::Values(
        // 16 words (Table 3 sums; see DESIGN.md on the 285/397 note).
        FiniteCase{16, 91, 90, 47, 101, 8, 13, 27, 20, 173, 224},
        // 1024 words (Table 2 as printed).
        FiniteCase{1024, 5635, 4626, 47, 101, 512, 769, 27, 20, 6221,
                   5516}));

TEST(Table3, FiniteCategoryCells16Words)
{
    Stack stack(cm5Config());
    FiniteXfer proto(stack);
    const auto res = proto.run({});
    ASSERT_TRUE(res.dataOk);
    const auto &s = res.counts.src;
    const auto &d = res.counts.dst;

    using enum Category;
    // Source: reg/mem/dev per feature.
    EXPECT_EQ(cat(s, Feature::BaseCost, Reg), 62u);
    EXPECT_EQ(cat(s, Feature::BaseCost, Mem), 9u);
    EXPECT_EQ(cat(s, Feature::BaseCost, Dev), 20u);
    EXPECT_EQ(cat(s, Feature::BufferMgmt, Reg), 36u);
    EXPECT_EQ(cat(s, Feature::BufferMgmt, Mem), 1u);
    EXPECT_EQ(cat(s, Feature::BufferMgmt, Dev), 10u);
    EXPECT_EQ(cat(s, Feature::InOrderDelivery, Reg), 8u);
    EXPECT_EQ(cat(s, Feature::InOrderDelivery, Mem), 0u);
    EXPECT_EQ(cat(s, Feature::FaultTolerance, Reg), 22u);
    EXPECT_EQ(cat(s, Feature::FaultTolerance, Dev), 5u);
    EXPECT_EQ(s.categoryTotal(Reg), 128u);
    EXPECT_EQ(s.categoryTotal(Mem), 10u);
    EXPECT_EQ(s.categoryTotal(Dev), 35u);

    // Destination.
    EXPECT_EQ(cat(d, Feature::BaseCost, Reg), 62u);
    EXPECT_EQ(cat(d, Feature::BaseCost, Mem), 11u);
    EXPECT_EQ(cat(d, Feature::BaseCost, Dev), 17u);
    EXPECT_EQ(cat(d, Feature::BufferMgmt, Reg), 79u);
    EXPECT_EQ(cat(d, Feature::BufferMgmt, Mem), 12u);
    EXPECT_EQ(cat(d, Feature::BufferMgmt, Dev), 10u);
    EXPECT_EQ(cat(d, Feature::InOrderDelivery, Reg), 13u);
    EXPECT_EQ(cat(d, Feature::FaultTolerance, Reg), 14u);
    EXPECT_EQ(cat(d, Feature::FaultTolerance, Mem), 1u);
    EXPECT_EQ(cat(d, Feature::FaultTolerance, Dev), 5u);
    EXPECT_EQ(d.categoryTotal(Reg), 168u);
    EXPECT_EQ(d.categoryTotal(Mem), 24u);
    EXPECT_EQ(d.categoryTotal(Dev), 32u);
}

TEST(Table3, FiniteCategoryCells1024Words)
{
    Stack stack(cm5Config());
    FiniteXfer proto(stack);
    FiniteXferParams p;
    p.words = 1024;
    const auto res = proto.run(p);
    ASSERT_TRUE(res.dataOk);
    const auto &s = res.counts.src;
    const auto &d = res.counts.dst;

    using enum Category;
    EXPECT_EQ(cat(s, Feature::BaseCost, Reg), 3842u);
    EXPECT_EQ(cat(s, Feature::BaseCost, Mem), 513u);
    EXPECT_EQ(cat(s, Feature::BaseCost, Dev), 1280u);
    EXPECT_EQ(cat(s, Feature::InOrderDelivery, Reg), 512u);
    EXPECT_EQ(s.categoryTotal(Reg), 4412u);
    EXPECT_EQ(s.categoryTotal(Mem), 514u);
    EXPECT_EQ(s.categoryTotal(Dev), 1295u);

    EXPECT_EQ(cat(d, Feature::BaseCost, Reg), 3086u);
    EXPECT_EQ(cat(d, Feature::BaseCost, Mem), 515u);
    EXPECT_EQ(cat(d, Feature::BaseCost, Dev), 1025u);
    EXPECT_EQ(cat(d, Feature::InOrderDelivery, Reg), 769u);
    EXPECT_EQ(d.categoryTotal(Reg), 3948u);
    EXPECT_EQ(d.categoryTotal(Mem), 528u);
    EXPECT_EQ(d.categoryTotal(Dev), 1040u);
}

// ------------------------------------------------------------------
// Table 2 + Table 3: indefinite-sequence, multi-packet delivery.
// Measurement condition: exactly half the packets arrive out of
// order (SwapAdjacent policy), per-packet acknowledgements.
// ------------------------------------------------------------------

StackConfig
cm5SwapConfig()
{
    StackConfig cfg = cm5Config();
    cfg.order = swapAdjacentFactory();
    return cfg;
}

struct StreamCase
{
    std::uint64_t words; // 64-bit for padding-free names; see FiniteCase.
    std::uint64_t base_s, base_d, ord_s, ord_d, ft_s, ft_d, tot_s,
        tot_d;
};

class StreamTable : public ::testing::TestWithParam<StreamCase>
{
};

TEST_P(StreamTable, FeatureTotalsMatchPaper)
{
    const auto &c = GetParam();
    Stack stack(cm5SwapConfig());
    StreamProtocol proto(stack);
    StreamParams params;
    params.words = c.words;
    const auto res = proto.run(params);
    ASSERT_TRUE(res.dataOk);
    // The measurement condition held: exactly half out of order.
    EXPECT_EQ(res.oooArrivals, res.packets / 2);

    const auto &s = res.counts.src;
    const auto &d = res.counts.dst;
    EXPECT_EQ(s.featureTotal(Feature::BaseCost), c.base_s);
    EXPECT_EQ(d.featureTotal(Feature::BaseCost), c.base_d);
    EXPECT_EQ(s.featureTotal(Feature::BufferMgmt), 0u);
    EXPECT_EQ(d.featureTotal(Feature::BufferMgmt), 0u);
    EXPECT_EQ(s.featureTotal(Feature::InOrderDelivery), c.ord_s);
    EXPECT_EQ(d.featureTotal(Feature::InOrderDelivery), c.ord_d);
    EXPECT_EQ(s.featureTotal(Feature::FaultTolerance), c.ft_s);
    EXPECT_EQ(d.featureTotal(Feature::FaultTolerance), c.ft_d);
    EXPECT_EQ(s.paperTotal(), c.tot_s);
    EXPECT_EQ(d.paperTotal(), c.tot_d);
}

INSTANTIATE_TEST_SUITE_P(
    Paper, StreamTable,
    ::testing::Values(
        // 16 words (Table 2 as printed: totals 216 / 265 / 481).
        StreamCase{16, 80, 69, 20, 116, 116, 80, 216, 265},
        // 1024 words (Table 2: totals 13824 / 16141 / 29965).
        StreamCase{1024, 5120, 3597, 1280, 7424, 7424, 5120, 13824,
                   16141}));

TEST(Table3, StreamCategoryCells1024Words)
{
    Stack stack(cm5SwapConfig());
    StreamProtocol proto(stack);
    StreamParams p;
    p.words = 1024;
    const auto res = proto.run(p);
    ASSERT_TRUE(res.dataOk);
    const auto &s = res.counts.src;
    const auto &d = res.counts.dst;

    using enum Category;
    EXPECT_EQ(cat(s, Feature::BaseCost, Reg), 3584u);
    EXPECT_EQ(cat(s, Feature::BaseCost, Mem), 256u);
    EXPECT_EQ(cat(s, Feature::BaseCost, Dev), 1280u);
    EXPECT_EQ(cat(s, Feature::InOrderDelivery, Reg), 512u);
    EXPECT_EQ(cat(s, Feature::InOrderDelivery, Mem), 768u);
    EXPECT_EQ(cat(s, Feature::FaultTolerance, Reg), 5632u);
    EXPECT_EQ(cat(s, Feature::FaultTolerance, Mem), 512u);
    EXPECT_EQ(cat(s, Feature::FaultTolerance, Dev), 1280u);
    EXPECT_EQ(s.categoryTotal(Reg), 9728u);
    EXPECT_EQ(s.categoryTotal(Mem), 1536u);
    EXPECT_EQ(s.categoryTotal(Dev), 2560u);

    EXPECT_EQ(cat(d, Feature::BaseCost, Reg), 2572u);
    EXPECT_EQ(cat(d, Feature::BaseCost, Mem), 0u);
    EXPECT_EQ(cat(d, Feature::BaseCost, Dev), 1025u);
    EXPECT_EQ(cat(d, Feature::InOrderDelivery, Reg), 4480u);
    EXPECT_EQ(cat(d, Feature::InOrderDelivery, Mem), 2944u);
    EXPECT_EQ(cat(d, Feature::FaultTolerance, Reg), 3584u);
    EXPECT_EQ(cat(d, Feature::FaultTolerance, Mem), 256u);
    EXPECT_EQ(cat(d, Feature::FaultTolerance, Dev), 1280u);
    EXPECT_EQ(d.categoryTotal(Reg), 10636u);
    EXPECT_EQ(d.categoryTotal(Mem), 3200u);
    EXPECT_EQ(d.categoryTotal(Dev), 2305u);
}

// ------------------------------------------------------------------
// Section 4.1: the high-level-features implementations reduce to the
// base cost.
// ------------------------------------------------------------------

TEST(HighLevel, FiniteReducesToBaseCost)
{
    HlStackConfig cfg;
    HlStack stack(cfg);
    HlXferParams p;
    p.words = 1024;
    const auto res = runHlFinite(stack, p);
    ASSERT_TRUE(res.dataOk);
    const auto &s = res.counts.src;
    const auto &d = res.counts.dst;

    // Source: exactly the CMAM base cost (3 + 22p = 5635).
    EXPECT_EQ(s.paperTotal(), 5635u);
    EXPECT_EQ(s.featureTotal(Feature::BaseCost), 5635u);
    // Destination: slightly below the CMAM base (one reg fewer per
    // packet) plus the negligible buffer-table insert.
    EXPECT_EQ(d.featureTotal(Feature::BaseCost), 4626u - 256u);
    EXPECT_EQ(d.featureTotal(Feature::BufferMgmt), 13u);
    EXPECT_EQ(d.featureTotal(Feature::InOrderDelivery), 0u);
    EXPECT_EQ(d.featureTotal(Feature::FaultTolerance), 0u);
}

TEST(HighLevel, StreamIsPureBaseCost)
{
    HlStackConfig cfg;
    HlStack stack(cfg);
    HlStreamParams p;
    p.words = 1024;
    const auto res = runHlStream(stack, p);
    ASSERT_TRUE(res.dataOk);
    const auto &s = res.counts.src;
    const auto &d = res.counts.dst;
    EXPECT_EQ(s.paperTotal(), 5120u);          // 20p
    EXPECT_EQ(d.paperTotal(), 13u + 14u * 256u); // 13 + 14p
    EXPECT_EQ(s.featureTotal(Feature::BaseCost), s.paperTotal());
    EXPECT_EQ(d.featureTotal(Feature::BaseCost), d.paperTotal());
}

TEST(HighLevel, SeventyPercentReductionForStreams)
{
    // Section 4.1: "the higher-level network features reduce the
    // software costs in the messaging layer by ~70%", independent of
    // message size.
    for (std::uint32_t words : {16u, 64u, 256u, 1024u}) {
        Stack cm5(cm5SwapConfig());
        StreamProtocol proto(cm5);
        StreamParams sp;
        sp.words = words;
        const auto base = proto.run(sp);

        HlStackConfig cfg;
        HlStack hl(cfg);
        HlStreamParams hp;
        hp.words = words;
        const auto better = runHlStream(hl, hp);

        const double reduction =
            1.0 - static_cast<double>(better.counts.paperTotal()) /
                      static_cast<double>(base.counts.paperTotal());
        EXPECT_GT(reduction, 0.65) << "words=" << words;
        EXPECT_LT(reduction, 0.75) << "words=" << words;
    }
}

} // namespace
} // namespace msgsim
