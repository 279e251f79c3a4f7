/**
 * @file
 * Property tests: the analytic model of src/model (the paper's
 * Figure 8 generalization) must agree cell-for-cell with measured
 * simulator counts across sweeps of packet size, message size,
 * out-of-order fraction, and ack group size.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "model/analytic.hh"
#include "protocols/finite_xfer.hh"
#include "protocols/single_packet.hh"
#include "protocols/stream.hh"

namespace msgsim
{
namespace
{

/** Compare one role of a measured breakdown against the model. */
void
expectRoleMatches(const InstrCounter &got, const FeatureBreakdown &want,
                  Direction dir, const std::string &label)
{
    for (int f = 0; f < numPaperFeatures; ++f) {
        const auto feat = static_cast<Feature>(f);
        const CatCost &w = want.at(feat, dir);
        EXPECT_EQ(static_cast<double>(got.category(feat, Category::Reg)),
                  w.reg)
            << label << " " << toString(feat) << " reg "
            << toString(dir);
        EXPECT_EQ(static_cast<double>(got.category(feat, Category::Mem)),
                  w.mem)
            << label << " " << toString(feat) << " mem "
            << toString(dir);
        EXPECT_EQ(static_cast<double>(got.category(feat, Category::Dev)),
                  w.dev)
            << label << " " << toString(feat) << " dev "
            << toString(dir);
    }
}

struct SweepPoint
{
    int n;
    std::uint32_t words;
};

class ModelSweep : public ::testing::TestWithParam<SweepPoint>
{
};

TEST_P(ModelSweep, SinglePacket)
{
    const auto [n, words] = GetParam();
    (void)words;
    StackConfig cfg;
    cfg.nodes = 2;
    cfg.dataWords = n;
    Stack stack(cfg);
    const auto res = runSinglePacket(stack, {});
    ASSERT_TRUE(res.dataOk);
    const auto want = singlePacketModel(n);
    expectRoleMatches(res.counts.src, want, Direction::Source, "sp");
    expectRoleMatches(res.counts.dst, want, Direction::Destination,
                      "sp");
}

TEST_P(ModelSweep, CmamFinite)
{
    const auto [n, words] = GetParam();
    StackConfig cfg;
    cfg.nodes = 2;
    cfg.dataWords = n;
    Stack stack(cfg);
    FiniteXfer proto(stack);
    FiniteXferParams fp;
    fp.words = words;
    const auto res = proto.run(fp);
    ASSERT_TRUE(res.dataOk);

    ProtoParams pp;
    pp.n = n;
    pp.words = words;
    const auto want = cmamFiniteModel(pp);
    expectRoleMatches(res.counts.src, want, Direction::Source, "fin");
    expectRoleMatches(res.counts.dst, want, Direction::Destination,
                      "fin");
}

TEST_P(ModelSweep, CmamStreamHalfOoo)
{
    const auto [n, words] = GetParam();
    if (words / static_cast<std::uint32_t>(n) % 2 != 0)
        GTEST_SKIP() << "odd packet count: f != 1/2 exactly";
    StackConfig cfg;
    cfg.nodes = 2;
    cfg.dataWords = n;
    cfg.order = swapAdjacentFactory();
    Stack stack(cfg);
    StreamProtocol proto(stack);
    StreamParams sp;
    sp.words = words;
    const auto res = proto.run(sp);
    ASSERT_TRUE(res.dataOk);

    ProtoParams pp;
    pp.n = n;
    pp.words = words;
    pp.oooFraction = 0.5;
    const auto want = cmamStreamModel(pp);
    expectRoleMatches(res.counts.src, want, Direction::Source, "str");
    expectRoleMatches(res.counts.dst, want, Direction::Destination,
                      "str");
}

TEST_P(ModelSweep, CmamStreamFifo)
{
    const auto [n, words] = GetParam();
    StackConfig cfg;
    cfg.nodes = 2;
    cfg.dataWords = n;
    Stack stack(cfg);
    StreamProtocol proto(stack);
    StreamParams sp;
    sp.words = words;
    const auto res = proto.run(sp);
    ASSERT_TRUE(res.dataOk);

    ProtoParams pp;
    pp.n = n;
    pp.words = words;
    pp.oooFraction = 0.0;
    const auto want = cmamStreamModel(pp);
    expectRoleMatches(res.counts.src, want, Direction::Source, "strF");
    expectRoleMatches(res.counts.dst, want, Direction::Destination,
                      "strF");
}

TEST_P(ModelSweep, HlFinite)
{
    const auto [n, words] = GetParam();
    StackConfig cfg = stackConfigFor(HostLayer::Hl);
    cfg.nodes = 2;
    cfg.dataWords = n;
    Stack stack(cfg);
    FiniteXferParams hp;
    hp.words = words;
    const auto res = FiniteXfer(stack).run(hp);
    ASSERT_TRUE(res.dataOk);

    ProtoParams pp;
    pp.n = n;
    pp.words = words;
    const auto want = hlFiniteModel(pp);
    expectRoleMatches(res.counts.src, want, Direction::Source, "hlf");
    expectRoleMatches(res.counts.dst, want, Direction::Destination,
                      "hlf");
}

TEST_P(ModelSweep, HlStream)
{
    const auto [n, words] = GetParam();
    StackConfig cfg = stackConfigFor(HostLayer::Hl);
    cfg.nodes = 2;
    cfg.dataWords = n;
    Stack stack(cfg);
    StreamParams hp;
    hp.words = words;
    const auto res = StreamProtocol(stack).run(hp);
    ASSERT_TRUE(res.dataOk);

    ProtoParams pp;
    pp.n = n;
    pp.words = words;
    const auto want = hlStreamModel(pp);
    expectRoleMatches(res.counts.src, want, Direction::Source, "hls");
    expectRoleMatches(res.counts.dst, want, Direction::Destination,
                      "hls");
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ModelSweep,
    ::testing::Values(SweepPoint{4, 16}, SweepPoint{4, 64},
                      SweepPoint{4, 1024}, SweepPoint{8, 32},
                      SweepPoint{8, 512}, SweepPoint{16, 64},
                      SweepPoint{16, 1024}, SweepPoint{32, 128},
                      SweepPoint{64, 1024}, SweepPoint{128, 1024}));

struct GroupPoint
{
    std::uint32_t words;
    int g;
};

class GroupModelSweep : public ::testing::TestWithParam<GroupPoint>
{
};

TEST_P(GroupModelSweep, CmamStreamGroupAcks)
{
    const auto [words, g] = GetParam();
    StackConfig cfg;
    cfg.nodes = 2;
    cfg.order = swapAdjacentFactory();
    Stack stack(cfg);
    StreamProtocol proto(stack);
    StreamParams sp;
    sp.words = words;
    sp.groupAck = g;
    const auto res = proto.run(sp);
    ASSERT_TRUE(res.dataOk);

    ProtoParams pp;
    pp.words = words;
    pp.oooFraction = 0.5;
    pp.groupAck = g;
    const auto want = cmamStreamModel(pp);
    expectRoleMatches(res.counts.src, want, Direction::Source, "grp");
    expectRoleMatches(res.counts.dst, want, Direction::Destination,
                      "grp");
}

INSTANTIATE_TEST_SUITE_P(Grid, GroupModelSweep,
                         ::testing::Values(GroupPoint{64, 2},
                                           GroupPoint{64, 4},
                                           GroupPoint{256, 8},
                                           GroupPoint{1024, 16},
                                           GroupPoint{1024, 7}));

// --- Model self-checks against the paper's headline numbers --------

TEST(Model, PaperTotalsAtN4)
{
    ProtoParams p16;
    p16.words = 16;
    ProtoParams p1024;
    p1024.words = 1024;

    EXPECT_DOUBLE_EQ(cmamFiniteModel(p16).grandTotal(), 397.0);
    EXPECT_DOUBLE_EQ(cmamFiniteModel(p1024).grandTotal(), 11737.0);
    EXPECT_DOUBLE_EQ(cmamStreamModel(p16).grandTotal(), 481.0);
    EXPECT_DOUBLE_EQ(cmamStreamModel(p1024).grandTotal(), 29965.0);
    EXPECT_DOUBLE_EQ(singlePacketModel(4).grandTotal(), 47.0);
}

TEST(Model, OverheadFractions)
{
    // Abstract: 50-70% of software messaging cost is overhead.
    ProtoParams p;
    p.words = 1024;
    EXPECT_NEAR(cmamStreamModel(p).overheadFraction(), 0.709, 0.01);
    ProtoParams p16;
    p16.words = 16;
    EXPECT_GT(cmamFiniteModel(p16).overheadFraction(), 0.5);
    // Large finite transfers are the one exception (§3.3): ~12%.
    EXPECT_NEAR(cmamFiniteModel(p).overheadFraction(), 0.126, 0.01);
}

TEST(Model, Figure8FiniteOverheadDeclinesWithPacketSize)
{
    double prev = 1.0;
    for (int n : {4, 8, 16, 32, 64, 128}) {
        ProtoParams p;
        p.n = n;
        p.words = 1024;
        const double frac = cmamFiniteModel(p).overheadFraction();
        EXPECT_LT(frac, prev) << n;
        prev = frac;
    }
    // §5: "9-11% of the total cost" for finite at larger packets —
    // our generalization lands 6.5-13% across 4..128 with the same
    // shape.
    ProtoParams p;
    p.n = 128;
    p.words = 1024;
    EXPECT_GT(cmamFiniteModel(p).overheadFraction(), 0.05);
    EXPECT_LT(cmamFiniteModel(p).overheadFraction(), 0.13);
}

TEST(Model, Figure8StreamOverheadStaysSignificant)
{
    // §5: "messaging overhead for indefinite-sequence multi-packet
    // delivery remains significant over the range of packet sizes."
    for (int n : {4, 8, 16, 32, 64, 128}) {
        ProtoParams p;
        p.n = n;
        p.words = 1024;
        EXPECT_GT(cmamStreamModel(p).overheadFraction(), 0.5) << n;
    }
}

TEST(Model, WeightedCyclesAmplifyDevCosts)
{
    ProtoParams p;
    p.words = 16;
    const auto bd = cmamFiniteModel(p);
    const double unit = bd.weightedTotal(CostModel::unit());
    const double cm5 = bd.weightedTotal(CostModel::cm5());
    EXPECT_DOUBLE_EQ(unit, bd.grandTotal());
    EXPECT_GT(cm5, unit);
}

TEST(Model, ImprovementHelper)
{
    ProtoParams p;
    p.words = 1024;
    const double imp =
        hlImprovement(cmamStreamModel(p), hlStreamModel(p));
    EXPECT_NEAR(imp, 0.70, 0.02);
}

} // namespace
} // namespace msgsim
