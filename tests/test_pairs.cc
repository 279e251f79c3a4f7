/**
 * @file
 * One engine per protocol on every (fabric, host layer) pair:
 * FiniteXfer and StreamProtocol run on each pair in stackPairs, in
 * settled and event mode, and a transfer also step by step, the way
 * the model checker drives it.
 */

#include <gtest/gtest.h>

#include <string>

#include "protocols/finite_xfer.hh"
#include "protocols/stream.hh"

namespace msgsim
{
namespace
{

class PairEngines : public ::testing::TestWithParam<StackPair>
{
  protected:
    StackConfig
    config() const
    {
        StackConfig cfg;
        cfg.substrate = GetParam().substrate;
        cfg.layer = GetParam().layer;
        return cfg;
    }
};

TEST_P(PairEngines, FiniteXferRunsSettledAndEventMode)
{
    Stack stack(config());
    FiniteXfer fx(stack);
    for (const bool eventMode : {false, true}) {
        FiniteXferParams p;
        p.words = 64;
        p.eventMode = eventMode;
        const RunResult res = fx.run(p);
        EXPECT_TRUE(res.dataOk) << eventMode;
        EXPECT_EQ(res.packets, 16u) << eventMode;
    }
    EXPECT_TRUE(stack.sim().idle()); // no timer outlives a run
}

TEST_P(PairEngines, FiniteXferRunsStepwise)
{
    Stack stack(config());
    FiniteXfer fx(stack);
    FiniteXferParams p;
    p.words = 64;
    const Word tid = fx.beginTransfer(p);
    // A trusting layer has nothing to restart: the hardware recovers.
    if (stack.provided().acceptanceIndependent) {
        EXPECT_FALSE(fx.restartTransfer(tid));
    }
    for (int round = 0; round < 8 && !fx.transferComplete(tid); ++round)
        stack.pollPending();
    ASSERT_TRUE(fx.transferComplete(tid));
    EXPECT_TRUE(fx.transferDataOk(tid));
    EXPECT_EQ(fx.transferRestarts(tid), 0);
    EXPECT_EQ(stack.pollPending(), 0u); // everything taken in
}

TEST_P(PairEngines, StreamRunsSettledAndEventMode)
{
    Stack stack(config());
    StreamProtocol sp(stack);
    for (const bool eventMode : {false, true}) {
        StreamParams p;
        p.words = 64;
        p.eventMode = eventMode;
        const RunResult res = sp.run(p);
        EXPECT_TRUE(res.dataOk) << eventMode;
        EXPECT_EQ(res.packets, 16u) << eventMode;
    }
    EXPECT_TRUE(stack.sim().idle());
}

INSTANTIATE_TEST_SUITE_P(
    AllPairs, PairEngines, ::testing::ValuesIn(stackPairs),
    [](const ::testing::TestParamInfo<StackPair> &info) {
        return std::string(toString(info.param.substrate)) + "_" +
               toString(info.param.layer);
    });

} // namespace
} // namespace msgsim
