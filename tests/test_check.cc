/**
 * @file
 * Tests of the schedule-space model checker (PR 4): controller
 * eligibility under both substrates, the gate acting on parked slots
 * (in place, ghost copies, nicam's handler table, release on
 * destruction), bounded-exhaustive exploration
 * with invariants holding, determinism of reports, the seeded
 * ack-before-insert stream bug being caught / shrunk / replayed
 * through its JSON counterexample end to end, tolerant replay of
 * stale schedules, and a small exploration of every scenario on
 * every fabric.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "check/explorer.hh"
#include "check/harness.hh"
#include "check/replay.hh"
#include "check/shrink.hh"
#include "cm5net/cm5_network.hh"
#include "nicam/nicam_network.hh"
#include "sim/event.hh"

namespace msgsim::check
{
namespace
{

ScenarioConfig
streamScenario(std::uint32_t packets = 3, int faults = 1)
{
    ScenarioConfig sc;
    sc.protocol = "stream";
    sc.packets = packets;
    sc.faults = faults;
    return sc;
}

// --- Controller eligibility ---------------------------------------

TEST(Controller, Cm5ExposesEveryPacketAndAllFaultKinds)
{
    ScenarioConfig sc = streamScenario();
    auto h = ScenarioHarness::make(sc);
    h->start();
    h->progress();
    // All three data packets are in flight and schedulable.
    ASSERT_EQ(h->controller().inFlight(), 3u);
    const auto en = h->controller().enabled(
        /*faultsLeft=*/1,
        kFaultDrop | kFaultCorrupt | kFaultDuplicate);
    // 3 packets x (deliver, drop, corrupt, duplicate).
    EXPECT_EQ(en.size(), 12u);
    // Canonical order: packet 0's choices first, Deliver leading.
    EXPECT_EQ(en[0].kind, ChoiceKind::Deliver);
    EXPECT_EQ(en[0].packetId, 0u);
    EXPECT_EQ(en[1].kind, ChoiceKind::Drop);

    // With the fault budget spent, only deliveries remain.
    const auto delivers = h->controller().enabled(0, 0xff);
    EXPECT_EQ(delivers.size(), 3u);
    for (const auto &c : delivers)
        EXPECT_EQ(c.kind, ChoiceKind::Deliver);
}

TEST(Controller, CrExposesOnlyFlowHeadsAndNoFaults)
{
    ScenarioConfig sc = streamScenario();
    sc.substrate = Substrate::Cr;
    auto h = ScenarioHarness::make(sc);
    h->start();
    h->progress();
    ASSERT_EQ(h->controller().inFlight(), 3u);
    // Reliable in-order substrate: the single 0->1 flow exposes only
    // its oldest packet, and no fault choices at all.
    const auto en = h->controller().enabled(
        /*faultsLeft=*/2,
        kFaultDrop | kFaultCorrupt | kFaultDuplicate);
    ASSERT_EQ(en.size(), 1u);
    EXPECT_EQ(en[0].kind, ChoiceKind::Deliver);
    EXPECT_EQ(en[0].packetId, 0u);
}

TEST(Controller, DuplicateClonesWithFreshId)
{
    ScenarioConfig sc = streamScenario();
    auto h = ScenarioHarness::make(sc);
    h->start();
    h->progress();
    const auto before = h->controller().inFlight();
    ASSERT_TRUE(h->controller().apply(
        {ChoiceKind::Duplicate, 1}));
    EXPECT_EQ(h->controller().inFlight(), before + 1);
    // The clone got the next fresh id; the original is untouched.
    const auto &pkts = h->controller().packets();
    EXPECT_EQ(pkts.back().id, 3u);
    const Network &net = h->controller().network();
    EXPECT_EQ(net.parked(pkts.back().slot).flowIndex,
              net.parked(pkts[1].slot).flowIndex);
    EXPECT_EQ(h->controller().network().stats().duplicated, 1u);

    // A stale choice (unknown id) is refused, not fatal.
    EXPECT_FALSE(h->controller().apply({ChoiceKind::Deliver, 99}));
}

// --- The gate holds slots -----------------------------------------

/** A bare 2-node fabric config (node 1 is the destination). */
template <typename Net>
typename Net::Config
twoNodes()
{
    typename Net::Config cfg;
    cfg.nodes = 2;
    return cfg;
}

TEST(Controller, DeliversACapturedPacketInPlace)
{
    // The gate holds the slot, not a copy: the sink is offered the
    // packet where it was parked when captured, as an engine offers
    // it (Network.RefusedPacketIsOfferedInPlace).
    Simulator sim;
    Cm5Network net(sim, twoNodes<Cm5Network>());
    ScheduleController ctl(net);
    const Packet *offered = nullptr;
    net.attach(1, [&offered](Packet &p) {
        offered = &p;
        return true;
    });
    ASSERT_TRUE(net.inject(Packet(0, 1, HwTag::UserAm, 7, {1, 2, 3, 4})));
    ASSERT_EQ(ctl.inFlight(), 1u);
    const Packet *captured = &net.parked(ctl.packets()[0].slot);
    EXPECT_EQ(captured->header, 7u);
    ASSERT_TRUE(ctl.apply({ChoiceKind::Deliver, 0}));
    EXPECT_EQ(offered, captured);
    EXPECT_EQ(ctl.inFlight(), 0u);
    EXPECT_EQ(net.stats().delivered, 1u);
}

TEST(Controller, DuplicateIsAGhostCopyInItsOwnSlot)
{
    Simulator sim;
    Cm5Network net(sim, twoNodes<Cm5Network>());
    ScheduleController ctl(net);
    int got = 0;
    net.attach(1, [&got](Packet &p) {
        EXPECT_TRUE(p.checksumOk());
        ++got;
        return true;
    });
    const Payload words{1, 2, 3, 4, 5, 6, 7, 8}; // spills to the heap
    ASSERT_TRUE(net.inject(Packet(0, 1, HwTag::XferData, 7, words)));
    ASSERT_TRUE(ctl.apply({ChoiceKind::Duplicate, 0}));
    ASSERT_EQ(ctl.inFlight(), 2u);
    const Packet &orig = net.parked(ctl.packets()[0].slot);
    const Packet &ghost = net.parked(ctl.packets()[1].slot);
    EXPECT_NE(&ghost, &orig);
    EXPECT_EQ(ghost.src, orig.src);
    EXPECT_EQ(ghost.dst, orig.dst);
    EXPECT_EQ(ghost.tag, orig.tag);
    EXPECT_EQ(ghost.vnet, orig.vnet);
    EXPECT_EQ(ghost.header, orig.header);
    EXPECT_EQ(ghost.injectSeq, orig.injectSeq);
    EXPECT_EQ(ghost.flowIndex, orig.flowIndex);
    EXPECT_EQ(ghost.data, words);
    EXPECT_EQ(orig.data, words);
    EXPECT_EQ(ghost.computeCrc(), orig.computeCrc());
    // The ghost is in flight too, until it is delivered.
    EXPECT_EQ(net.inFlightTo(1), 2u);
    ASSERT_TRUE(ctl.apply({ChoiceKind::Deliver, 1}));
    ASSERT_TRUE(ctl.apply({ChoiceKind::Deliver, 0}));
    EXPECT_EQ(got, 2);
    EXPECT_EQ(net.inFlightTo(1), 0u);
    EXPECT_EQ(net.stats().duplicated, 1u);
    EXPECT_EQ(net.stats().delivered, 2u);
}

TEST(Controller, GatedNicamDeliveryRunsTheNicHandlerTable)
{
    // A gated delivery takes the same way out as an engine's: a
    // packet whose selector hits the table is dispatched on the NIC
    // and never reaches the host sink; a miss falls back to it.
    Simulator sim;
    NicamNetwork net(sim, twoNodes<NicamNetwork>());
    ScheduleController ctl(net);
    int nicRuns = 0;
    std::vector<Word> hostGot;
    net.offloadHandler(1, HwTag::UserAm, 5,
                       [&nicRuns](const Packet &) { ++nicRuns; });
    net.attach(1, [&hostGot](Packet &p) {
        hostGot.push_back(p.header);
        return true;
    });
    ASSERT_TRUE(net.inject(
        Packet(0, 1, HwTag::UserAm, hdr::pack(5, 0), {1, 2, 3, 4})));
    ASSERT_TRUE(net.inject(
        Packet(0, 1, HwTag::UserAm, hdr::pack(6, 0), {5, 6, 7, 8})));
    ASSERT_TRUE(ctl.apply({ChoiceKind::Deliver, 0}));
    EXPECT_EQ(nicRuns, 1);
    EXPECT_TRUE(hostGot.empty());
    ASSERT_TRUE(ctl.apply({ChoiceKind::Deliver, 1}));
    EXPECT_EQ(nicRuns, 1);
    ASSERT_EQ(hostGot.size(), 1u);
    EXPECT_EQ(hdr::fieldA(hostGot[0]), 6u);
    EXPECT_EQ(net.offloadHits(), 1u);
    EXPECT_EQ(net.offloadMisses(), 1u);
    EXPECT_EQ(net.stats().delivered, 2u);
}

TEST(Controller, CorruptedNicamTableHitIsDroppedAtTheEdge)
{
    // The NIC's CRC check discards a corrupt packet that hits the
    // table before its handler runs: it is lost at the edge, so packet
    // conservation (injected + duplicated = delivered + dropped + in
    // flight) still holds.
    Simulator sim;
    NicamNetwork net(sim, twoNodes<NicamNetwork>());
    ScheduleController ctl(net);
    int nicRuns = 0;
    int hostGot = 0;
    net.offloadHandler(1, HwTag::UserAm, 5,
                       [&nicRuns](const Packet &) { ++nicRuns; });
    net.attach(1, [&hostGot](Packet &) {
        ++hostGot;
        return true;
    });
    ASSERT_TRUE(net.inject(
        Packet(0, 1, HwTag::UserAm, hdr::pack(5, 0), {1, 2, 3, 4})));
    ASSERT_TRUE(ctl.apply({ChoiceKind::Corrupt, 0}));
    EXPECT_EQ(nicRuns, 0);
    EXPECT_EQ(hostGot, 0);
    EXPECT_EQ(net.offloadCrcDrops(), 1u);
    const NetStats &st = net.stats();
    EXPECT_EQ(st.delivered, 0u);
    EXPECT_EQ(st.dropped, 1u);
    EXPECT_EQ(ctl.inFlight(), 0u);
    EXPECT_EQ(st.injected + st.duplicated,
              st.delivered + st.dropped + ctl.inFlight());
}

TEST(Controller, ReleasesHeldSlotsWhenDestroyed)
{
    Simulator sim;
    Cm5Network net(sim, twoNodes<Cm5Network>());
    net.attach(1, [](Packet &) { return true; });
    std::vector<Network::Slot> held;
    {
        ScheduleController ctl(net);
        for (Word i = 0; i < 2; ++i)
            ASSERT_TRUE(
                net.inject(Packet(0, 1, HwTag::UserAm, i, {1, 2, 3, 4})));
        ASSERT_EQ(ctl.inFlight(), 2u);
        for (const InFlight &f : ctl.packets())
            held.push_back(f.slot);
    }
    EXPECT_EQ(net.scheduleGate(), nullptr);
    // Both slots went back to the pool: the next stages reuse them.
    std::vector<Network::Slot> staged;
    for (int i = 0; i < 2; ++i)
        staged.push_back(net.stage(0, 1, HwTag::UserAm, 0, 0));
    std::sort(held.begin(), held.end());
    std::sort(staged.begin(), staged.end());
    EXPECT_EQ(staged, held);
}

// --- Exploration ---------------------------------------------------

TEST(Explorer, SinglePacketExhaustiveAndClean)
{
    ScenarioConfig sc;
    sc.protocol = "single_packet";
    sc.packets = 3;
    ExploreLimits lim;
    lim.depth = 12;
    CheckReport rep = Explorer(sc, lim).run();
    EXPECT_TRUE(rep.exhausted);
    EXPECT_EQ(rep.violations, 0u);
    // 3! fault-free orderings + 36 single-fault schedules.
    EXPECT_EQ(rep.schedulesRun, 42u);
}

TEST(Explorer, StreamExhaustiveAndClean)
{
    ExploreLimits lim;
    lim.depth = 8;
    lim.budget = 100000;
    CheckReport rep = Explorer(streamScenario(), lim).run();
    EXPECT_TRUE(rep.exhausted);
    EXPECT_EQ(rep.violations, 0u);
    EXPECT_GT(rep.schedulesRun, 1000u);
}

TEST(Explorer, StreamTwoFaultsExhaustiveAndClean)
{
    ExploreLimits lim;
    lim.depth = 5;
    lim.budget = 100000;
    CheckReport rep =
        Explorer(streamScenario(3, /*faults=*/2), lim).run();
    EXPECT_TRUE(rep.exhausted);
    EXPECT_EQ(rep.violations, 0u);
}

TEST(Explorer, SocketExhaustiveIncludingVerifiedTeardown)
{
    ScenarioConfig sc = streamScenario();
    sc.protocol = "socket";
    ExploreLimits lim;
    lim.depth = 6;
    lim.budget = 100000;
    CheckReport rep = Explorer(sc, lim).run();
    EXPECT_TRUE(rep.exhausted);
    EXPECT_EQ(rep.violations, 0u);
}

TEST(Explorer, RandomWalksStayClean)
{
    ExploreLimits lim;
    lim.depth = 0; // no DFS: walks only
    lim.walks = 200;
    lim.seed = 42;
    CheckReport rep = Explorer(streamScenario(), lim).run();
    EXPECT_EQ(rep.violations, 0u);
    EXPECT_EQ(rep.walkSchedules, 200u);
}

TEST(Explorer, ReportIsDeterministic)
{
    ExploreLimits lim;
    lim.depth = 6;
    lim.walks = 50;
    lim.seed = 7;
    const ScenarioConfig sc = streamScenario(3, 2);
    const std::string a = reportToJson(Explorer(sc, lim).run());
    const std::string b = reportToJson(Explorer(sc, lim).run());
    EXPECT_EQ(a, b); // byte-identical, the golden gate's contract
}

// --- The seeded bug: catch, shrink, serialize, replay --------------

TEST(Explorer, CatchesAckBeforeInsertBugEndToEnd)
{
    ScenarioConfig sc = streamScenario();
    sc.bugAckBeforeInsert = true;
    ExploreLimits lim;
    lim.depth = 8;
    Explorer explorer(sc, lim);

    CheckReport rep = explorer.run();
    ASSERT_EQ(rep.violations, 1u);
    EXPECT_EQ(rep.counterexample.invariant, "stalled");

    // Shrink: the minimal trigger is a single out-of-order delivery.
    Shrinker shrinker(explorer);
    const ShrinkResult shrunk = shrinker.shrink(rep.counterexample);
    ASSERT_EQ(shrunk.schedule.size(), 1u);
    EXPECT_EQ(shrunk.schedule[0].kind, ChoiceKind::Deliver);
    EXPECT_EQ(shrunk.schedule[0].packetId, 2u);
    EXPECT_TRUE(shrunk.result.violated);
    EXPECT_EQ(shrunk.result.invariant, "stalled");

    // Serialize the counterexample and round-trip it through JSON.
    Counterexample ce;
    ce.scenario = sc;
    ce.invariant = shrunk.result.invariant;
    ce.detail = shrunk.result.detail;
    ce.schedule = shrunk.schedule;
    const std::string text = counterexampleToJson(ce);

    Counterexample parsed;
    std::string error;
    ASSERT_TRUE(counterexampleFromJson(text, parsed, error)) << error;
    EXPECT_EQ(parsed.scenario.protocol, "stream");
    EXPECT_TRUE(parsed.scenario.bugAckBeforeInsert);
    EXPECT_EQ(parsed.invariant, "stalled");
    ASSERT_EQ(parsed.schedule.size(), 1u);
    EXPECT_EQ(parsed.schedule[0], ce.schedule[0]);

    // Replay the parsed counterexample: the violation reproduces.
    Explorer replayer(parsed.scenario, lim);
    const ScheduleResult res = replayer.replay(parsed.schedule);
    EXPECT_TRUE(res.violated);
    EXPECT_EQ(res.invariant, parsed.invariant);

    // And with the bug knob off, the same schedule passes.
    ScenarioConfig fixed = parsed.scenario;
    fixed.bugAckBeforeInsert = false;
    const ScheduleResult ok =
        Explorer(fixed, lim).replay(parsed.schedule);
    EXPECT_FALSE(ok.violated);
}

TEST(Explorer, ReplayToleratesStaleChoices)
{
    // A schedule full of junk ids: tolerant replay skips them and
    // the default policy completes the run cleanly.
    ExploreLimits lim;
    std::vector<Choice> junk = {{ChoiceKind::Deliver, 77},
                                {ChoiceKind::Drop, 88},
                                {ChoiceKind::Deliver, 1}};
    const ScheduleResult res =
        Explorer(streamScenario(), lim).replay(junk);
    EXPECT_FALSE(res.violated);
    // Only the one real choice (and defaults) actually executed —
    // and no fault fired, so every taken choice is a delivery.
    for (const Choice &c : res.schedule)
        EXPECT_EQ(c.kind, ChoiceKind::Deliver);
}

TEST(Explorer, FaultSchedulesExerciseRecovery)
{
    // Force a drop of the first data packet, then let the default
    // policy run: the kick-based retransmission must recover it.
    ExploreLimits lim;
    const ScheduleResult res = Explorer(streamScenario(), lim)
                                   .replay({{ChoiceKind::Drop, 0}});
    EXPECT_FALSE(res.violated) << res.invariant << ": " << res.detail;
}

// --- Every contract on every fabric --------------------------------

class Contracts
    : public ::testing::TestWithParam<std::tuple<std::string, Substrate>>
{
};

TEST_P(Contracts, SmallExplorationIsCleanAndDeterministic)
{
    ScenarioConfig sc;
    sc.protocol = std::get<0>(GetParam());
    sc.substrate = std::get<1>(GetParam());
    sc.packets = 2;
    sc.faults = 1;
    ExploreLimits lim;
    lim.depth = 6;
    lim.budget = 500;
    const CheckReport rep = Explorer(sc, lim).run();
    EXPECT_EQ(rep.violations, 0u) << rep.counterexample.invariant
                                  << ": " << rep.counterexample.detail;
    EXPECT_EQ(reportToJson(rep), reportToJson(Explorer(sc, lim).run()));
}

INSTANTIATE_TEST_SUITE_P(
    AllFabrics, Contracts,
    ::testing::Combine(::testing::ValuesIn(ScenarioHarness::protocols()),
                       ::testing::ValuesIn(allSubstrates)),
    [](const ::testing::TestParamInfo<Contracts::ParamType> &info) {
        return std::get<0>(info.param) + "_" +
               toString(std::get<1>(info.param));
    });

} // namespace
} // namespace msgsim::check
