/**
 * @file
 * Behavioural tests of the two routing engines: the CM-5-like
 * network really delivers out of order, backpressures, and only
 * *detects* faults; the CR network really delivers in order, rejects
 * and retries in hardware, and corrects faults invisibly.  nicam
 * runs the first engine and rdma the second.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <ostream>
#include <vector>

#include "cm5net/cm5_network.hh"
#include "crnet/cr_network.hh"
#include "nicam/nicam_network.hh"
#include "protocols/stack.hh"
#include "rdmanet/rdma_network.hh"
#include "sim/event.hh"

namespace msgsim
{
namespace
{

Packet
mkPacket(NodeId src, NodeId dst, Word tagval)
{
    return Packet(src, dst, HwTag::StreamData, tagval,
                  {tagval, tagval + 1, tagval + 2, tagval + 3});
}

TEST(Cm5Network, DeliversAllPacketsFifoByDefault)
{
    Simulator sim;
    Cm5Network::Config cfg;
    cfg.nodes = 4;
    Cm5Network net(sim, cfg);

    std::vector<Word> got;
    net.attach(1, [&](Packet &p) {
        got.push_back(p.header);
        return true;
    });
    for (Word i = 0; i < 20; ++i)
        EXPECT_TRUE(net.inject(mkPacket(0, 1, i)));
    sim.run();
    ASSERT_EQ(got.size(), 20u);
    for (Word i = 0; i < 20; ++i)
        EXPECT_EQ(got[i], i);
    EXPECT_EQ(net.stats().injected, 20u);
    EXPECT_EQ(net.stats().delivered, 20u);
}

TEST(Cm5Network, JitterProducesGenuineReordering)
{
    Simulator sim;
    Cm5Network::Config cfg;
    cfg.nodes = 16;
    cfg.maxJitter = 50;
    cfg.seed = 7;
    Cm5Network net(sim, cfg);

    std::vector<Word> got;
    net.attach(5, [&](Packet &p) {
        got.push_back(p.header);
        return true;
    });
    for (Word i = 0; i < 200; ++i)
        EXPECT_TRUE(net.inject(mkPacket(0, 5, i)));
    sim.run();
    ASSERT_EQ(got.size(), 200u);
    int inversions = 0;
    for (std::size_t i = 1; i < got.size(); ++i)
        inversions += got[i] < got[i - 1];
    EXPECT_GT(inversions, 10); // arbitrary delivery order, for real
}

TEST(Cm5Network, SwapAdjacentPolicyScramblesDeterministically)
{
    Simulator sim;
    Cm5Network::Config cfg;
    cfg.nodes = 4;
    cfg.orderFactory = swapAdjacentFactory();
    Cm5Network net(sim, cfg);

    std::vector<Word> got;
    net.attach(2, [&](Packet &p) {
        got.push_back(p.header);
        return true;
    });
    for (Word i = 0; i < 6; ++i)
        net.inject(mkPacket(0, 2, i));
    sim.run();
    EXPECT_EQ(got, (std::vector<Word>{1, 0, 3, 2, 5, 4}));
}

TEST(Cm5Network, BackpressureRetriesUntilSinkAccepts)
{
    Simulator sim;
    Cm5Network::Config cfg;
    cfg.nodes = 4;
    Cm5Network net(sim, cfg);

    int refusals_left = 3;
    std::vector<Word> got;
    net.attach(1, [&](Packet &p) {
        if (refusals_left > 0) {
            --refusals_left;
            return false;
        }
        got.push_back(p.header);
        return true;
    });
    net.inject(mkPacket(0, 1, 42));
    sim.run();
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0], 42u);
    EXPECT_EQ(net.stats().deliveryRetries, 3u);
}

TEST(Cm5Network, DropsAreSilent)
{
    Simulator sim;
    Cm5Network::Config cfg;
    cfg.nodes = 4;
    Cm5Network net(sim, cfg);
    net.faults().scriptDrop(0);

    int delivered = 0;
    net.attach(1, [&](Packet &) {
        ++delivered;
        return true;
    });
    net.inject(mkPacket(0, 1, 1));
    net.inject(mkPacket(0, 1, 2));
    sim.run();
    EXPECT_EQ(delivered, 1);
    EXPECT_EQ(net.stats().dropped, 1u);
}

TEST(Cm5Network, CorruptionTravelsToSink)
{
    // Detection happens at the NI, not inside the network: a
    // corrupted packet is still delivered, with a failing checksum.
    Simulator sim;
    Cm5Network::Config cfg;
    cfg.nodes = 4;
    Cm5Network net(sim, cfg);
    net.faults().scriptCorrupt(0);

    bool saw_bad = false;
    net.attach(1, [&](Packet &p) {
        saw_bad = !p.checksumOk();
        return true;
    });
    net.inject(mkPacket(0, 1, 9));
    sim.run();
    EXPECT_TRUE(saw_bad);
    EXPECT_EQ(net.stats().corrupted, 1u);
}

TEST(Cm5Network, InjectBusyRefusesAtInjection)
{
    Simulator sim;
    Cm5Network::Config cfg;
    cfg.nodes = 4;
    cfg.injectBusyRate = 1.0;
    Cm5Network net(sim, cfg);
    net.attach(1, [](Packet &) { return true; });
    EXPECT_FALSE(net.inject(mkPacket(0, 1, 0)));
    EXPECT_EQ(net.stats().injected, 0u);
}

TEST(Cm5Network, FartherNodesTakeLonger)
{
    Simulator sim;
    Cm5Network::Config cfg;
    cfg.nodes = 16;
    Cm5Network net(sim, cfg);

    std::map<NodeId, Tick> arrival;
    for (NodeId d : {1u, 4u}) {
        net.attach(d, [&, d](Packet &) {
            arrival[d] = sim.now();
            return true;
        });
        net.inject(mkPacket(0, d, 0));
    }
    sim.run();
    // Node 1 shares a leaf switch with node 0; node 4 needs an extra
    // level.
    EXPECT_LT(arrival[1], arrival[4]);
}

// --- CR network ----------------------------------------------------

TEST(CrNetwork, InOrderAlways)
{
    Simulator sim;
    CrNetwork::Config cfg;
    cfg.nodes = 16;
    CrNetwork net(sim, cfg);

    std::vector<Word> got;
    net.attach(3, [&](Packet &p) {
        got.push_back(p.header);
        return true;
    });
    for (Word i = 0; i < 100; ++i)
        net.inject(mkPacket(0, 3, i));
    sim.run();
    ASSERT_EQ(got.size(), 100u);
    for (Word i = 0; i < 100; ++i)
        EXPECT_EQ(got[i], i);
}

TEST(CrNetwork, FaultsAreCorrectedInHardware)
{
    Simulator sim;
    CrNetwork::Config cfg;
    cfg.nodes = 4;
    cfg.faults.dropRate = 0.3;
    cfg.faults.corruptRate = 0.2;
    cfg.faults.seed = 5;
    CrNetwork net(sim, cfg);

    std::vector<Word> got;
    int bad = 0;
    net.attach(1, [&](Packet &p) {
        got.push_back(p.header);
        bad += !p.checksumOk();
        return true;
    });
    for (Word i = 0; i < 200; ++i)
        net.inject(mkPacket(0, 1, i));
    sim.run();
    ASSERT_EQ(got.size(), 200u); // reliable delivery
    EXPECT_EQ(bad, 0);           // never corrupted to software
    EXPECT_GT(net.stats().hwRetries, 0u); // the hardware worked for it
    for (Word i = 0; i < 200; ++i)
        EXPECT_EQ(got[i], i); // order preserved across retries
}

TEST(CrNetwork, RejectionRetriesPreserveOrder)
{
    Simulator sim;
    CrNetwork::Config cfg;
    cfg.nodes = 4;
    CrNetwork net(sim, cfg);

    // The sink rejects the FIRST packet three times; later packets
    // must still arrive after it.
    int refusals_left = 3;
    std::vector<Word> got;
    net.attach(1, [&](Packet &p) {
        if (p.header == 0 && refusals_left > 0) {
            --refusals_left;
            return false;
        }
        got.push_back(p.header);
        return true;
    });
    for (Word i = 0; i < 5; ++i)
        net.inject(mkPacket(0, 1, i));
    sim.run();
    EXPECT_EQ(got, (std::vector<Word>{0, 1, 2, 3, 4}));
    EXPECT_EQ(net.stats().deliveryRetries, 3u);
}

TEST(CrNetwork, IndependentFlowsDontBlockEachOther)
{
    Simulator sim;
    CrNetwork::Config cfg;
    cfg.nodes = 4;
    CrNetwork net(sim, cfg);

    std::vector<std::pair<NodeId, Word>> got;
    bool reject0 = true;
    net.attach(1, [&](Packet &p) {
        if (p.src == 0 && reject0)
            return false; // flow 0->1 stuck
        got.emplace_back(p.src, p.header);
        return true;
    });
    net.inject(mkPacket(0, 1, 100));
    net.inject(mkPacket(2, 1, 200));
    sim.runUntil([&] { return !got.empty(); });
    ASSERT_FALSE(got.empty());
    EXPECT_EQ(got[0].first, 2u); // the other flow progressed
    reject0 = false;
    sim.run();
    ASSERT_EQ(got.size(), 2u);
}

TEST(CrNetwork, PacketsBehindARejectedHeadAddNoRetries)
{
    // One reject-retry per flow: packets that arrive behind a
    // rejected head wait for its retry instead of each starting
    // another, so the train's length does not change the retries.
    const auto retriesFor = [](Word packets) {
        Simulator sim;
        CrNetwork::Config cfg;
        cfg.nodes = 2;
        cfg.injectGap = 3; // arrivals 3 ticks apart
        CrNetwork net(sim, cfg);
        std::vector<Word> got;
        net.attach(1, [&](Packet &p) {
            if (sim.now() < 2000)
                return false;
            got.push_back(p.header);
            return true;
        });
        for (Word i = 0; i < packets; ++i)
            EXPECT_TRUE(net.inject(mkPacket(0, 1, i)));
        sim.run();
        EXPECT_EQ(got.size(), packets);
        EXPECT_TRUE(std::is_sorted(got.begin(), got.end()));
        return net.stats().deliveryRetries;
    };
    const std::uint64_t one = retriesFor(1);
    EXPECT_GT(one, 100u);
    EXPECT_EQ(retriesFor(8), one);
}

TEST(CrNetwork, RefusingSinkIsOfferedTheSamePacketAgain)
{
    // The sink contract: a sink that refuses leaves the packet
    // intact, so the fabric re-offers it without having kept a copy.
    Simulator sim;
    CrNetwork::Config cfg;
    cfg.nodes = 4;
    CrNetwork net(sim, cfg);

    std::vector<Packet> offers;
    Packet accepted;
    net.attach(1, [&](Packet &p) {
        offers.push_back(p);
        if (offers.size() == 1)
            return false;
        accepted = std::move(p);
        return true;
    });
    const Payload words{1, 2, 3, 4, 5, 6, 7, 8}; // spills to the heap
    net.inject(Packet(0, 1, HwTag::XferData, 7, words));
    sim.run();
    ASSERT_EQ(offers.size(), 2u);
    EXPECT_EQ(offers[1].data, words);
    EXPECT_EQ(offers[1].header, offers[0].header);
    EXPECT_EQ(offers[1].crc, offers[0].crc);
    EXPECT_TRUE(offers[1].checksumOk());
    EXPECT_EQ(accepted.data, words);
    EXPECT_EQ(net.stats().deliveryRetries, 1u);
}

TEST(Network, GhostCopyCountsAsInFlight)
{
    Simulator sim;
    Cm5Network::Config cfg;
    cfg.nodes = 2;
    Cm5Network net(sim, cfg);
    net.faults().scriptDuplicate(0);
    int got = 0;
    net.attach(1, [&got](Packet &) {
        ++got;
        return true;
    });
    ASSERT_TRUE(net.inject(mkPacket(0, 1, 0)));
    EXPECT_EQ(net.stats().duplicated, 1u);
    EXPECT_EQ(net.inFlightTo(1), 2u); // the packet and its ghost
    sim.run();
    EXPECT_EQ(got, 2);
    EXPECT_EQ(net.inFlightTo(1), 0u);
    ASSERT_TRUE(net.inject(mkPacket(0, 1, 1)));
    EXPECT_EQ(net.inFlightTo(1), 1u);
    sim.run();
    EXPECT_EQ(net.inFlightTo(1), 0u);
    EXPECT_EQ(net.deliveredTo(1), 3u);
}

TEST(Network, RefusedPacketIsOfferedInPlace)
{
    // A refused packet stays parked: every substrate offers the same
    // packet object again, not a moved copy, and it is intact when the
    // sink finally accepts it.
    const Payload words{1, 2, 3, 4, 5, 6, 7, 8}; // spills to the heap
    for (const Substrate sub : allSubstrates) {
        SCOPED_TRACE(toString(sub));
        StackConfig cfg;
        cfg.substrate = sub;
        cfg.nodes = 2;
        Stack stack(cfg);
        Network &net = stack.network();
        std::vector<const Packet *> offers;
        Payload accepted;
        net.attach(1, [&](Packet &p) {
            offers.push_back(&p);
            if (offers.size() < 3)
                return false;
            EXPECT_TRUE(p.checksumOk());
            accepted = std::move(p.data);
            return true;
        });
        ASSERT_TRUE(net.inject(Packet(0, 1, HwTag::XferData, 7, words)));
        stack.sim().run();
        ASSERT_EQ(offers.size(), 3u);
        EXPECT_EQ(offers[1], offers[0]);
        EXPECT_EQ(offers[2], offers[0]);
        EXPECT_EQ(accepted, words);
        EXPECT_EQ(net.stats().deliveryRetries, 2u);
        EXPECT_EQ(net.stats().delivered, 1u);
    }
}

TEST(CrNetwork, AcceptPredicateRefusalDeliversBitIdenticalPayload)
{
    for (Substrate sub : {Substrate::Cr, Substrate::Rdma}) {
        StackConfig cfg;
        cfg.substrate = sub;
        cfg.nodes = 2;
        Stack stack(cfg);
        int offers = 0;
        stack.node(1).ni().setAcceptFn(
            [&offers](const Packet &) { return offers++ > 0; });
        const std::vector<Word> args = {0xdeadbeefu, 0x01234567u,
                                        0x89abcdefu, 0xfeedfaceu};
        std::vector<Word> got;
        const int h = stack.cmam(1).registerHandler(
            [&got](NodeId, const std::vector<Word> &a) { got = a; });

        stack.cmam(0).am4(1, h, args);
        stack.settle();
        stack.cmam(1).poll();

        EXPECT_EQ(offers, 2) << toString(sub);
        EXPECT_EQ(stack.node(1).ni().acceptRefusals(), 1u);
        EXPECT_EQ(stack.network().stats().deliveryRetries, 1u);
        EXPECT_EQ(got, args) << toString(sub);
    }
}

// --- One engine per pair of substrates ------------------------------

/** One delivery as its sink saw it. */
struct Seen
{
    NodeId src;
    NodeId dst;
    Word header;
    Tick at;
    bool intact;

    bool operator==(const Seen &) const = default;
};

void
PrintTo(const Seen &s, std::ostream *os)
{
    *os << s.src << "->" << s.dst << " #" << s.header << " @" << s.at
        << (s.intact ? "" : " corrupt");
}

/** A train's deliveries in order, and what the fabric counted. */
struct TrainRun
{
    std::vector<Seen> seen;
    NetStats stats;
    int busy = 0;   ///< injections the port refused
    int offers = 0; ///< sink offers, refused ones included
};

/**
 * Four sources send 160 packets to nodes 5 and 6, one every 3 ticks;
 * the sinks refuse every fourth offer.
 */
TrainRun
runTrain(Simulator &sim, Network &net)
{
    TrainRun run;
    for (NodeId d : {5u, 6u})
        net.attach(d, [&run, &sim](Packet &p) {
            if (++run.offers % 4 == 0)
                return false;
            run.seen.push_back(
                {p.src, p.dst, p.header, sim.now(), p.checksumOk()});
            return true;
        });
    for (Word i = 0; i < 160; ++i)
        sim.schedule(3 * i, [&net, &run, i] {
            if (!net.inject(mkPacket(i % 4, 5 + (i / 4) % 2, i)))
                ++run.busy;
        });
    sim.run();
    run.stats = net.stats();
    return run;
}

void
expectSameRun(const TrainRun &a, const TrainRun &b)
{
    EXPECT_EQ(a.seen, b.seen);
    EXPECT_EQ(a.busy, b.busy);
    EXPECT_EQ(a.offers, b.offers);
    EXPECT_EQ(a.stats.injected, b.stats.injected);
    EXPECT_EQ(a.stats.delivered, b.stats.delivered);
    EXPECT_EQ(a.stats.dropped, b.stats.dropped);
    EXPECT_EQ(a.stats.corrupted, b.stats.corrupted);
    EXPECT_EQ(a.stats.duplicated, b.stats.duplicated);
    EXPECT_EQ(a.stats.deliveryRetries, b.stats.deliveryRetries);
    EXPECT_EQ(a.stats.hwRetries, b.stats.hwRetries);
}

/** Jitter, adjacent swaps, a busy port and one fault of each kind. */
template <class Net>
TrainRun
unorderedTrain()
{
    Simulator sim;
    typename Net::Config cfg;
    cfg.nodes = 8;
    cfg.maxJitter = 20;
    cfg.injectBusyRate = 0.1;
    cfg.seed = 29;
    cfg.orderFactory = swapAdjacentFactory();
    Net net(sim, cfg);
    net.faults().scriptDrop(7);
    net.faults().scriptCorrupt(19);
    net.faults().scriptDuplicate(33);
    return runTrain(sim, net);
}

/** Random faults, all retried in hardware, over a gapped link. */
template <class Net>
TrainRun
orderedTrain()
{
    Simulator sim;
    typename Net::Config cfg;
    cfg.nodes = 8;
    cfg.injectGap = 1;
    cfg.faults.dropRate = 0.2;
    cfg.faults.corruptRate = 0.1;
    cfg.faults.duplicateRate = 0.05;
    cfg.faults.seed = 13;
    Net net(sim, cfg);
    return runTrain(sim, net);
}

TEST(Network, EachPairOfSubstratesRunsOneEngine)
{
    // nicam with an empty handler table is the CM-5 fabric, and rdma
    // is the CR fabric: the same seeded train gives the same
    // deliveries at the same ticks and the same counters.
    const TrainRun cm5 = unorderedTrain<Cm5Network>();
    EXPECT_GT(cm5.busy, 0);
    EXPECT_EQ(cm5.stats.dropped, 1u);
    EXPECT_EQ(cm5.stats.corrupted, 1u);
    EXPECT_EQ(cm5.stats.duplicated, 1u);
    EXPECT_GT(cm5.stats.deliveryRetries, 0u);
    EXPECT_FALSE(std::is_sorted(
        cm5.seen.begin(), cm5.seen.end(),
        [](const Seen &a, const Seen &b) { return a.header < b.header; }));
    {
        SCOPED_TRACE("cm5 vs nicam");
        expectSameRun(cm5, unorderedTrain<NicamNetwork>());
    }

    const TrainRun cr = orderedTrain<CrNetwork>();
    EXPECT_EQ(cr.busy, 0);
    EXPECT_EQ(cr.seen.size(), 160u);
    EXPECT_GT(cr.stats.hwRetries, 0u);
    EXPECT_GT(cr.stats.deliveryRetries, 0u);
    {
        SCOPED_TRACE("cr vs rdma");
        expectSameRun(cr, orderedTrain<RdmaNetwork>());
    }
}

} // namespace
} // namespace msgsim
