/**
 * @file
 * Unit tests of the network common layer: packet format and CRC,
 * header packing, fat-tree topology, fault injection, and
 * delivery-order policies.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <deque>
#include <memory>
#include <set>
#include <type_traits>
#include <vector>

#include "cm5net/cm5_network.hh"
#include "net/fault.hh"
#include "net/order.hh"
#include "net/packet.hh"
#include "net/ring.hh"
#include "net/topology.hh"
#include "sim/log.hh"
#include "sim/rng.hh"

namespace msgsim
{
namespace
{

TEST(Packet, CrcDetectsCorruption)
{
    // The hardware check reads the corruption mark; the CRC the
    // checked build compares still tells every write apart.
    Packet p(0, 1, HwTag::UserAm, 0x1234, {1, 2, 3, 4});
    p.seal();
    EXPECT_TRUE(p.checksumOk());
    p.data[2] ^= 0x100;
    EXPECT_NE(p.computeCrc(), p.crc);
    p.data[2] ^= 0x100;
    EXPECT_EQ(p.computeCrc(), p.crc);
    p.header ^= 1;
    EXPECT_NE(p.computeCrc(), p.crc);
    p.header ^= 1;
    EXPECT_EQ(p.computeCrc(), p.crc);
}

TEST(Packet, CorruptedFlagFailsChecksum)
{
    Packet p(0, 1, HwTag::UserAm, 7, {9, 9});
    p.seal();
    p.corrupted = true;
    EXPECT_FALSE(p.checksumOk());
}

TEST(Packet, SizeIsHeaderPlusData)
{
    Packet p(0, 1, HwTag::XferData, 0, {1, 2, 3, 4});
    EXPECT_EQ(p.sizeWords(), 5u); // the CM-5's five-word packet
}

// ------------------------------------------------------------------
// Payload: inline up to four words, one heap block above that.
// ------------------------------------------------------------------

Payload
sequence(std::size_t n)
{
    Payload p;
    for (std::size_t i = 0; i < n; ++i)
        p.push_back(static_cast<Word>(100 + i));
    return p;
}

TEST(Payload, InlineUpToFourWordsHeapAbove)
{
    for (std::size_t n : {std::size_t(4), std::size_t(6),
                          std::size_t(128)}) {
        const Payload p = sequence(n);
        ASSERT_EQ(p.size(), n);
        EXPECT_EQ(p.spilled(), n > Payload::inlineWords) << n;
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_EQ(p[i], static_cast<Word>(100 + i)) << n;
        EXPECT_EQ(std::vector<Word>(p.begin(), p.end()).size(), n);
    }
    EXPECT_FALSE(Payload({1, 2, 3, 4}).spilled());
    EXPECT_TRUE(Payload({1, 2, 3, 4, 5}).spilled());
    EXPECT_EQ(Payload(std::vector<Word>{7, 8, 9}), (Payload{7, 8, 9}));
}

TEST(Payload, CopyAndMove)
{
    for (std::size_t n : {std::size_t(4), std::size_t(6),
                          std::size_t(128)}) {
        Payload a = sequence(n);
        const Payload copy = a;
        EXPECT_EQ(copy, a) << n;

        Payload moved = std::move(a);
        EXPECT_EQ(moved, copy) << n;
        EXPECT_TRUE(a.empty()) << n;
        EXPECT_FALSE(a.spilled()) << n;

        Payload assigned{1};
        assigned = std::move(moved);
        EXPECT_EQ(assigned, copy) << n;
        EXPECT_TRUE(moved.empty()) << n;

        Payload copiedOver = sequence(2);
        copiedOver = copy;
        EXPECT_EQ(copiedOver, copy) << n;

        // A moved-from payload is reusable.
        a.push_back(42);
        EXPECT_EQ(a, (Payload{42})) << n;
    }
}

TEST(Payload, EqualityComparesWords)
{
    EXPECT_EQ(sequence(6), sequence(6));
    EXPECT_NE(sequence(6), sequence(5));
    Payload p = sequence(6);
    p[5] ^= 1;
    EXPECT_NE(p, sequence(6));
    EXPECT_EQ(Payload{}, Payload(std::vector<Word>{}));
}

TEST(Payload, FaultCorruptionOnASpilledPayload)
{
    Packet p(0, 1, HwTag::XferData, 3, sequence(8));
    ASSERT_TRUE(p.data.spilled());
    p.injectSeq = 5;
    p.seal();
    FaultInjector f;
    f.scriptCorrupt(5);
    EXPECT_TRUE(f.armed());
    EXPECT_EQ(f.apply(p), FaultAction::Corrupt);
    EXPECT_FALSE(f.armed());

    // The injector only decides; the network flips the bit.
    Simulator sim;
    Cm5Network net(sim, Cm5Network::Config{});
    const Network::Slot ps = net.park(std::move(p));
    net.corrupt(ps);
    EXPECT_EQ(net.parked(ps).data[0], 100u ^ (1u << 5));
    EXPECT_FALSE(net.parked(ps).checksumOk());

    Packet q(0, 1, HwTag::XferData, 3, sequence(8));
    q.injectSeq = 33;
    q.seal();
    const Network::Slot qs = net.park(std::move(q));
    net.corrupt(qs);
    const Packet &c = net.parked(qs);
    EXPECT_EQ(c.data[0], 100u ^ (1u << 1));
    EXPECT_EQ(c.data[7], 107u);
    EXPECT_TRUE(c.corrupted);
    EXPECT_FALSE(c.checksumOk());
    EXPECT_EQ(net.stats().corrupted, 2u);
}

TEST(Payload, CrcIsPinned)
{
    // FNV-1a over the header and data words, as before the payload
    // went inline: these values must never change.
    EXPECT_EQ(Packet(0, 1, HwTag::UserAm, 0x1234, {1, 2, 3, 4})
                  .computeCrc(),
              0x22b08ddfu);
    EXPECT_EQ(Packet(0, 1, HwTag::UserAm, 0x1234, sequence(6))
                  .computeCrc(),
              0xd0fd25eau);
}

TEST(HeaderPacking, RoundTrips)
{
    const Word h = hdr::pack(0xab, 0x123456);
    EXPECT_EQ(hdr::fieldA(h), 0xabu);
    EXPECT_EQ(hdr::fieldB(h), 0x123456u);
    EXPECT_EQ(hdr::pack(hdr::maxFieldA, hdr::maxFieldB), 0xffffffffu);
}

TEST(FatTree, SingleSwitchCluster)
{
    FatTree t(4, 4);
    EXPECT_EQ(t.levels(), 1u);
    EXPECT_EQ(t.lca(0, 0), 0u);
    EXPECT_EQ(t.lca(0, 3), 1u);
    EXPECT_EQ(t.hops(0, 3), 2u);
    EXPECT_EQ(t.pathCount(0, 3), 1u);
}

TEST(FatTree, TwoLevels)
{
    FatTree t(16, 4);
    EXPECT_EQ(t.levels(), 2u);
    EXPECT_EQ(t.lca(0, 1), 1u);   // same leaf switch
    EXPECT_EQ(t.lca(0, 4), 2u);   // across leaf switches
    EXPECT_EQ(t.hops(0, 4), 4u);
    EXPECT_EQ(t.pathCount(0, 4), 4u); // 4 root choices
    EXPECT_EQ(t.pathCount(0, 1), 1u);
}

TEST(FatTree, ThreeLevels)
{
    FatTree t(64, 4);
    EXPECT_EQ(t.levels(), 3u);
    EXPECT_EQ(t.lca(0, 63), 3u);
    EXPECT_EQ(t.hops(0, 63), 6u);
    EXPECT_EQ(t.pathCount(0, 63), 16u);
}

TEST(FatTree, NonPowerNodeCounts)
{
    FatTree t(10, 2);
    EXPECT_EQ(t.levels(), 4u); // 2^4 = 16 >= 10
    EXPECT_EQ(t.lca(0, 9), 4u);
}

/// lca as a division loop: the lowest level whose subtree holds both.
std::uint32_t
lcaByDivision(std::uint32_t arity, NodeId a, NodeId b)
{
    if (a == b)
        return 0;
    std::uint32_t level = 1;
    std::uint64_t span = arity;
    while (a / span != b / span) {
        span *= arity;
        ++level;
    }
    return level;
}

TEST(FatTree, LcaMatchesTheDivisionLoop)
{
    for (const std::uint32_t arity : {2u, 4u, 8u, 16u}) {
        const FatTree t(1024, arity);
        std::uint64_t mismatches = 0;
        for (NodeId a = 0; a < 1024; ++a)
            for (NodeId b = 0; b < 1024; ++b)
                mismatches += t.lca(a, b) != lcaByDivision(arity, a, b);
        EXPECT_EQ(mismatches, 0u) << "arity " << arity;
    }
}

struct ThrowOnError
{
    ThrowOnError() { log_detail::throwOnError = true; }
    ~ThrowOnError() { log_detail::throwOnError = false; }
};

TEST(FatTree, NonPowerOfTwoArityIsFatal)
{
    ThrowOnError guard;
    for (const std::uint32_t arity : {0u, 1u, 3u, 6u, 12u}) {
        try {
            FatTree t(8, arity);
            ADD_FAILURE() << "arity " << arity << " must be fatal";
        } catch (const log_detail::SimError &e) {
            EXPECT_FALSE(e.isPanic) << "arity " << arity;
        }
    }
    const FatTree t(8, 8);
    EXPECT_EQ(t.levels(), 1u);
    EXPECT_THROW(t.lca(0, 8), log_detail::SimError);
}

TEST(FaultInjector, CleanByDefault)
{
    FaultInjector fi;
    Packet p(0, 1, HwTag::UserAm, 0, {1, 2, 3, 4});
    p.seal();
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(fi.apply(p), FaultAction::None);
    EXPECT_EQ(fi.drops(), 0u);
    EXPECT_EQ(fi.corruptions(), 0u);
}

TEST(FaultInjector, RatesRoughlyCalibrated)
{
    FaultInjector::Config cfg;
    cfg.dropRate = 0.1;
    cfg.corruptRate = 0.05;
    FaultInjector fi(cfg);
    const int trials = 20000;
    for (int i = 0; i < trials; ++i) {
        Packet p(0, 1, HwTag::UserAm, 0, {1, 2});
        p.injectSeq = static_cast<std::uint64_t>(i);
        p.seal();
        fi.apply(p);
    }
    EXPECT_NEAR(static_cast<double>(fi.drops()) / trials, 0.10, 0.01);
    EXPECT_NEAR(static_cast<double>(fi.corruptions()) / trials, 0.045,
                0.012);
}

TEST(FaultInjector, ScriptedFaultsFireOnce)
{
    Simulator sim;
    Cm5Network net(sim, Cm5Network::Config{});
    FaultInjector fi;
    fi.scriptDrop(5);
    fi.scriptCorrupt(7);
    for (std::uint64_t i = 0; i < 10; ++i) {
        Packet p(0, 1, HwTag::UserAm, 0, {1, 2, 3, 4});
        p.injectSeq = i;
        p.seal();
        const auto action = fi.apply(p);
        if (i == 5) {
            EXPECT_EQ(action, FaultAction::Drop);
        } else if (i == 7) {
            EXPECT_EQ(action, FaultAction::Corrupt);
            // The injector only decides; the network flips the bit.
            const Network::Slot slot = net.park(std::move(p));
            net.corrupt(slot);
            EXPECT_FALSE(net.parked(slot).checksumOk());
        } else {
            EXPECT_EQ(action, FaultAction::None);
        }
    }
    // Scripts are one-shot.
    Packet q(0, 1, HwTag::UserAm, 0, {1});
    q.injectSeq = 5;
    q.seal();
    EXPECT_EQ(fi.apply(q), FaultAction::None);
}

TEST(FaultInjector, ScriptedDuplicateFiresOnceAndLeavesPacketIntact)
{
    FaultInjector fi;
    fi.scriptDuplicate(3);
    for (std::uint64_t i = 0; i < 6; ++i) {
        Packet p(0, 1, HwTag::UserAm, 0, {9, 8, 7, 6});
        p.injectSeq = i;
        p.seal();
        const auto action = fi.apply(p);
        if (i == 3) {
            EXPECT_EQ(action, FaultAction::Duplicate);
            // The duplicate is a ghost copy, not a corruption: the
            // original payload must still checksum clean.
            EXPECT_TRUE(p.checksumOk());
        } else {
            EXPECT_EQ(action, FaultAction::None);
        }
    }
    EXPECT_EQ(fi.duplications(), 1u);
    EXPECT_EQ(fi.drops(), 0u);
    EXPECT_EQ(fi.corruptions(), 0u);

    // One-shot, like the other scripts.
    Packet q(0, 1, HwTag::UserAm, 0, {1});
    q.injectSeq = 3;
    q.seal();
    EXPECT_EQ(fi.apply(q), FaultAction::None);
}

TEST(FaultInjector, DuplicateRateRoughlyCalibrated)
{
    FaultInjector::Config cfg;
    cfg.duplicateRate = 0.08;
    FaultInjector fi(cfg);
    const int trials = 20000;
    for (int i = 0; i < trials; ++i) {
        Packet p(0, 1, HwTag::UserAm, 0, {1, 2});
        p.injectSeq = static_cast<std::uint64_t>(i);
        p.seal();
        fi.apply(p);
    }
    EXPECT_NEAR(static_cast<double>(fi.duplications()) / trials, 0.08,
                0.01);
    EXPECT_EQ(fi.drops(), 0u);
    EXPECT_EQ(fi.corruptions(), 0u);
}

TEST(FaultInjector, DropScriptOutranksDuplicateScript)
{
    // Precedence on the same packet: scripted drop wins; the
    // duplicate script is NOT consumed and fires on a later packet.
    FaultInjector fi;
    fi.scriptDrop(2);
    fi.scriptDuplicate(2);
    Packet p(0, 1, HwTag::UserAm, 0, {1, 2});
    p.injectSeq = 2;
    p.seal();
    EXPECT_EQ(fi.apply(p), FaultAction::Drop);
    EXPECT_EQ(fi.duplications(), 0u);

    Packet q(0, 1, HwTag::UserAm, 0, {1, 2});
    q.injectSeq = 2;
    q.seal();
    EXPECT_EQ(fi.apply(q), FaultAction::Duplicate);
}

// --- Order policies -----------------------------------------------

/**
 * The presentation order of a @p count-packet flow: policies reorder
 * opaque slot handles, and slot i stands for the flow's i-th packet.
 */
std::vector<std::uint64_t>
runPolicy(OrderPolicy &policy, std::uint64_t count)
{
    std::vector<std::uint64_t> out;
    std::vector<Network::Slot> rel;
    for (std::uint64_t i = 0; i < count; ++i) {
        rel.clear();
        policy.arrive(static_cast<Network::Slot>(i), rel);
        out.insert(out.end(), rel.begin(), rel.end());
    }
    rel.clear();
    policy.flush(rel);
    out.insert(out.end(), rel.begin(), rel.end());
    return out;
}

/** Count packets arriving before some earlier-injected packet. */
std::uint64_t
countOoo(const std::vector<std::uint64_t> &order)
{
    std::uint64_t ooo = 0;
    std::uint64_t expected = 0;
    std::set<std::uint64_t> early;
    for (auto idx : order) {
        if (idx == expected) {
            ++expected;
            while (early.count(expected)) {
                early.erase(expected);
                ++expected;
            }
        } else {
            early.insert(idx);
            ++ooo;
        }
    }
    return ooo;
}

TEST(OrderPolicy, FifoPreservesOrder)
{
    FifoOrder p;
    const auto order = runPolicy(p, 10);
    for (std::uint64_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], i);
}

TEST(OrderPolicy, SwapAdjacentIsExactlyHalfOoo)
{
    SwapAdjacentOrder p;
    const auto order = runPolicy(p, 8);
    EXPECT_EQ(order,
              (std::vector<std::uint64_t>{1, 0, 3, 2, 5, 4, 7, 6}));
    EXPECT_EQ(countOoo(order), 4u);
}

TEST(OrderPolicy, SwapAdjacentFlushesOddTail)
{
    SwapAdjacentOrder p;
    const auto order = runPolicy(p, 5);
    ASSERT_EQ(order.size(), 5u);
    EXPECT_EQ(order.back(), 4u); // held packet released at flush
}

TEST(OrderPolicy, PairSwapChanceZeroIsFifo)
{
    PairSwapChanceOrder p(0.0, 42);
    const auto order = runPolicy(p, 16);
    for (std::uint64_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], i);
}

TEST(OrderPolicy, PairSwapChanceOneIsSwapAdjacent)
{
    PairSwapChanceOrder p(1.0, 42);
    const auto order = runPolicy(p, 8);
    EXPECT_EQ(order,
              (std::vector<std::uint64_t>{1, 0, 3, 2, 5, 4, 7, 6}));
}

TEST(OrderPolicy, RandomWindowDeliversEverything)
{
    RandomWindowOrder p(4, 99);
    const auto order = runPolicy(p, 19);
    auto sorted = order;
    std::sort(sorted.begin(), sorted.end());
    ASSERT_EQ(sorted.size(), 19u);
    for (std::uint64_t i = 0; i < 19; ++i)
        EXPECT_EQ(sorted[i], i);
}

TEST(OrderPolicy, FactoriesProduceIndependentFlows)
{
    auto factory = pairSwapChanceFactory(0.5, 1234);
    auto p1 = factory();
    auto p2 = factory();
    // Different flow seeds: same input, plausibly different output —
    // at minimum both must deliver all packets.
    const auto o1 = runPolicy(*p1, 32);
    const auto o2 = runPolicy(*p2, 32);
    EXPECT_EQ(o1.size(), 32u);
    EXPECT_EQ(o2.size(), 32u);
}

// --- Ring -----------------------------------------------------------

/** A trivially destructible 200-byte value, shaped like a held frame. */
struct WideValue
{
    std::uint32_t seq = 0;
    std::uint32_t size = 0;
    std::array<Word, 48> words{};

    bool operator==(const WideValue &) const = default;
};
static_assert(sizeof(WideValue) == 200);
static_assert(std::is_trivially_destructible_v<WideValue>);

/**
 * Seeded pushes and pops on a Ring and a std::deque, checking size,
 * front, back and every index after each step.  The push share swings
 * between 3/4 and 1/4 every 300 steps, so the ring doubles to its
 * high-water mark and then drains with its head wrapping around.
 */
template <typename T, typename Make>
void
expectRingMatchesDeque(Make make, std::uint64_t seed)
{
    Ring<T> ring;
    std::deque<T> ref;
    Rng rng(seed);
    std::uint32_t made = 0;
    for (int step = 0; step < 3000; ++step) {
        const std::uint64_t pushShare = (step / 300) % 2 == 0 ? 3 : 1;
        if (ref.empty() || rng.below(4) < pushShare) {
            const T v = make(made++, rng);
            ring.push_back(v);
            ref.push_back(v);
        } else {
            ASSERT_TRUE(ring.front() == ref.front()) << "step " << step;
            ring.pop_front();
            ref.pop_front();
        }
        ASSERT_EQ(ring.size(), ref.size());
        ASSERT_EQ(ring.empty(), ref.empty());
        if (ref.empty())
            continue;
        ASSERT_TRUE(ring.back() == ref.back()) << "step " << step;
        for (std::size_t i = 0; i < ref.size(); ++i)
            ASSERT_TRUE(ring[i] == ref[i]) << "step " << step << " at " << i;
    }
    ring.clear();
    EXPECT_TRUE(ring.empty());
}

TEST(Ring, MatchesADequeOfSlots)
{
    for (const std::uint64_t seed : {1u, 2u, 3u})
        expectRingMatchesDeque<Network::Slot>(
            [](std::uint32_t i, Rng &) { return Network::Slot{i}; }, seed);
}

TEST(Ring, MatchesADequeOfWideValues)
{
    for (const std::uint64_t seed : {1u, 2u, 3u})
        expectRingMatchesDeque<WideValue>(
            [](std::uint32_t i, Rng &rng) {
                WideValue v;
                v.seq = i;
                v.size = static_cast<std::uint32_t>(rng.below(49));
                for (Word &w : v.words)
                    w = static_cast<Word>(rng.next());
                return v;
            },
            seed);
}

TEST(Ring, ClaimBackReusesATrivialSlotAsItWasLeft)
{
    // The slot claim_back() hands out keeps what was last popped from
    // it: the caller writes every field it reads.
    Ring<WideValue> ring;
    for (std::uint32_t i = 0; i < 4; ++i) {
        WideValue v;
        v.seq = i;
        v.words[47] = 100 + i;
        ring.push_back(v);
    }
    ring.pop_front();
    WideValue &reused = ring.claim_back(); // the capacity-4 ring wraps
    EXPECT_EQ(reused.words[47], 100u);
    reused.seq = 9;
    EXPECT_EQ(ring.size(), 4u);
    EXPECT_EQ(ring.front().seq, 1u);
    EXPECT_EQ(ring.back().seq, 9u);
}

TEST(Ring, PopAndClearReleaseWhatTheyHold)
{
    const auto obj = std::make_shared<int>(7);
    Ring<std::shared_ptr<int>> ring;
    for (int i = 0; i < 5; ++i) // past the first capacity: doubles
        ring.push_back(obj);
    EXPECT_EQ(obj.use_count(), 6);
    ring.pop_front();
    EXPECT_EQ(obj.use_count(), 5);
    ring.pop_front();
    EXPECT_EQ(obj.use_count(), 4);
    ring.clear();
    EXPECT_EQ(obj.use_count(), 1);
    // Every slot was reset: a claimed one holds nothing.
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(ring.claim_back(), nullptr) << i;
}

} // namespace
} // namespace msgsim
