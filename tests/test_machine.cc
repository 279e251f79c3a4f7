/**
 * @file
 * Unit tests of the machine model: memory, the instrumented
 * processor, the network interface register semantics, and whole
 * -machine construction.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "cm5net/cm5_network.hh"
#include "machine/machine.hh"
#include "sim/log.hh"

namespace msgsim
{
namespace
{

Machine::NetworkFactory
cm5Factory(std::uint32_t nodes)
{
    Cm5Network::Config cfg;
    cfg.nodes = nodes;
    return [cfg](Simulator &sim) {
        return std::make_unique<Cm5Network>(sim, cfg);
    };
}

struct ThrowOnError
{
    ThrowOnError() { log_detail::throwOnError = true; }
    ~ThrowOnError() { log_detail::throwOnError = false; }
};

TEST(Memory, ReadWriteAndAlloc)
{
    Memory m(64);
    EXPECT_EQ(m.size(), 64u);
    const Addr a = m.alloc(8);
    const Addr b = m.alloc(8);
    EXPECT_NE(a, b);
    m.write(a, 0xdeadbeef);
    EXPECT_EQ(m.read(a), 0xdeadbeefu);
    EXPECT_EQ(m.allocated(), 16u);
}

TEST(Memory, OutOfBoundsPanics)
{
    ThrowOnError guard;
    Memory m(8);
    EXPECT_THROW(m.read(8), log_detail::SimError);
    EXPECT_THROW(m.write(100, 1), log_detail::SimError);
}

TEST(Memory, PagesMaterializeOnFirstWrite)
{
    ThrowOnError guard;
    const std::size_t words = 3 * Memory::pageWords + 5;
    Memory m(words);
    EXPECT_EQ(m.read(Memory::pageWords + 7), 0u); // untouched page
    // The last word of page 0 and the first of page 1.
    const Addr edge = Memory::pageWords - 1;
    m.write(edge, 0xaaaa);
    m.write(edge + 1, 0xbbbb);
    EXPECT_EQ(m.read(edge), 0xaaaau);
    EXPECT_EQ(m.read(edge + 1), 0xbbbbu);
    EXPECT_EQ(m.read(edge - 1), 0u); // a fresh page is zero-filled
    EXPECT_EQ(m.read(edge + 2), 0u);
    // A fill across the boundary writes both pages.
    m.fill(edge - 1, 3, 7);
    EXPECT_EQ(m.read(edge - 1), 7u);
    EXPECT_EQ(m.read(edge + 1), 7u);
    EXPECT_EQ(m.read(edge + 2), 0u);
    // The last word of memory lives on the partial fourth page.
    const Addr last = static_cast<Addr>(words - 1);
    EXPECT_EQ(m.read(last), 0u);
    m.write(last, 0xcccc);
    EXPECT_EQ(m.read(last), 0xccccu);
    EXPECT_EQ(m.read(last - 1), 0u);
    EXPECT_THROW(m.write(last + 1, 1), log_detail::SimError);
    EXPECT_THROW((void)m.read(last + 1), log_detail::SimError);
    EXPECT_THROW(m.fill(last, 2, 1), log_detail::SimError);
}

TEST(Processor, ChargesByClass)
{
    Memory mem(128);
    Processor p(mem);
    p.regOps(3);
    p.branches(2);
    p.callRet(4);
    p.storeWord(0, 7);
    (void)p.loadWord(0);
    p.storeDouble(2, 8, 9);
    (void)p.loadDouble(2);

    const auto &c = p.acct().counter();
    EXPECT_EQ(c.get(Feature::BaseCost, OpClass::Reg), 9u);
    EXPECT_EQ(c.get(Feature::BaseCost, OpClass::MemStore), 2u);
    EXPECT_EQ(c.get(Feature::BaseCost, OpClass::MemLoad), 2u);
}

TEST(Processor, DoubleOpsMoveTwoWordsForOneCharge)
{
    // The SPARC ldd/std property that makes a 4-word packet cost two
    // memory operations.
    Memory mem(128);
    Processor p(mem);
    p.storeDouble(10, 111, 222);
    EXPECT_EQ(mem.read(10), 111u);
    EXPECT_EQ(mem.read(11), 222u);
    const auto [w0, w1] = p.loadDouble(10);
    EXPECT_EQ(w0, 111u);
    EXPECT_EQ(w1, 222u);
    EXPECT_EQ(p.acct().counter().categoryTotal(Category::Mem), 2u);
}

/** Every (feature, class) cell and every row total of two processors. */
void
expectSameBill(const Processor &a, const Processor &b)
{
    for (int f = 0; f < numFeatures; ++f)
        for (int c = 0; c < numOpClasses; ++c)
            EXPECT_EQ(a.acct().counter().get(static_cast<Feature>(f),
                                             static_cast<OpClass>(c)),
                      b.acct().counter().get(static_cast<Feature>(f),
                                             static_cast<OpClass>(c)))
                << "feature " << f << " class " << c;
    EXPECT_EQ(a.acct().rowTotals(), b.acct().rowTotals());
}

TEST(Processor, SpansChargeLikeTheirLoops)
{
    // A modeled table walk (ld per byte, cycling 256 words) and a
    // buffer walk (st per word, cycling 48): the loop a span replaces,
    // charged op by op on one processor, against the span on another.
    for (const std::uint64_t n : {0u, 1u, 47u, 48u, 300u}) {
        Memory loopMem(1024);
        Memory spanMem(1024);
        Processor loop(loopMem);
        Processor span(spanMem);
        for (Addr a = 0; a < 1024; ++a) {
            loopMem.write(a, a + 1);
            spanMem.write(a, a + 1);
        }
        {
            FeatureScope lf(loop.acct(), Feature::Framing);
            RowScope lr(loop.acct(), CostRow::ControlFlow);
            FeatureScope sf(span.acct(), Feature::Framing);
            RowScope sr(span.acct(), CostRow::ControlFlow);
            for (std::uint64_t i = 0; i < n; ++i)
                (void)loop.loadWord(100 + static_cast<Addr>(i & 0xff));
            span.loadSpan(100, std::min<std::uint64_t>(n, 256), n);
            for (std::uint64_t i = 0; i < n; ++i)
                loop.storeWord(500 + static_cast<Addr>(i % 48), 0);
            span.zeroSpan(500, std::min<std::uint64_t>(n, 48), n);
        }
        SCOPED_TRACE(n);
        expectSameBill(loop, span);
        EXPECT_EQ(span.acct().counter().get(Feature::Framing,
                                            OpClass::MemLoad),
                  n);
        EXPECT_EQ(span.acct().rowTotal(CostRow::ControlFlow), 2 * n);
        // Memory ends up word-for-word the same: the span is zero.
        for (Addr a = 0; a < 1024; ++a)
            ASSERT_EQ(spanMem.read(a), loopMem.read(a)) << "word " << a;
        EXPECT_EQ(spanMem.read(500), n == 0 ? 501u : 0u);
    }

    // The span check panics exactly when a per-op address would.
    ThrowOnError guard;
    Memory mem(64);
    Processor p(mem);
    EXPECT_NO_THROW(p.loadSpan(60, 4, 4));
    EXPECT_NO_THROW(p.zeroSpan(60, 4, 4));
    EXPECT_NO_THROW(p.loadSpan(60, 5, 0)); // n = 0: nothing checked
    EXPECT_NO_THROW(p.zeroSpan(60, 5, 0));
    try {
        p.loadSpan(60, 5, 5);
        ADD_FAILURE() << "a span one word past memory must panic";
    } catch (const log_detail::SimError &e) {
        EXPECT_TRUE(e.isPanic);
        EXPECT_EQ(e.message, "memory access out of bounds: 64 >= 64");
    }
    EXPECT_THROW(p.zeroSpan(60, 5, 5), log_detail::SimError);
    EXPECT_THROW(p.loadSpan(70, 1, 1), log_detail::SimError);
}

/** FIFO order that counts the flushes it is asked for. */
class FlushCountingOrder : public OrderPolicy
{
  public:
    explicit FlushCountingOrder(int &flushes) : flushes_(flushes) {}

    void
    arrive(Slot pkt, std::vector<Slot> &release) override
    {
        release.push_back(pkt);
    }

    void flush(std::vector<Slot> &) override { ++flushes_; }

  private:
    int &flushes_;
};

/** Send one am4-sized packet from node 0 to node 1 through the NI. */
void
sendOne(Machine &m)
{
    Node &n0 = m.node(0);
    n0.ni().writeSendCtl(n0.acct(), 1, HwTag::UserAm, hdr::pack(3, 0));
    n0.ni().writeSendDouble(n0.acct(), 1, 2);
    n0.ni().writeSendDouble(n0.acct(), 3, 4);
}

TEST(Machine, SettleSkipsTheFlushWhileNothingIsHeld)
{
    int flushes = 0;
    Machine::Config cfg;
    cfg.nodes = 2;
    Cm5Network::Config nc;
    nc.nodes = 2;
    nc.orderFactory = [&flushes] {
        return std::make_unique<FlushCountingOrder>(flushes);
    };
    Machine m(cfg, [&nc](Simulator &sim) {
        return std::make_unique<Cm5Network>(sim, nc);
    });
    sendOne(m);
    m.settle();
    EXPECT_EQ(m.node(1).ni().hwRecvDepth(0), 1u);
    EXPECT_EQ(flushes, 0); // the policy holds nothing
}

TEST(Machine, SettleReleasesAHeldPacket)
{
    Machine::Config cfg;
    cfg.nodes = 2;
    Cm5Network::Config nc;
    nc.nodes = 2;
    nc.orderFactory = swapAdjacentFactory();
    Machine m(cfg, [&nc](Simulator &sim) {
        return std::make_unique<Cm5Network>(sim, nc);
    });
    sendOne(m);
    m.sim().run();
    EXPECT_FALSE(m.node(1).ni().hwRecvPending()); // held for a partner
    m.settle();
    EXPECT_EQ(m.node(1).ni().hwRecvDepth(0), 1u);
    EXPECT_EQ(m.node(1).ni().hwPeekRecv()->data, (Payload{1, 2, 3, 4}));
}

TEST(Machine, BuildsNodesAndNetwork)
{
    Machine::Config cfg;
    cfg.nodes = 8;
    cfg.dataWords = 4;
    Machine m(cfg, cm5Factory(8));
    EXPECT_EQ(m.nodeCount(), 8u);
    for (NodeId i = 0; i < 8; ++i)
        EXPECT_EQ(m.node(i).id(), i);
    EXPECT_FALSE(m.network().features().inOrderDelivery);
}

TEST(Machine, NodeOutOfRangePanics)
{
    ThrowOnError guard;
    Machine::Config cfg;
    cfg.nodes = 2;
    Machine m(cfg, cm5Factory(2));
    EXPECT_EQ(m.node(1).id(), 1u);
    try {
        (void)m.node(2);
        ADD_FAILURE() << "node 2 of 2 must panic";
    } catch (const log_detail::SimError &e) {
        EXPECT_TRUE(e.isPanic);
        EXPECT_EQ(e.message, "node id 2 out of range 2");
    }
}

TEST(NetIface, SendAssemblesAndLaunchesPacket)
{
    Machine::Config cfg;
    cfg.nodes = 2;
    Machine m(cfg, cm5Factory(2));
    Node &n0 = m.node(0);
    Accounting &a = n0.acct();

    n0.ni().writeSendCtl(a, 1, HwTag::UserAm, hdr::pack(3, 0));
    n0.ni().writeSendDouble(a, 10, 11);
    n0.ni().writeSendDouble(a, 12, 13); // 4th word: launches
    m.sim().run();

    NetIface &ni1 = m.node(1).ni();
    ASSERT_TRUE(ni1.hwRecvPending());
    const Packet *p = ni1.hwPeekRecv();
    EXPECT_EQ(p->src, 0u);
    EXPECT_EQ(p->tag, HwTag::UserAm);
    EXPECT_EQ(p->data, (Payload{10, 11, 12, 13}));

    // Charges: 3 devStores on the sender.
    EXPECT_EQ(a.counter().categoryTotal(Category::Dev), 3u);
}

TEST(NetIface, StatusReflectsSendAndRecv)
{
    Machine::Config cfg;
    cfg.nodes = 2;
    Machine m(cfg, cm5Factory(2));
    Node &n0 = m.node(0);
    Node &n1 = m.node(1);

    Word s = n1.ni().readStatus(n1.acct());
    EXPECT_TRUE(s & ni_status::sendOk);
    EXPECT_FALSE(s & ni_status::recvReady);

    n0.ni().writeSendCtl(n0.acct(), 1, HwTag::Control, hdr::pack(1, 0));
    n0.ni().writeSendDouble(n0.acct(), 1, 2);
    n0.ni().writeSendDouble(n0.acct(), 3, 4);
    m.sim().run();

    s = n1.ni().readStatus(n1.acct());
    EXPECT_TRUE(s & ni_status::recvReady);
    const auto tag = static_cast<HwTag>((s >> ni_status::tagShift) &
                                        ni_status::tagMask);
    EXPECT_EQ(tag, HwTag::Control);
}

TEST(NetIface, RecvReadsConsumeThePacket)
{
    Machine::Config cfg;
    cfg.nodes = 2;
    Machine m(cfg, cm5Factory(2));
    Node &n0 = m.node(0);
    Node &n1 = m.node(1);

    n0.ni().writeSendCtl(n0.acct(), 1, HwTag::UserAm, 0xabcd);
    n0.ni().writeSendDouble(n0.acct(), 5, 6);
    n0.ni().writeSendDouble(n0.acct(), 7, 8);
    m.sim().run();

    Accounting &a = n1.acct();
    EXPECT_EQ(n1.ni().readRecvHeader(a), 0xabcdu);
    auto [w0, w1] = n1.ni().readRecvDouble(a);
    auto [w2, w3] = n1.ni().readRecvDouble(a);
    EXPECT_EQ(w0, 5u);
    EXPECT_EQ(w3, 8u);
    EXPECT_FALSE(n1.ni().hwRecvPending()); // popped after last word
}

TEST(NetIface, ReadsStayLatchedToTheirPacket)
{
    // The reply network drains first only between packets: once a
    // read touches a request, a reply arriving meanwhile waits until
    // the request's last word is read.
    Machine::Config cfg;
    cfg.nodes = 2;
    Machine m(cfg, cm5Factory(2));
    Node &n0 = m.node(0);
    NetIface &ni = m.node(1).ni();
    Accounting &a = m.node(1).acct();
    const auto send = [&](HwTag tag, Word header, int vnet, Word w) {
        n0.ni().writeSendCtl(n0.acct(), 1, tag, header, 0, vnet);
        n0.ni().writeSendDouble(n0.acct(), w, w + 1);
        n0.ni().writeSendDouble(n0.acct(), w + 2, w + 3);
        m.sim().run();
    };
    const auto statusTag = [&] {
        return static_cast<HwTag>(
            (ni.readStatus(a) >> ni_status::tagShift) & ni_status::tagMask);
    };

    send(HwTag::UserAm, 0xa0, 0, 10);
    EXPECT_EQ(ni.readRecvHeader(a), 0xa0u);
    send(HwTag::Control, 0xb1, 1, 20);
    ASSERT_EQ(ni.hwRecvDepth(0), 1u);
    ASSERT_EQ(ni.hwRecvDepth(1), 1u);

    EXPECT_EQ(ni.hwPeekRecv()->header, 0xa0u);
    EXPECT_EQ(statusTag(), HwTag::UserAm);
    const auto [w0, w1] = ni.readRecvDouble(a);
    EXPECT_EQ(w0, 10u);
    EXPECT_EQ(w1, 11u);
    EXPECT_EQ(ni.hwPeekRecv()->header, 0xa0u);
    const auto [w2, w3] = ni.readRecvDouble(a);
    EXPECT_EQ(w2, 12u);
    EXPECT_EQ(w3, 13u);

    // The request is consumed; the reply is next.
    ASSERT_NE(ni.hwPeekRecv(), nullptr);
    EXPECT_EQ(ni.hwPeekRecv()->header, 0xb1u);
    EXPECT_EQ(ni.hwPeekRecv()->vnet, 1u);
    EXPECT_EQ(statusTag(), HwTag::Control);
    EXPECT_EQ(ni.hwRecvDepth(0), 0u);
}

TEST(NetIface, CrcDiscardOnDelivery)
{
    Machine::Config cfg;
    cfg.nodes = 2;
    Cm5Network::Config nc;
    nc.nodes = 2;
    Machine m(cfg, [&nc](Simulator &sim) {
        auto net = std::make_unique<Cm5Network>(sim, nc);
        net->faults().scriptCorrupt(0);
        return net;
    });
    Node &n0 = m.node(0);
    Node &n1 = m.node(1);

    n0.ni().writeSendCtl(n0.acct(), 1, HwTag::UserAm, 0);
    n0.ni().writeSendDouble(n0.acct(), 1, 2);
    n0.ni().writeSendDouble(n0.acct(), 3, 4);
    m.sim().run();

    EXPECT_FALSE(n1.ni().hwRecvPending()); // detected and discarded
    EXPECT_EQ(n1.ni().crcDiscards(), 1u);
}

#ifdef MSGSIM_CHECKED
TEST(NetIface, PacketWrittenInFlightPanics)
{
    // The checked build seals each packet at launch, and the NI's CRC
    // check panics on one whose words changed with no fault marking
    // them: a stray host write, not a network fault.
    Machine::Config cfg;
    cfg.nodes = 2;
    Machine m(cfg, cm5Factory(2));
    Network &net = m.network();
    auto launch = [&net] {
        const Network::Slot slot =
            net.stage(0, 1, HwTag::UserAm, hdr::pack(3, 0), 0);
        net.parked(slot).data = Payload{1, 2, 3, 4};
        EXPECT_TRUE(net.injectParked(slot));
        return slot;
    };
    launch();
    m.sim().run(); // an untouched packet passes the check
    EXPECT_EQ(m.node(1).ni().hwRecvDepth(0), 1u);

    const Network::Slot slot = launch();
    net.parked(slot).data[2] ^= 0x100u;
    {
        ThrowOnError guard;
        EXPECT_THROW(m.sim().run(), log_detail::SimError);
    }
    EXPECT_EQ(m.node(1).ni().hwRecvDepth(0), 1u);
    EXPECT_EQ(m.node(1).ni().crcDiscards(), 0u);
}
#endif

TEST(NetIface, CapacityRefusalTriggersBackpressure)
{
    Machine::Config cfg;
    cfg.nodes = 2;
    cfg.recvCapacity = 2;
    Machine m(cfg, cm5Factory(2));
    Node &n0 = m.node(0);
    Node &n1 = m.node(1);

    for (int k = 0; k < 4; ++k) {
        n0.ni().writeSendCtl(n0.acct(), 1, HwTag::UserAm,
                             static_cast<Word>(k));
        n0.ni().writeSendDouble(n0.acct(), 1, 2);
        n0.ni().writeSendDouble(n0.acct(), 3, 4);
    }
    m.sim().run(10000);
    // Only two fit; the other two keep retrying in the network.
    EXPECT_GT(n1.ni().recvRefusals(), 0u);

    // Drain one packet; the network retry eventually lands it.
    Accounting &a = n1.acct();
    (void)n1.ni().readRecvHeader(a);
    (void)n1.ni().readRecvDouble(a);
    (void)n1.ni().readRecvDouble(a);
    m.sim().run(10000);
    EXPECT_TRUE(n1.ni().hwRecvPending());
}

TEST(NetIface, AcceptFnRejects)
{
    Machine::Config cfg;
    cfg.nodes = 2;
    Machine m(cfg, cm5Factory(2));
    Node &n0 = m.node(0);
    Node &n1 = m.node(1);
    bool accept = false;
    n1.ni().setAcceptFn([&accept](const Packet &) { return accept; });

    n0.ni().writeSendCtl(n0.acct(), 1, HwTag::XferData, 0);
    n0.ni().writeSendDouble(n0.acct(), 1, 2);
    n0.ni().writeSendDouble(n0.acct(), 3, 4);
    m.sim().run(100);
    EXPECT_FALSE(n1.ni().hwRecvPending());
    EXPECT_GT(n1.ni().acceptRefusals(), 0u);

    accept = true;
    m.sim().run(100000);
    EXPECT_TRUE(n1.ni().hwRecvPending());
}

TEST(NetIface, OddDataWordsRejected)
{
    ThrowOnError guard;
    Machine::Config cfg;
    cfg.nodes = 2;
    cfg.dataWords = 3; // must be even (ldd/std granularity)
    EXPECT_THROW(Machine(cfg, cm5Factory(2)), log_detail::SimError);
}

} // namespace
} // namespace msgsim
