/**
 * @file
 * Unit tests of the machine model: memory, the instrumented
 * processor, the network interface register semantics, and whole
 * -machine construction.
 */

#include <gtest/gtest.h>

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
