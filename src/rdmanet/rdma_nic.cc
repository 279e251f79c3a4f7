#include "rdmanet/rdma_nic.hh"

#include <algorithm>

#include "core/row.hh"
#include "hostprof/hostprof.hh"
#include "net/lineage_hook.hh"
#include "sim/log.hh"
#include "sim/trace_session.hh"

namespace msgsim
{

namespace
{
/// Translation-table words reserved per MR-cache slot: enough for a
/// 16-page region at the default page size.
constexpr std::uint32_t kSlotEntries = 16;
} // namespace

RdmaNic::RdmaNic(Node &node, Network &net, const Config &cfg)
    : node_(node), net_(net), cfg_(cfg)
{
    if (cfg_.mtuWords < 2 || cfg_.mtuWords % 2 != 0)
        msgsim_fatal("rdma mtu of ", cfg_.mtuWords,
                     " words: must be even and >= 2");
    if (cfg_.mrCacheSlots < 1)
        msgsim_fatal("rdma MR cache needs at least one slot");
    if (cfg_.cqCapacity < 2)
        msgsim_fatal("rdma CQ needs at least two entries");

    // Boot-time allocation of the modeled host rings (uncharged,
    // like driver initialization).
    Memory &mem = node_.mem();
    sendRingBase_ = mem.alloc(64 * 4);
    recvRingBase_ = mem.alloc(64 * 4);
    cqRingBase_ = mem.alloc(cfg_.cqCapacity * 4);
    cqIndexAddr_ = mem.alloc(2);
    mrTableBase_ = mem.alloc(
        static_cast<std::size_t>(cfg_.mrCacheSlots) * kSlotEntries);
    mrCache_.resize(static_cast<std::size_t>(cfg_.mrCacheSlots));

    // The NIC is the delivery sink: zero-copy DMA placement replaces
    // the NI receive FIFO entirely.
    net_.attach(node_.id(), [this](Network::Slot slot) {
        return nicDeliver(net_.parked(slot)) ? Network::Take::Consumed
                                             : Network::Take::Refused;
    });
}

void
RdmaNic::bindQp(Word qp, NodeId peer)
{
    if (qp > hdr::maxFieldA)
        msgsim_fatal("qp id ", qp, " exceeds the header field");
    if (qps_.count(qp))
        msgsim_fatal("qp ", qp, " already bound on node ", node_.id());
    QpState st;
    st.peer = peer;
    qps_[qp] = st;
    postedRecvs_[qp];
}

bool
RdmaNic::cacheCovers(Addr addr, std::uint32_t words) const
{
    for (const MrRegion &r : mrCache_)
        if (r.words != 0 && addr >= r.addr &&
            addr + words <= r.addr + r.words)
            return true;
    return false;
}

bool
RdmaNic::isRegistered(Addr addr, std::uint32_t words) const
{
    for (const MrRegion &r : registered_)
        if (addr >= r.addr && addr + words <= r.addr + r.words)
            return true;
    return false;
}

bool
RdmaNic::regMr(Addr addr, std::uint32_t words)
{
    Processor &p = node_.proc();
    Accounting &a = p.acct();
    ScopedSpan span(node_.id(), "rdma", "reg_mr");
    hostprof::HostScope hps(hostprof::Site::RdmaPost);
    FeatureScope reg(a, Feature::Registration);

    if (words == 0)
        msgsim_fatal("empty memory registration");

    // Cache probe: hash the address, load the slot tag, compare.
    const std::uint64_t slot =
        (addr / cfg_.pageWords) %
        static_cast<std::uint64_t>(cfg_.mrCacheSlots);
    {
        RowScope r(a, CostRow::CheckStatus);
        p.regOps(4);
        (void)p.loadWord(mrTableBase_ + slot * kSlotEntries);
    }
    if (cacheCovers(addr, words)) {
        ++mrCacheHits_;
        return true;
    }
    ++mrCacheMisses_;

    // Miss: pin pages, build translation entries, program the NIC.
    const std::uint32_t pages =
        (words + cfg_.pageWords - 1) / cfg_.pageWords;
    if (pages > kSlotEntries)
        msgsim_fatal("MR of ", words,
                     " words exceeds the modeled translation table");
    {
        RowScope r(a, CostRow::Other);
        p.regOps(12); // length/permission checks, pin bookkeeping
        const Addr entries =
            mrTableBase_ +
            (mrCacheNext_ % static_cast<std::uint64_t>(
                                cfg_.mrCacheSlots)) *
                kSlotEntries;
        for (std::uint32_t pg = 0; pg < pages; ++pg) {
            p.regOps(2); // page-frame lookup
            p.storeWord(entries + pg,
                        (addr / cfg_.pageWords + pg) | 0x1u);
        }
    }
    {
        // Program the NIC's MR table: base/key write plus enable.
        RowScope r(a, CostRow::NiSetup);
        p.regOps(2);
        a.charge(OpClass::DevStore, 2);
    }

    MrRegion region{addr, words};
    mrCache_[static_cast<std::size_t>(
        mrCacheNext_ % static_cast<std::uint64_t>(cfg_.mrCacheSlots))] =
        region;
    ++mrCacheNext_;
    if (!isRegistered(addr, words))
        registered_.push_back(region);
    return false;
}

void
RdmaNic::postRecv(Word qp, Addr buf, std::uint32_t words, Word userTag)
{
    Processor &p = node_.proc();
    Accounting &a = p.acct();
    ScopedSpan span(node_.id(), "rdma", "post_recv");
    hostprof::HostScope hps(hostprof::Site::RdmaPost);

    if (!qps_.count(qp))
        msgsim_fatal("postRecv on unbound qp ", qp);
    if (!isRegistered(buf, words))
        msgsim_fatal("postRecv into unregistered region at ", buf);

    {
        RowScope r(a, CostRow::CallReturn);
        p.callRet(2); // ibv_post_recv linkage
    }
    {
        // Build the four-word recv WQE in the host ring.
        RowScope r(a, CostRow::NiSetup);
        p.regOps(3);
        const Addr wqe = recvRingBase_ + (recvRingIdx_ % 64) * 4;
        ++recvRingIdx_;
        p.storeDouble(wqe, buf, words);
        p.storeDouble(wqe + 2, userTag, qp);
    }
    {
        // Ring the recv doorbell.
        RowScope r(a, CostRow::WriteNi);
        a.charge(OpClass::DevStore);
    }
    postedRecvs_[qp].push_back(PostedRecv{buf, words, userTag});
}

bool
RdmaNic::postSend(Word qp, Addr laddr, std::uint32_t words, Word userTag)
{
    Processor &p = node_.proc();
    Accounting &a = p.acct();
    ScopedSpan span(node_.id(), "rdma", "post_send");
    hostprof::HostScope hps(hostprof::Site::RdmaPost);

    auto it = qps_.find(qp);
    if (it == qps_.end())
        msgsim_fatal("postSend on unbound qp ", qp);
    const int n = cfg_.mtuWords;
    if (words == 0 || words % static_cast<std::uint32_t>(n) != 0)
        msgsim_fatal("rdma send of ", words,
                     " words: not a multiple of the mtu ", n);
    if (words > hdr::maxFieldB)
        msgsim_fatal("rdma send size exceeds the header field");

    // A send needs a free CQ slot for its completion; refusing the
    // doorbell here is the backpressure a full CQ exerts.
    {
        RowScope r(a, CostRow::CheckStatus);
        p.regOps(2);
        (void)p.loadWord(cqIndexAddr_); // consumer-index reload
    }
    if (cq_.size() >= cfg_.cqCapacity) {
        ++sendStalls_;
        return false;
    }

    {
        RowScope r(a, CostRow::CallReturn);
        p.callRet(2); // ibv_post_send linkage
    }
    {
        // lkey validation of the source region.
        FeatureScope regf(a, Feature::Registration);
        RowScope r(a, CostRow::CheckStatus);
        p.regOps(2);
        (void)p.loadWord(mrTableBase_);
        if (!isRegistered(laddr, words))
            msgsim_fatal("postSend from unregistered region at ",
                         laddr);
    }
    {
        // Build the four-word send WQE.
        RowScope r(a, CostRow::NiSetup);
        p.regOps(6);
        const Addr wqe = sendRingBase_ + (sendRingIdx_ % 64) * 4;
        ++sendRingIdx_;
        p.storeDouble(wqe, laddr, words);
        p.storeDouble(wqe + 2, userTag, qp);
    }
    {
        // One doorbell, regardless of message size: the per-word
        // device stores of the NI path are gone.
        RowScope r(a, CostRow::WriteNi);
        a.charge(OpClass::DevStore);
    }

    // ---- NIC engine (uncharged): DMA-read each fragment into the
    // pool slot it travels in, inject it there.  The first fragment's
    // header carries the total size.
    Memory &mem = node_.mem();
    for (std::uint32_t off = 0; off < words;
         off += static_cast<std::uint32_t>(n)) {
        const Network::Slot slot =
            net_.stage(node_.id(), it->second.peer, HwTag::XferData,
                       hdr::pack(qp, off == 0 ? words : 0), 0);
        Packet &pkt = net_.parked(slot);
        pkt.data.reserve(static_cast<std::size_t>(n));
        for (int i = 0; i < n; ++i)
            pkt.data.push_back(mem.read(laddr + off + static_cast<Addr>(i)));
        if (LineageHooks *lh = LineageHooks::current())
            lh->packetBorn(pkt, node_.id(), net_.sim().now());
        // The in-order engine has no busy port: a refusal is a bug.
        if (!net_.injectParked(slot))
            msgsim_panic("rdma fabric refused a fragment of qp ", qp);
    }
    pushCqe(Completion{Completion::Kind::Send, qp, it->second.peer,
                       words, userTag});
    return true;
}

void
RdmaNic::pushCqe(const Completion &c)
{
    // NIC-side DMA write of the CQE into host memory (uncharged).
    Memory &mem = node_.mem();
    const Addr cqe =
        cqRingBase_ + (cqProducer_ % cfg_.cqCapacity) * 4;
    mem.write(cqe + 0, static_cast<Word>(c.kind));
    mem.write(cqe + 1, c.qp);
    mem.write(cqe + 2, c.words);
    mem.write(cqe + 3, c.userTag);
    mem.write(cqIndexAddr_, static_cast<Word>(++cqProducer_));
    cq_.push_back(c);
    if (arrivalHook_)
        arrivalHook_();
}

int
RdmaNic::pollCq(int max)
{
    Processor &p = node_.proc();
    Accounting &a = p.acct();
    ScopedSpan span(node_.id(), "rdma", "poll_cq");
    hostprof::HostScope hps(hostprof::Site::RdmaPoll);
    FeatureScope cpf(a, Feature::CompletionPoll);

    {
        RowScope r(a, CostRow::CallReturn);
        p.callRet(2); // ibv_poll_cq linkage
    }
    int harvested = 0;
    for (;;) {
        {
            // Producer-index probe: has the NIC written anything?
            RowScope r(a, CostRow::CheckStatus);
            (void)p.loadWord(cqIndexAddr_);
            p.regOps(2);
        }
        if (cq_.empty() || harvested == max) {
            RowScope r(a, CostRow::ControlFlow);
            p.branches(1);
            break;
        }
        Completion c = cq_.front();
        cq_.pop_front();
        {
            // Read the four-word CQE from host memory and decode.
            const Addr cqe =
                cqRingBase_ + (cqConsumer_ % cfg_.cqCapacity) * 4;
            ++cqConsumer_;
            (void)p.loadDouble(cqe);
            (void)p.loadDouble(cqe + 2);
            p.regOps(4); // opcode/status/qp decode
            p.storeWord(cqIndexAddr_ + 1,
                        static_cast<Word>(cqConsumer_));
        }
        {
            RowScope r(a, CostRow::CallReturn);
            p.callRet(4); // completion-callback linkage
        }
        ++harvested;
        ++cqesHarvested_;
        if (completionFn_)
            completionFn_(c);
    }
    return harvested;
}

bool
RdmaNic::nicDeliver(const Packet &pkt)
{
    // Hardware-side placement: never charges the host.
    if (pkt.tag != HwTag::XferData)
        msgsim_panic("rdma nic: unexpected tag ",
                     static_cast<int>(pkt.tag));
    if (!pkt.checksumOk())
        msgsim_panic("rdma nic: corrupt packet past a reliable fabric");

    const Word qpId = hdr::fieldA(pkt.header);
    auto it = qps_.find(qpId);
    if (it == qps_.end())
        msgsim_panic("rdma nic: packet for unbound qp ", qpId);
    QpState &qp = it->second;

    if (qp.remaining == 0) {
        // First fragment of a message: match the head posted receive.
        const std::uint32_t total = hdr::fieldB(pkt.header);
        if (total == 0)
            msgsim_panic("rdma nic: data fragment with no message "
                         "in progress on qp ",
                         qpId);
        auto &recvs = postedRecvs_[qpId];
        if (recvs.empty()) {
            // Receiver not ready: the fabric will retry (RNR NAK).
            ++rnrNoRecv_;
            return false;
        }
        const PostedRecv &match = recvs.front();
        if (match.words < total)
            msgsim_panic("rdma nic: posted receive of ", match.words,
                         " words too small for ", total);
        if (!isRegistered(match.buf, total))
            msgsim_panic("rdma nic: receive into unregistered "
                         "region at ",
                         match.buf);
        qp.buf = match.buf;
        qp.offset = 0;
        qp.remaining = total;
        qp.userTag = match.userTag;
    }

    const bool last =
        pkt.data.size() >= static_cast<std::size_t>(qp.remaining);
    if (last && cq_.size() >= cfg_.cqCapacity) {
        // No room to report the receive completion: refuse the last
        // fragment until the host polls (CQ-overflow backpressure).
        ++cqOverflowStalls_;
        if (qp.offset == 0) {
            // Single-fragment message: leave the match untouched so
            // the retry re-runs the whole first-fragment path.
            qp.remaining = 0;
        }
        return false;
    }

    // Zero-copy DMA placement into the registered buffer.
    Memory &mem = node_.mem();
    const std::uint32_t n = std::min(
        static_cast<std::uint32_t>(pkt.data.size()), qp.remaining);
    for (std::uint32_t i = 0; i < n; ++i)
        mem.write(qp.buf + qp.offset + i,
                  pkt.data[static_cast<std::size_t>(i)]);
    qp.offset += n;
    qp.remaining -= n;

    if (qp.remaining == 0) {
        postedRecvs_[qpId].pop_front();
        pushCqe(Completion{Completion::Kind::Recv, qpId, pkt.src,
                           qp.offset, qp.userTag});
    }
    return true;
}

} // namespace msgsim
