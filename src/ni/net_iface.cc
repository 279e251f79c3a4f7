#include "ni/net_iface.hh"

#include "hostprof/hostprof.hh"
#include "machine/memory.hh"
#include "net/lineage_hook.hh"
#include "sim/log.hh"
#include "sim/metrics.hh"
#include "sim/trace_session.hh"

namespace msgsim
{

NetIface::NetIface(NodeId id, Network &net, const Config &cfg)
    : id_(id), net_(net), cfg_(cfg)
{
    if (cfg_.dataWords < 4 || cfg_.dataWords % 2 != 0)
        msgsim_fatal("NI data words must be even and >= 4 (the CMAM_4 "
                     "single-packet format), got ", cfg_.dataWords);
    net_.attach(id_,
                [this](Network::Slot slot) { return hwDeliver(slot); });
}

void
NetIface::writeSendCtl(Accounting &acct, NodeId dst, HwTag tag,
                       Word header, int lenWords, int vnet)
{
    hostprof::HostScope hs(hostprof::Site::NiSend);
    acct.charge(OpClass::DevStore);
    if (lenWords == 0)
        lenWords = cfg_.dataWords;
    if (lenWords < 2 || lenWords % 2 != 0 || lenWords > cfg_.dataWords)
        msgsim_panic("bad packet length ", lenWords, " (max ",
                     cfg_.dataWords, ")");
    if (vnet < 0 || vnet >= numVnets)
        msgsim_panic("bad virtual network ", vnet);
    if (staged_ != nullptr)
        net_.release(stagedSlot_); // a new control word drops it
    stagedSlot_ = net_.stage(id_, dst, tag, header,
                             static_cast<unsigned>(vnet));
    staged_ = &net_.parked(stagedSlot_);
    staged_->data.reserve(static_cast<std::size_t>(lenWords));
    stagedLen_ = lenWords;
    // Packet birth: the lineage recorder stamps the id (and causal
    // parentage when we are inside a handler).  One pointer test
    // when off; never touches Accounting.
    if (LineageHooks *lh = LineageHooks::current())
        lh->packetBorn(*staged_, id_, net_.sim().now());
}

Packet &
NetIface::stagedPacket(const char *what)
{
    if (staged_ == nullptr)
        msgsim_panic(what, " with no packet staged");
    return *staged_;
}

void
NetIface::writeSendDouble(Accounting &acct, Word w0, Word w1)
{
    hostprof::HostScope hs(hostprof::Site::NiSend);
    acct.charge(OpClass::DevStore);
    Payload &data = stagedPacket("send data pushed").data;
    data.push_back(w0);
    data.push_back(w1);
    if (data.size() >= static_cast<std::size_t>(stagedLen_))
        launchStaged();
}

void
NetIface::writeSendWord(Accounting &acct, Word w)
{
    hostprof::HostScope hs(hostprof::Site::NiSend);
    acct.charge(OpClass::DevStore);
    Payload &data = stagedPacket("send data pushed").data;
    data.push_back(w);
    if (data.size() >= static_cast<std::size_t>(stagedLen_))
        launchStaged();
}

void
NetIface::launchStaged()
{
    const Network::Slot slot = stagedSlot_;
    staged_ = nullptr;
    lastSendOk_ = net_.injectParked(slot);
    if (!lastSendOk_) {
        ++sendBusyEvents_;
        net_.release(slot); // software re-pushes the whole packet
    }
}

void
NetIface::refreshHead()
{
    for (std::size_t v = numVnets; v-- > 0;) {
        if (!recvQueues_[v].empty()) {
            head_ = &net_.parked(recvQueues_[v].front());
            return;
        }
    }
    head_ = nullptr;
}

Word
NetIface::readStatus(Accounting &acct)
{
    hostprof::HostScope hs(hostprof::Site::NiRecv);
    acct.charge(OpClass::DevLoad);
    Word status = lastSendOk_ ? ni_status::sendOk : 0;
    if (head_ != nullptr)
        status |= ni_status::recvReady |
                  (static_cast<Word>(head_->tag) & ni_status::tagMask)
                      << ni_status::tagShift;
    return status;
}

const Packet &
NetIface::headPacket(const char *what)
{
    if (head_ == nullptr)
        msgsim_panic("NI ", what, " with empty receive FIFO on node ",
                     id_);
    headLatched_ = true; // until this packet is fully consumed
    return *head_;
}

void
NetIface::consumeData(std::size_t nwords)
{
    recvReadIndex_ += nwords;
    if (recvReadIndex_ < head_->data.size())
        return;
    auto &queue = recvQueues_[head_->vnet % numVnets];
    net_.release(queue.front()); // consumed: free the slot
    queue.pop_front();
    recvReadIndex_ = 0;
    headLatched_ = false;
    refreshHead();
}

Word
NetIface::readRecvHeader(Accounting &acct)
{
    hostprof::HostScope hs(hostprof::Site::NiRecv);
    acct.charge(OpClass::DevLoad);
    return headPacket("header read").header;
}

Word
NetIface::readRecvSource(Accounting &acct)
{
    hostprof::HostScope hs(hostprof::Site::NiRecv);
    acct.charge(OpClass::DevLoad);
    return headPacket("source read").src;
}

std::pair<Word, Word>
NetIface::readRecvDouble(Accounting &acct)
{
    hostprof::HostScope hs(hostprof::Site::NiRecv);
    acct.charge(OpClass::DevLoad);
    const Packet &pkt = headPacket("double read");
    if (recvReadIndex_ + 2 > pkt.data.size())
        msgsim_panic("NI double read past packet end");
    const Word w0 = pkt.data[recvReadIndex_];
    const Word w1 = pkt.data[recvReadIndex_ + 1];
    consumeData(2);
    return {w0, w1};
}

Word
NetIface::readRecvWord(Accounting &acct)
{
    hostprof::HostScope hs(hostprof::Site::NiRecv);
    acct.charge(OpClass::DevLoad);
    const Packet &pkt = headPacket("word read");
    if (recvReadIndex_ + 1 > pkt.data.size())
        msgsim_panic("NI word read past packet end");
    const Word w = pkt.data[recvReadIndex_];
    consumeData(1);
    return w;
}

void
NetIface::writeSendDma(Accounting &acct, Addr src, int words)
{
    hostprof::HostScope hs(hostprof::Site::NiDma);
    acct.charge(OpClass::DevStore);
    ++dmaTransfers_;
    if (mem_ == nullptr)
        msgsim_panic("DMA with no memory attached");
    Payload &data = stagedPacket("DMA gather").data;
    if (static_cast<int>(data.size()) + words > stagedLen_)
        msgsim_panic("DMA gather overruns the staged packet");
    // The engine masters the bus: word movement is hardware work.
    for (int i = 0; i < words; ++i)
        data.push_back(mem_->read(src + static_cast<Addr>(i)));
    if (data.size() >= static_cast<std::size_t>(stagedLen_))
        launchStaged();
}

void
NetIface::dmaScatterRecv(Accounting &acct, Addr dst)
{
    hostprof::HostScope hs(hostprof::Site::NiDma);
    acct.charge(OpClass::DevStore);
    ++dmaTransfers_;
    if (mem_ == nullptr)
        msgsim_panic("DMA with no memory attached");
    const Packet &pkt = headPacket("DMA scatter");
    const std::size_t remaining = pkt.data.size() - recvReadIndex_;
    for (std::size_t i = 0; i < remaining; ++i)
        mem_->write(dst + static_cast<Addr>(i),
                    pkt.data[recvReadIndex_ + i]);
    consumeData(remaining);
}

Network::Take
NetIface::hwDeliver(Network::Slot slot)
{
    hostprof::HostScope hs(hostprof::Site::NiHwDeliver);
    TraceSession *ts = TraceSession::current();
    const Packet &pkt = net_.parked(slot);
    // Hardware CRC check: detection without correction.  A bad packet
    // is consumed and discarded; software only notices the loss.
    if (!pkt.checksumOk()) {
        ++crcDiscards_;
        if (ts)
            ts->instant(id_, "ni", "crc_discard");
        return Network::Take::Consumed;
    }
    if (acceptFn_ && !acceptFn_(pkt)) {
        ++acceptRefusals_;
        if (ts)
            ts->instant(id_, "ni", "accept_refusal");
        return Network::Take::Refused;
    }
    auto &queue = recvQueues_[pkt.vnet % numVnets];
    if (queue.size() >= cfg_.recvCapacity) {
        ++recvRefusals_;
        if (ts)
            ts->instant(id_, "ni", "recv_refusal");
        return Network::Take::Refused;
    }
    queue.push_back(slot);
    if (!headLatched_)
        refreshHead();
    if (ts) {
        std::size_t depth = 0;
        for (const auto &q : recvQueues_)
            depth += q.size();
        ts->counterSample(id_, "ni.recv_depth",
                          static_cast<double>(depth));
    }
    if (arrivalHook_)
        arrivalHook_();
    return Network::Take::Kept;
}

void
NetIface::publishMetrics(MetricsRegistry &reg,
                         const std::string &prefix) const
{
    const MetricsRegistry::Labels labels = {
        {"node", std::to_string(id_)}};
    reg.counter(prefix + ".crc_discards", labels) = crcDiscards_;
    reg.counter(prefix + ".recv_refusals", labels) = recvRefusals_;
    reg.counter(prefix + ".accept_refusals", labels) = acceptRefusals_;
    reg.counter(prefix + ".send_busy_events", labels) = sendBusyEvents_;
    reg.counter(prefix + ".dma_transfers", labels) = dmaTransfers_;
    std::size_t depth = 0;
    for (const auto &q : recvQueues_)
        depth += q.size();
    reg.gauge(prefix + ".recv_depth", labels) =
        static_cast<double>(depth);
}

} // namespace msgsim
