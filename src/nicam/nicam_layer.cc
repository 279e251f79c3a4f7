#include "nicam/nicam_layer.hh"

#include "cmam/send_path.hh"
#include "core/row.hh"
#include "hostprof/hostprof.hh"
#include "net/lineage_hook.hh"
#include "sim/log.hh"
#include "sim/trace_session.hh"

namespace msgsim
{

namespace
{
constexpr Word kMaxXferIds = 64;
} // namespace

NicamLayer::NicamLayer(Node &node, NicamNetwork &net)
    : node_(node), net_(net)
{
    // Boot-time setup (uncharged): NI base pointer word and the
    // xfer completion-flag table the NIC raises flags in.
    niBaseAddr_ = node_.mem().alloc(1);
    node_.mem().write(niBaseAddr_, 0x001ba5e0u);
    flagTable_ = node_.mem().alloc(kMaxXferIds);
}

// ----------------------------------------------------------------
// Send side.
// ----------------------------------------------------------------

void
NicamLayer::amSend(NodeId dst, Word handler,
                   const std::vector<Word> &args)
{
    if (handler > hdr::maxFieldA)
        msgsim_fatal("handler id ", handler,
                     " exceeds the header field");
    ScopedSpan span(node_.id(), "nicam", "am_send");
    hostprof::HostScope hps(hostprof::Site::NicamSend);
    singlePacketSend(node_, niBaseAddr_, HwTag::UserAm, dst,
                     hdr::pack(handler, 0), args, dataWords());
}

void
NicamLayer::xferSend(NodeId dst, Word sid, Addr srcBuf,
                     std::uint32_t words)
{
    ScopedSpan span(node_.id(), "nicam", "xfer_send");
    hostprof::HostScope hps(hostprof::Site::NicamSend);
    // The fabric reorders: every packet carries its placement offset
    // for the NIC's offload engine.
    xferPacketLoop(node_, niBaseAddr_, dst, sid, srcBuf, words,
                   /*stampOffsets=*/true, /*dma=*/false);
}

void
NicamLayer::streamSend(NodeId dst, Word chan,
                       const std::vector<Word> &data)
{
    Processor &p = node_.proc();
    Accounting &a = p.acct();
    ScopedSpan span(node_.id(), "nicam", "stream_send");
    hostprof::HostScope hps(hostprof::Site::NicamSend);
    if (chan > hdr::maxFieldA)
        msgsim_fatal("channel id ", chan, " exceeds the header field");

    std::uint32_t &seq = streamSeq_[{dst, chan}];
    {
        // Source-stamped sequence number: the NIC reorder stage
        // needs it because the fabric does not keep order.
        FeatureScope ord(a, Feature::InOrderDelivery);
        p.regOps(2); // sequence load-increment + field insert
    }
    singlePacketSend(node_, niBaseAddr_, HwTag::StreamData, dst,
                     hdr::pack(chan, seq), data, dataWords());
    ++seq;
}

// ----------------------------------------------------------------
// NIC programming.
// ----------------------------------------------------------------

bool
NicamLayer::installAmHandler(Word handler, AmFn fn)
{
    if (handler > hdr::maxFieldA)
        msgsim_fatal("handler id ", handler,
                     " exceeds the header field");
    const bool offloaded = net_.offloadHandler(
        node_.id(), HwTag::UserAm, handler,
        [fn](const Packet &pkt) {
            fn(pkt.src, pkt.header,
               std::vector<Word>(pkt.data.begin(), pkt.data.end()));
        });
    if (!offloaded)
        hostHandlers_[handler] = std::move(fn);
    return offloaded;
}

void
NicamLayer::nicInject(NodeId dst, Word handler,
                      const std::vector<Word> &args)
{
    // NIC-side send: no host instructions, but the packet is a real
    // packet with lineage, built in the pool slot it travels in.
    const int n = dataWords();
    if (static_cast<int>(args.size()) > n)
        msgsim_panic("nic reply of ", args.size(),
                     " words exceeds the packet size ", n);
    const Network::Slot slot = net_.stage(node_.id(), dst, HwTag::UserAm,
                                          hdr::pack(handler, 0), 0);
    Packet &pkt = net_.parked(slot);
    pkt.data.reserve(static_cast<std::size_t>(n));
    for (Word w : args)
        pkt.data.push_back(w);
    while (pkt.data.size() < static_cast<std::size_t>(n))
        pkt.data.push_back(0);
    if (LineageHooks *lh = LineageHooks::current())
        lh->packetBorn(pkt, node_.id(), net_.sim().now());
    if (!net_.injectParked(slot))
        net_.release(slot); // port busy: the reply is lost
}

bool
NicamLayer::postXfer(Word sid, Addr buf, std::uint32_t words)
{
    if (sid >= kMaxXferIds)
        msgsim_fatal("transfer id ", sid, " exceeds the flag table");
    if (xfers_.count(sid))
        msgsim_fatal("transfer ", sid, " already posted");
    const int n = dataWords();
    if (words == 0 || words % static_cast<std::uint32_t>(n) != 0)
        msgsim_fatal("nicam xfer of ", words,
                     " words: not a multiple of packet size ", n);

    const bool offloaded = net_.offloadHandler(
        node_.id(), HwTag::XferData, sid,
        [this, sid](const Packet &pkt) { nicXferArrive(sid, pkt); });
    if (!offloaded)
        return false;

    // The descriptor the NIC places against is host work: write the
    // buffer pointer and size, clear the flag.  This is the entire
    // buffer-management cost of the offloaded transfer.
    Processor &p = node_.proc();
    Accounting &a = p.acct();
    hostprof::HostScope hps(hostprof::Site::NicamSend);
    {
        FeatureScope bm(a, Feature::BufferMgmt);
        p.regOps(4); // descriptor index, size arithmetic
        const Addr flag = flagTable_ + sid;
        p.storeWord(flag, 0);
        p.storeDouble(flag, buf, words); // modeled descriptor pair
    }

    XferState st;
    st.buf = buf;
    st.words = words;
    st.flag = flagTable_ + sid;
    node_.mem().write(st.flag, 0);
    xfers_[sid] = st;
    return true;
}

void
NicamLayer::nicXferArrive(Word sid, const Packet &pkt)
{
    auto it = xfers_.find(sid);
    if (it == xfers_.end())
        msgsim_panic("nicam xfer data for unposted transfer ", sid);
    XferState &st = it->second;
    const std::uint32_t offset = hdr::fieldB(pkt.header);
    if (offset >= st.words)
        msgsim_panic("nicam xfer offset ", offset,
                     " beyond the posted buffer");
    // On-NIC placement by offset (uncharged DMA).
    Memory &mem = node_.mem();
    const auto n = static_cast<std::uint32_t>(pkt.data.size());
    for (std::uint32_t i = 0; i < n && offset + i < st.words; ++i)
        mem.write(st.buf + offset + i,
                  pkt.data[static_cast<std::size_t>(i)]);
    st.received += n;
    if (st.received >= st.words)
        mem.write(st.flag, 1); // completion flag, raised by the NIC
}

bool
NicamLayer::openStream(Word chan, Addr ring, std::uint32_t slots)
{
    if (streams_.count(chan))
        msgsim_fatal("stream ", chan, " already open");
    if (slots == 0)
        msgsim_fatal("stream ring needs at least one slot");
    const bool offloaded = net_.offloadHandler(
        node_.id(), HwTag::StreamData, chan,
        [this, chan](const Packet &pkt) {
            nicStreamArrive(chan, pkt);
        });
    if (!offloaded)
        return false;
    StreamState st;
    st.ring = ring;
    st.slots = slots;
    st.countAddr = node_.mem().alloc(1);
    node_.mem().write(st.countAddr, 0);
    streams_[chan] = st;
    return true;
}

void
NicamLayer::nicStreamArrive(Word chan, const Packet &pkt)
{
    auto it = streams_.find(chan);
    if (it == streams_.end())
        msgsim_panic("nicam stream data for unopened channel ", chan);
    StreamState &st = it->second;
    const std::uint32_t seq = hdr::fieldB(pkt.header);
    if (seq < st.expect)
        return; // stale duplicate; the NIC's reorder stage drops it
    st.pending[seq].assign(pkt.data.begin(), pkt.data.end());
    // Release in sequence order into the host-visible ring.
    Memory &mem = node_.mem();
    const auto n = static_cast<std::uint32_t>(dataWords());
    while (true) {
        auto pit = st.pending.find(st.expect);
        if (pit == st.pending.end())
            break;
        if (st.produced - st.consumed >= st.slots)
            msgsim_panic("nicam stream ring overrun on channel ",
                         chan, ": host not harvesting");
        const Addr slot = st.ring + (st.produced % st.slots) * n;
        for (std::uint32_t i = 0;
             i < n && i < pit->second.size(); ++i)
            mem.write(slot + i,
                      pit->second[static_cast<std::size_t>(i)]);
        st.pending.erase(pit);
        ++st.produced;
        ++st.expect;
        mem.write(st.countAddr, st.produced);
    }
}

// ----------------------------------------------------------------
// Host-side probes.
// ----------------------------------------------------------------

bool
NicamLayer::probeFlag(Addr flag)
{
    Processor &p = node_.proc();
    Accounting &a = p.acct();
    hostprof::HostScope hps(hostprof::Site::NicamSend);
    RowScope r(a, CostRow::CheckStatus);
    p.regOps(2);
    return p.loadWord(flag) != 0;
}

bool
NicamLayer::xferDone(Word sid)
{
    const Addr flag = xferFlagAddr(sid);
    Processor &p = node_.proc();
    Accounting &a = p.acct();
    {
        RowScope r(a, CostRow::CallReturn);
        p.callRet(2);
    }
    return probeFlag(flag);
}

Addr
NicamLayer::xferFlagAddr(Word sid) const
{
    if (sid >= kMaxXferIds)
        msgsim_panic("transfer id ", sid, " exceeds the flag table");
    return flagTable_ + sid;
}

std::uint32_t
NicamLayer::streamHarvest(Word chan, std::vector<Word> &out)
{
    auto it = streams_.find(chan);
    if (it == streams_.end())
        msgsim_panic("harvest of unopened channel ", chan);
    StreamState &st = it->second;
    Processor &p = node_.proc();
    Accounting &a = p.acct();
    ScopedSpan span(node_.id(), "nicam", "stream_harvest");
    hostprof::HostScope hps(hostprof::Site::NicamSend);

    {
        RowScope r(a, CostRow::CallReturn);
        p.callRet(2);
    }
    std::uint32_t produced;
    {
        RowScope r(a, CostRow::CheckStatus);
        p.regOps(2);
        produced = p.loadWord(st.countAddr);
    }
    const auto n = static_cast<std::uint32_t>(dataWords());
    std::uint32_t harvested = 0;
    while (st.consumed < produced) {
        const Addr slot = st.ring + (st.consumed % st.slots) * n;
        for (std::uint32_t i = 0; i < n; i += 2) {
            const auto [w0, w1] = p.loadDouble(slot + i);
            out.push_back(w0);
            out.push_back(w1);
        }
        p.regOps(2); // cursor advance, loop branch
        ++st.consumed;
        ++harvested;
    }
    return harvested;
}

int
NicamLayer::poll()
{
    Processor &p = node_.proc();
    Accounting &a = p.acct();
    NetIface &ni = node_.ni();
    ScopedSpan span(node_.id(), "nicam", "poll");
    hostprof::HostScope hps(hostprof::Site::NicamSend);

    return drainRecvFifo(
        node_, dispatchOps_, /*pollEntry=*/true,
        [&](HwTag tag, const Packet &head) {
            if (tag != HwTag::UserAm)
                msgsim_panic("nicam host fallback: unexpected tag ",
                             static_cast<int>(tag));
            Word header;
            {
                RowScope r(a, CostRow::ReadNi);
                header = ni.readRecvHeader(a);
            }
            p.regOps(3); // tag-vector dispatch
            dispatchOps_ += 3;
            const Word hid = hdr::fieldA(header);
            auto fit = hostHandlers_.find(hid);
            if (fit == hostHandlers_.end())
                msgsim_panic("nicam host fallback: no handler ", hid);
            NodeId src;
            {
                RowScope r(a, CostRow::ReadNi);
                src = static_cast<NodeId>(ni.readRecvSource(a));
            }
            const auto words = head.data.size();
            std::vector<Word> args;
            args.reserve(words);
            {
                RowScope r(a, CostRow::ReadNi);
                for (std::size_t i = 0; i < words; i += 2) {
                    const auto [w0, w1] = ni.readRecvDouble(a);
                    args.push_back(w0);
                    args.push_back(w1);
                }
            }
            {
                RowScope r(a, CostRow::CallReturn);
                p.callRet(4); // user-handler linkage
            }
            dispatchOps_ += 4;
            ++hostDispatches_;
            fit->second(src, header, args);
        });
}

} // namespace msgsim
