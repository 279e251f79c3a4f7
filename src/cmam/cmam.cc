#include "cmam/cmam.hh"

#include "cmam/send_path.hh"
#include "hostprof/hostprof.hh"
#include "sim/log.hh"
#include "sim/trace_session.hh"

namespace msgsim
{

Cmam::Cmam(Node &node, const Config &cfg)
    : node_(node), cfg_(cfg), segs_(node.mem(), cfg.maxSegments)
{
    // Boot-time setup (uncharged): a memory word caching the NI base
    // address, loaded once per send call in the modeled assembly.
    niBaseAddr_ = node_.mem().alloc(1);
    node_.mem().write(niBaseAddr_, 0x001ba5e0u);
    if (!cfg_.trusted.acceptanceIndependent)
        return;
    // CR acceptance check: a header packet the segment table cannot
    // bind is refused in hardware and retransmitted later, so no
    // software handshake is needed.
    node_.ni().setAcceptFn([this](const Packet &pkt) {
        return pkt.tag != HwTag::XferData ||
               hdr::fieldB(pkt.header) == 0 || segs_.hasFree();
    });
}

int
Cmam::registerHandler(AmHandler fn)
{
    if (static_cast<int>(handlers_.size()) >= cfg_.maxHandlers)
        msgsim_fatal("handler table full (", cfg_.maxHandlers, ")");
    handlers_.push_back(std::move(fn));
    return static_cast<int>(handlers_.size()) - 1;
}

void
Cmam::setControlSink(CtrlOp op, ControlSink fn)
{
    ctrlSinks_[static_cast<std::size_t>(op)] = std::move(fn);
}

void
Cmam::am4(NodeId dst, int handler, const std::vector<Word> &args)
{
    // Handler indices name a slot in the *destination's* table; only
    // range-check against the (machine-wide) table size here.
    if (handler < 0 || handler >= cfg_.maxHandlers)
        msgsim_fatal("am4: handler index ", handler, " out of range");
    sendTagged(HwTag::UserAm, dst,
               hdr::pack(static_cast<std::uint32_t>(handler), 0), args);
}

void
Cmam::am4Reply(NodeId dst, int handler, const std::vector<Word> &args)
{
    if (handler < 0 || handler >= cfg_.maxHandlers)
        msgsim_fatal("am4Reply: handler index ", handler,
                     " out of range");
    sendTagged(HwTag::UserAm, dst,
               hdr::pack(static_cast<std::uint32_t>(handler), 0), args,
               4, /*vnet=*/1);
}

void
Cmam::sendControl(NodeId dst, CtrlOp op, Word hdrArg,
                  const std::vector<Word> &args, int vnet)
{
    sendTagged(HwTag::Control, dst,
               hdr::pack(static_cast<std::uint32_t>(op), hdrArg), args,
               4, vnet);
}

void
Cmam::chargeSyscall()
{
    if (!cfg_.kernelMediated)
        return;
    // Kernel crossing: trap, dispatch, permission check, return.
    Accounting &a = node_.proc().acct();
    RowScope r(a, CostRow::Other);
    node_.proc().regOps(static_cast<std::uint64_t>(cfg_.syscallRegOps));
}

void
Cmam::sendTagged(HwTag tag, NodeId dst, Word header,
                 const std::vector<Word> &args, int lenWords, int vnet)
{
    chargeSyscall();
    if (lenWords == 0)
        lenWords = dataWords();
    singlePacketSend(node_, niBaseAddr_, tag, dst, header, args,
                     lenWords, vnet);
}

void
Cmam::xferSend(NodeId dst, Word id, Addr srcBuf, std::uint32_t words)
{
    ScopedSpan span(node_.id(), "cmam", "xfer_send");
    hostprof::HostScope hps(hostprof::Site::CmamSend);
    chargeSyscall();
    xferPacketLoop(node_, niBaseAddr_, dst, id, srcBuf, words,
                   !cfg_.trusted.inOrderDelivery, cfg_.dmaXfer);
}

void
Cmam::postTransfer(Word tid, Addr buf, XferDoneFn done)
{
    if (!cfg_.trusted.acceptanceIndependent)
        msgsim_fatal("postTransfer on a layer that allocates segments "
                     "by handshake");
    if (tid > hdr::maxFieldA)
        msgsim_fatal("transfer id ", tid, " exceeds the header field");
    if (!posted_.try_emplace(tid, Posted{buf, std::move(done)}).second)
        msgsim_fatal("transfer ", tid, " already posted");
}

int
Cmam::poll()
{
    ScopedSpan span(node_.id(), "cmam", "poll");
    hostprof::HostScope hps(hostprof::Site::CmamPoll);
    chargeSyscall();
    return drain(/*pollEntry=*/true);
}

int
Cmam::interruptService()
{
    Processor &p = node_.proc();
    Accounting &a = p.acct();
    ScopedSpan span(node_.id(), "cmam", "interrupt");
    hostprof::HostScope hps(hostprof::Site::CmamPoll);

    // Trap entry/exit: register-window spill and fill, PSR/PC save
    // and restore, trap-table vectoring — plus the interrupt
    // acknowledge and cause-register accesses on the NI.
    {
        RowScope r(a, CostRow::Other);
        p.regOps(static_cast<std::uint64_t>(cfg_.trapRegOps));
        a.charge(OpClass::DevLoad,
                 static_cast<std::uint64_t>(cfg_.trapDevOps));
    }
    ++interruptsTaken_;
    dispatchOps_ += static_cast<std::uint64_t>(cfg_.trapRegOps) +
                    static_cast<std::uint64_t>(cfg_.trapDevOps);
    // The handler's mask/shift constants are set up by the trap
    // vector, so the drain loop skips the poll-entry decode.
    return drain(/*pollEntry=*/false);
}

int
Cmam::drain(bool pollEntry)
{
    return drainRecvFifo(
        node_, dispatchOps_, pollEntry,
        [this](HwTag tag, const Packet &head) {
            hostprof::HostScope hdl(hostprof::Site::CmamHandler);
            switch (tag) {
              case HwTag::UserAm:
              case HwTag::Control:
              case HwTag::StreamData:
                genericReceive(tag, head);
                break;
              case HwTag::XferData:
                handleXferData();
                break;
              case HwTag::StreamAck:
                if (!streamAckSink_)
                    msgsim_panic("stream ack with no sink installed");
                streamAckSink_(head.src);
                break;
              default:
                msgsim_panic("unknown hardware tag ",
                             static_cast<int>(tag));
            }
        });
}

void
Cmam::genericReceive(HwTag tag, const Packet &head)
{
    Processor &p = node_.proc();
    Accounting &a = p.acct();
    NetIface &ni = node_.ni();
    // Packet length comes from the status/length register the poll
    // loop already read (4 for AMs and control packets, n for stream
    // data).  Copy the dispatch fields now: reading the last data word
    // below consumes the packet and frees its slot, after which
    // @p head is dangling.  Rule for every handler: @p head stays
    // valid, whatever is sent or delivered meanwhile, until its
    // packet's last word is read.
    const int n = static_cast<int>(head.data.size());
    const NodeId src = head.src;
    const bool stream = tag == HwTag::StreamData;

    if (!stream) {
        // CMAM_handle_left linkage.
        RowScope r(a, CostRow::CallReturn);
        p.callRet(3);
    }
    Word header;
    {
        RowScope r(a, CostRow::ReadNi);
        header = ni.readRecvHeader(a);
    }
    ScratchPool<std::vector<Word>>::Lease argsLease(argBufs_);
    std::vector<Word> &args = *argsLease;
    args.reserve(static_cast<std::size_t>(n));
    {
        RowScope r(a, CostRow::ReadNi);
        for (int i = 0; i < n; i += 2) {
            const auto [w0, w1] = ni.readRecvDouble(a);
            args.push_back(w0);
            args.push_back(w1);
        }
    }
    if (stream)
        p.regOps(3); // tag-vector dispatch into the stream path
    {
        // User-handler (or sink) linkage: CMAM_got_left vectoring +
        // call/save/restore/ret of the handler.
        RowScope r(a, CostRow::CallReturn);
        p.callRet(4);
    }
    dispatchOps_ += 7;

    const std::uint32_t sel = hdr::fieldA(header);
    if (stream) {
        if (!streamDataSink_)
            msgsim_panic("stream data with no sink installed");
        streamDataSink_(src, header, args);
    } else if (tag == HwTag::UserAm) {
        if (sel >= handlers_.size() || !handlers_[sel])
            msgsim_panic("AM to unregistered handler ", sel);
        handlers_[sel](src, args);
    } else {
        if (sel == 0 || sel >= static_cast<std::uint32_t>(CtrlOp::NumOps)
            || !ctrlSinks_[sel])
            msgsim_panic("control packet with no sink, op ", sel);
        ctrlSinks_[sel](src, hdr::fieldB(header), args);
    }
}

void
Cmam::handleXferData()
{
    Processor &p = node_.proc();
    Accounting &a = p.acct();
    NetIface &ni = node_.ni();
    const int n = dataWords();
    const bool inOrder = cfg_.trusted.inOrderDelivery;

    Word header;
    {
        RowScope r(a, CostRow::ReadNi);
        header = ni.readRecvHeader(a);
    }
    if (!inOrder) {
        // In-order delivery, destination side: extract the placement
        // offset the source packed into the header (shift + mask).
        FeatureScope io(a, Feature::InOrderDelivery);
        p.regOps(2);
    }
    // reg 3: tag-vector dispatch into the specialized xfer path
    // (no full handler linkage: CMAM_handle_left_xfer is inlined).
    p.regOps(3);
    dispatchOps_ += 3;
    const Word segId = cfg_.trusted.acceptanceIndependent
                           ? boundSegment(header)
                           : hdr::fieldA(header);
    if (!segs_.isActive(segId)) {
        // A stale packet from a transfer that was restarted: drain
        // the data words from the FIFO and discard.  Off the
        // calibrated minimum path (only reachable under faults).
        p.regOps(2);
        for (int i = 0; i < n; i += 2) {
            RowScope r(a, CostRow::ReadNi);
            (void)ni.readRecvDouble(a);
        }
        ++staleXferDrops_;
        return;
    }
    Addr dst;
    if (inOrder) {
        // reg 1: effective address — the running write pointer is
        // register-resident, since delivery order is placement order.
        p.regOps(1);
        dst = segs_.advance(segId, static_cast<Word>(n));
    } else {
        // reg 2: effective store address (segment base + offset);
        // reg 2: segment record address computation.
        p.regOps(4);
        dst = segs_.bufBase(segId) + hdr::fieldB(header);
    }
    if (cfg_.dmaXfer) {
        // One scatter descriptor; the engine deposits the payload.
        RowScope r(a, CostRow::ReadNi);
        ni.dmaScatterRecv(a, dst);
    } else {
        for (int i = 0; i < n; i += 2) {
            std::pair<Word, Word> words;
            {
                RowScope r(a, CostRow::ReadNi);
                words = ni.readRecvDouble(a);
            }
            p.storeDouble(dst + static_cast<Addr>(i), words.first,
                          words.second);
        }
    }
    // reg 2: read-loop induction (FIFO pointer / word count).
    p.regOps(2);

    bool done;
    if (inOrder) {
        // The base loop's own remaining count: decrement (1 reg) +
        // last-packet branch (1 reg).
        p.regOps(1);
        done = segs_.packetArrived(p, segId);
    } else {
        // In-order delivery: expected-count decrement (1 reg).
        FeatureScope io(a, Feature::InOrderDelivery);
        done = segs_.packetArrived(p, segId);
    }
    if (done)
        completeXfer(segId);
}

Word
Cmam::boundSegment(Word header)
{
    const Word tid = hdr::fieldA(header);
    const auto it = posted_.find(tid);
    if (it == posted_.end())
        msgsim_panic("xfer data for unposted transfer ", tid);
    Posted &t = it->second;
    const std::uint32_t totalWords = hdr::fieldB(header);
    if (totalWords == 0) {
        if (t.seg == invalidSegment)
            msgsim_panic("xfer data of transfer ", tid,
                         " before its header packet");
        return t.seg;
    }

    // The header packet: bind the posted buffer to a segment record.
    // This is the protocol's entire buffer-management cost (9 reg +
    // 4 mem); the acceptance check has already made room for it.
    const auto n = static_cast<std::uint32_t>(dataWords());
    if (totalWords % n != 0)
        msgsim_panic("header packet with bad size ", totalWords);
    {
        FeatureScope bm(node_.acct(), Feature::BufferMgmt);
        t.seg = segs_.bind(node_.proc(), t.buf, totalWords / n, tid);
    }
    if (t.seg == invalidSegment)
        msgsim_panic("header packet of transfer ", tid,
                     " accepted with the segment table full");
    segs_.setCompletion(t.seg, [this, tid](Word segId) {
        segs_.release(segId);
        auto posted = posted_.extract(tid);
        if (posted.mapped().done)
            posted.mapped().done(tid);
    });
    return t.seg;
}

void
Cmam::completeXfer(Word segId)
{
    Processor &p = node_.proc();
    Accounting &a = p.acct();

    if (!cfg_.trusted.inOrderDelivery) {
        // Final count-zero confirmation (the paper's +1 in the
        // destination in-order total).
        FeatureScope io(a, Feature::InOrderDelivery);
        p.regOps(1);
    }
    // Completion fast path (2 reg + 3 mem): reload the segment record
    // fields (buffer base, count, aux/continuation) and branch to the
    // completion continuation.
    p.regOps(2);
    {
        RowScope r(a, CostRow::Other);
        segs_.reloadRecord(p, segId);
    }

    auto fn = segs_.takeCompletion(segId);
    if (fn)
        fn(segId);
}

} // namespace msgsim
