#include "cmam/cmam.hh"

#include "cmam/send_path.hh"
#include "hostprof/hostprof.hh"
#include "net/lineage_hook.hh"
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
Cmam::xferSend(NodeId dst, Word segId, Addr srcBuf, std::uint32_t words)
{
    Processor &p = node_.proc();
    Accounting &a = p.acct();
    NetIface &ni = node_.ni();
    const int n = dataWords();
    ScopedSpan span(node_.id(), "cmam", "xfer_send");
    hostprof::HostScope hps(hostprof::Site::CmamSend);

    chargeSyscall();
    if (words == 0 || words % static_cast<std::uint32_t>(n) != 0)
        msgsim_fatal("xferSend: ", words, " words not a multiple of the "
                     "packet size ", n);

    // Fixed entry (2 reg + 1 mem): loop setup; the NI base pointer is
    // loaded once and stays register-cached across the whole burst
    // (unlike per-call am4 sends).
    p.regOps(2);
    (void)p.loadWord(niBaseAddr_);

    std::uint32_t offset = 0;
    while (offset < words) {
        Word header;
        {
            // In-order delivery, source side (2 reg per packet):
            // advance the running offset and pack it into the header
            // so the destination can place data without sequencing.
            FeatureScope io(a, Feature::InOrderDelivery);
            p.regOps(2);
            header = hdr::pack(segId, offset);
        }

        for (int attempt = 0;; ++attempt) {
            if (attempt > 1000)
                msgsim_panic("xfer send retry livelock");
            {
                // reg 4: destination/control-word assembly; dev 1:
                // control-word store.
                RowScope r(a, CostRow::NiSetup);
                p.regOps(4);
                ni.writeSendCtl(a, dst, HwTag::XferData, header);
            }
            {
                // dev 1 + reg 2: send-space check.
                RowScope r(a, CostRow::CheckStatus);
                (void)ni.readStatus(a);
                p.regOps(2);
            }
            // Data movement: n/2 ldd from the user buffer, n/2 std
            // to the NI FIFO.
            for (int i = 0; i < n; i += 2) {
                const auto [w0, w1] = p.loadDouble(
                    srcBuf + offset + static_cast<Addr>(i));
                RowScope r(a, CostRow::WriteNi);
                ni.writeSendDouble(a, w0, w1);
            }
            Word status;
            {
                // dev 1 + reg 3: send_ok confirm + incoming test.
                RowScope r(a, CostRow::CheckStatus);
                status = ni.readStatus(a);
                p.regOps(3);
            }
            {
                RowScope r(a, CostRow::ControlFlow);
                p.branches(3);
            }
            if (status & ni_status::sendOk)
                break;
        }
        // reg 3: buffer-pointer advance, remaining-count decrement,
        // compare for loop exit.
        p.regOps(3);
        offset += static_cast<std::uint32_t>(n);
    }
}

void
Cmam::xferSendDma(NodeId dst, Word segId, Addr srcBuf,
                  std::uint32_t words)
{
    Processor &p = node_.proc();
    Accounting &a = p.acct();
    NetIface &ni = node_.ni();
    const int n = dataWords();
    ScopedSpan span(node_.id(), "cmam", "xfer_send_dma");
    hostprof::HostScope hps(hostprof::Site::CmamSend);

    chargeSyscall();
    if (words == 0 || words % static_cast<std::uint32_t>(n) != 0)
        msgsim_fatal("xferSendDma: ", words, " words not a multiple "
                     "of the packet size ", n);

    // Fixed entry as in the programmed-I/O loop.
    p.regOps(2);
    (void)p.loadWord(niBaseAddr_);

    std::uint32_t offset = 0;
    while (offset < words) {
        Word header;
        {
            FeatureScope io(a, Feature::InOrderDelivery);
            p.regOps(2);
            header = hdr::pack(segId, offset);
        }
        for (int attempt = 0;; ++attempt) {
            if (attempt > 1000)
                msgsim_panic("dma xfer send retry livelock");
            {
                RowScope r(a, CostRow::NiSetup);
                p.regOps(4);
                ni.writeSendCtl(a, dst, HwTag::XferData, header);
            }
            {
                RowScope r(a, CostRow::CheckStatus);
                (void)ni.readStatus(a);
                p.regOps(2);
            }
            {
                // One descriptor store; the engine gathers the
                // payload from memory and launches the packet.
                RowScope r(a, CostRow::WriteNi);
                ni.writeSendDma(a, srcBuf + offset, n);
            }
            Word status;
            {
                RowScope r(a, CostRow::CheckStatus);
                status = ni.readStatus(a);
                p.regOps(3);
            }
            {
                RowScope r(a, CostRow::ControlFlow);
                p.branches(3);
            }
            if (status & ni_status::sendOk)
                break;
        }
        p.regOps(3);
        offset += static_cast<std::uint32_t>(n);
    }
}

int
Cmam::poll()
{
    Processor &p = node_.proc();
    Accounting &a = p.acct();
    ScopedSpan span(node_.id(), "cmam", "poll");
    hostprof::HostScope hps(hostprof::Site::CmamPoll);

    chargeSyscall();
    // CMAM_request_poll linkage: call, save, ret.
    {
        RowScope r(a, CostRow::CallReturn);
        p.callRet(3);
    }
    dispatchOps_ += 3;
    return drainLoop(/*entry_decode=*/true);
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
    return drainLoop(/*entry_decode=*/false);
}

int
Cmam::drainLoop(bool entry_decode)
{
    Processor &p = node_.proc();
    Accounting &a = p.acct();
    NetIface &ni = node_.ni();

    int handled = 0;
    bool first = entry_decode;
    for (;;) {
        Word status;
        {
            // One status read per iteration; the entry iteration also
            // charges the mask/shift constant setup (reg 9), later
            // ones just the ready test (reg 1).
            RowScope r(a, CostRow::CheckStatus);
            status = ni.readStatus(a);
            p.regOps(first ? 9 : 1);
            dispatchOps_ += first ? 10 : 2; // status read + decode
            first = false;
        }
        if (!(status & ni_status::recvReady))
            break;

        const Packet *head = ni.hwPeekRecv();
        if (head == nullptr)
            msgsim_panic("recvReady set with empty FIFO");
        const auto tag = static_cast<HwTag>(
            (status >> ni_status::tagShift) & ni_status::tagMask);

        // Lineage: the dispatch below is this packet's handler; any
        // packet sent from inside it (replies, acks) inherits its
        // lineage as causal parent.  Single pointer test when off.
        LineageHooks *lh = LineageHooks::current();
        if (lh)
            lh->handlerBegin(node_.id(), *head, ni.sim().now());

        hostprof::HostScope hdl(hostprof::Site::CmamHandler);
        switch (tag) {
          case HwTag::UserAm:
          case HwTag::Control:
            genericReceive(*head);
            break;
          case HwTag::XferData:
            handleXferData(*head);
            break;
          case HwTag::StreamData:
            if (!streamDataSink_)
                msgsim_panic("stream data with no sink installed");
            streamDataSink_(head->src);
            break;
          case HwTag::StreamAck:
            if (!streamAckSink_)
                msgsim_panic("stream ack with no sink installed");
            streamAckSink_(head->src);
            break;
          default:
            msgsim_panic("unknown hardware tag ",
                         static_cast<int>(tag));
        }
        if (lh)
            lh->handlerEnd(node_.id(), ni.sim().now());
        ++handled;
        ++pollsHandled_;
        {
            // Loop back-edge + dispatch-table branch.
            RowScope r(a, CostRow::ControlFlow);
            p.branches(2);
        }
        dispatchOps_ += 2;
    }
    return handled;
}

void
Cmam::genericReceive(const Packet &head)
{
    Processor &p = node_.proc();
    Accounting &a = p.acct();
    NetIface &ni = node_.ni();
    // Packet length comes from the status/length register the poll
    // loop already read (4 for AMs and control packets).  Copy the
    // dispatch fields now: draining the payload below pops the packet
    // out of the NI's receive FIFO, after which @p head is dangling.
    // Rule for every handler: @p head points into the fabric's shared
    // packet pool, so any send (from any node) or any delivery into
    // any NI on the fabric may also move it.  Never read @p head after
    // a send, a poll or a settle.
    const int n = static_cast<int>(head.data.size());
    const NodeId src = head.src;
    const HwTag tag = head.tag;

    // CMAM_handle_left linkage.
    {
        RowScope r(a, CostRow::CallReturn);
        p.callRet(3);
    }
    dispatchOps_ += 3;
    Word header;
    {
        RowScope r(a, CostRow::ReadNi);
        header = ni.readRecvHeader(a);
    }
    // The argument buffer of this nesting depth: a handler may poll
    // (and so re-enter here) while it still reads its own arguments.
    if (recvDepth_ == argBufs_.size())
        argBufs_.push_back(std::make_unique<std::vector<Word>>());
    std::vector<Word> &args = *argBufs_[recvDepth_];
    args.resize(static_cast<std::size_t>(n));
    struct DepthGuard
    {
        std::size_t &depth;
        explicit DepthGuard(std::size_t &d) : depth(d) { ++depth; }
        ~DepthGuard() { --depth; }
    } nested(recvDepth_);
    {
        RowScope r(a, CostRow::ReadNi);
        for (int i = 0; i < n; i += 2) {
            const auto [w0, w1] = ni.readRecvDouble(a);
            args[static_cast<std::size_t>(i)] = w0;
            args[static_cast<std::size_t>(i + 1)] = w1;
        }
    }
    {
        // User-handler (or sink) linkage: CMAM_got_left vectoring +
        // call/save/restore/ret of the handler.
        RowScope r(a, CostRow::CallReturn);
        p.callRet(4);
    }
    dispatchOps_ += 4;

    const std::uint32_t sel = hdr::fieldA(header);
    if (tag == HwTag::UserAm) {
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
Cmam::handleXferData(const Packet &head)
{
    Processor &p = node_.proc();
    Accounting &a = p.acct();
    NetIface &ni = node_.ni();
    const int n = dataWords();
    (void)head;

    Word header;
    {
        RowScope r(a, CostRow::ReadNi);
        header = ni.readRecvHeader(a);
    }
    Word segId, offset;
    {
        // In-order delivery, destination side: extract the placement
        // offset the source packed into the header (shift + mask).
        FeatureScope io(a, Feature::InOrderDelivery);
        p.regOps(2);
        segId = hdr::fieldA(header);
        offset = hdr::fieldB(header);
    }
    // reg 3: tag-vector dispatch into the specialized xfer path
    // (no full handler linkage: CMAM_handle_left_xfer is inlined).
    p.regOps(3);
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
    const Addr bufBase = segs_.bufBase(segId);
    // reg 2: effective store address (segment base + offset);
    // reg 2: segment record address computation.
    p.regOps(4);
    const Addr dst = bufBase + offset;
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
    {
        // In-order delivery: expected-count decrement (1 reg).
        FeatureScope io(a, Feature::InOrderDelivery);
        done = segs_.packetArrived(p, segId);
    }
    if (done)
        completeXfer(segId);
}

void
Cmam::completeXfer(Word segId)
{
    Processor &p = node_.proc();
    Accounting &a = p.acct();

    {
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
