#include "protocols/finite_xfer.hh"

#include <algorithm>

#include "hostprof/hostprof.hh"
#include "sim/log.hh"
#include "sim/trace_session.hh"

namespace msgsim
{

FiniteXfer::FiniteXfer(Stack &stack)
    : stack_(stack),
      handshake_(!stack.provided().acceptanceIndependent)
{
    if (handshake_)
        installSinks();
}

void
FiniteXfer::installSinks()
{
    for (NodeId id = 0; id < stack_.machine().nodeCount(); ++id) {
        Cmam &cm = stack_.cmam(id);
        cm.setControlSink(
            CtrlOp::XferAllocReq,
            [this, id](NodeId src, Word tid,
                       const std::vector<Word> &args) {
                onAllocReq(id, src, tid, args);
            });
        cm.setControlSink(
            CtrlOp::XferAllocReply,
            [this](NodeId, Word tid, const std::vector<Word> &args) {
                onAllocReply(tid, args);
            });
        cm.setControlSink(
            CtrlOp::XferAck,
            [this](NodeId, Word tid, const std::vector<Word> &) {
                onAck(tid);
            });
    }
}

void
FiniteXfer::onAllocReq(NodeId dstNode, NodeId srcNode, Word transferId,
                       const std::vector<Word> &args)
{
    auto it = transfers_.find(transferId);
    if (it == transfers_.end())
        msgsim_panic("alloc request for unknown transfer ", transferId);
    Transfer &t = it->second;

    Node &node = stack_.node(dstNode);
    Cmam &cm = stack_.cmam(dstNode);
    FeatureScope fs(node.acct(), Feature::BufferMgmt);

    // A restarted handshake first retires the stale segment.
    const auto key = std::make_pair(dstNode, transferId);
    if (auto seg_it = dstSegments_.find(key);
        seg_it != dstSegments_.end()) {
        cm.segments().free(node.proc(), seg_it->second);
        dstSegments_.erase(seg_it);
    }

    const Word expected_packets = args.empty() ? 0 : args[0];
    Word seg;
    {
        // Step 2: allocate the communication segment.
        ScopedSpan sp(dstNode, "finite_xfer", "seg_alloc");
        seg = cm.segments().alloc(node.proc(), t.dstBuf,
                                  expected_packets);
    }
    if (seg == invalidSegment) {
        // Overflow safety: no segment available; tell the source to
        // back off (paper Section 2.3's over-commitment avoidance).
        ScopedSpan sp(dstNode, "finite_xfer", "alloc_reply");
        cm.sendControl(srcNode, CtrlOp::XferAllocReply, transferId,
                       {invalidSegment}, /*vnet=*/1);
        return;
    }
    dstSegments_[key] = seg;

    cm.segments().setCompletion(
        seg, [this, dstNode, srcNode, transferId](Word segId) {
            Node &nd = stack_.node(dstNode);
            Cmam &c = stack_.cmam(dstNode);
            {
                // Step 5: release the communication segment.
                FeatureScope f1(nd.acct(), Feature::BufferMgmt);
                ScopedSpan sp(dstNode, "finite_xfer", "seg_free");
                c.segments().free(nd.proc(), segId);
            }
            dstSegments_.erase(std::make_pair(dstNode, transferId));
            {
                // Step 6: end-to-end acknowledgement.
                FeatureScope f2(nd.acct(), Feature::FaultTolerance);
                ScopedSpan sp(dstNode, "finite_xfer", "ack");
                c.sendControl(srcNode, CtrlOp::XferAck, transferId, {},
                              /*vnet=*/1);
            }
        });

    // Step 3: reply with the segment id.
    {
        ScopedSpan sp(dstNode, "finite_xfer", "alloc_reply");
        cm.sendControl(srcNode, CtrlOp::XferAllocReply, transferId,
                       {seg}, /*vnet=*/1);
    }
}

void
FiniteXfer::onAllocReply(Word transferId, const std::vector<Word> &args)
{
    Transfer &t = transfers_.at(transferId);
    t.segId = args.empty() ? invalidSegment : args[0];
    t.gotReply = true;
    if (eventMode_ && t.segId != invalidSegment)
        sendData(transferId);
}

void
FiniteXfer::onAck(Word transferId)
{
    transfers_.at(transferId).gotAck = true;
}

void
FiniteXfer::armTimer(Word transferId)
{
    stack_.sim().scheduleAt<&FiniteXfer::onAckTimeout>(
        stack_.sim().now() + ackTimeout_, this, transferId);
}

void
FiniteXfer::onAckTimeout(std::uint32_t transferId)
{
    auto it = transfers_.find(transferId);
    if (it == transfers_.end() || it->second.gotAck)
        return;
    if (restartTransfer(transferId, maxRestarts_)) {
        armTimer(transferId);
        return;
    }
    // Past the bound: one more restart counted ends run()'s wait.
    ++it->second.restarts;
    msgsim_warn("finite xfer ", transferId, " gave up after ",
                maxRestarts_, " restarts");
}

void
FiniteXfer::sendData(Word transferId)
{
    Transfer &t = transfers_.at(transferId);
    Node &s = stack_.node(t.src);
    const Feature feat =
        t.restarts ? Feature::FaultTolerance : Feature::BaseCost;
    FeatureScope fs(s.acct(), feat);
    ScopedSpan sp(t.src, "finite_xfer", "data");
    // A trusting layer's packets name the posted transfer.
    stack_.sendTransfer(t.src, t.dst, handshake_ ? t.segId : transferId,
                        t.srcBuf, t.words);
    if (t.restarts)
        t.retransmitted += t.packets;
}

Word
FiniteXfer::newTransfer(const FiniteXferParams &params)
{
    const int n = stack_.dataWords();
    if (params.words == 0 ||
        params.words % static_cast<std::uint32_t>(n) != 0)
        msgsim_fatal("finite xfer of ", params.words,
                     " words: not a multiple of packet size ", n);

    Node &src = stack_.node(params.src);
    Node &dst = stack_.node(params.dst);
    const Word tid = nextTransferId_++;
    Transfer fresh;
    fresh.src = params.src;
    fresh.dst = params.dst;
    fresh.words = params.words;
    fresh.packets = params.words / static_cast<std::uint32_t>(n);
    auto spare = std::find_if(
        finished_.begin(), finished_.end(), [&](const auto &entry) {
            const Transfer &f = entry.second;
            return f.src == fresh.src && f.dst == fresh.dst &&
                   f.words == fresh.words;
        });
    if (spare == finished_.end()) {
        fresh.srcBuf = src.mem().alloc(params.words);
        fresh.dstBuf = dst.mem().alloc(params.words);
        transfers_[tid] = fresh;
    } else {
        auto node = finished_.extract(spare);
        fresh.srcBuf = node.mapped().srcBuf;
        fresh.dstBuf = node.mapped().dstBuf;
        node.key() = tid;
        node.mapped() = fresh;
        transfers_.insert(std::move(node));
        // The integrity check must see this run's data land, not the
        // last run's.
        dst.mem().fill(fresh.dstBuf, params.words, 0);
    }
    // Fill the source buffer with a seeded pattern (application data;
    // uncharged setup).
    fillWords(src, fresh.srcBuf, params.words, params.fillSeed);
    return tid;
}

void
FiniteXfer::startTransfer(Word transferId)
{
    const Transfer &t = transfers_.at(transferId);
    if (!handshake_) {
        // Steps 1-3 are the hardware's: on hl the header packet binds
        // the posted buffer, and CR refuses a header the segment table
        // cannot hold until it can; verbs and offload place into it.
        stack_.postTransfer(t.src, t.dst, transferId, t.dstBuf, t.words,
                            [this, transferId](Word) {
                                transfers_.at(transferId).gotAck = true;
                            });
        sendData(transferId);
        return;
    }
    FeatureScope fs(stack_.node(t.src).acct(), Feature::BufferMgmt);
    ScopedSpan sp(t.src, "finite_xfer", "alloc_req");
    stack_.cmam(t.src).sendControl(t.dst, CtrlOp::XferAllocReq,
                                   transferId, {t.packets});
}

Word
FiniteXfer::beginTransfer(const FiniteXferParams &params)
{
    const Word tid = newTransfer(params);
    // Reactive mode: the polled alloc reply triggers the data phase
    // (the checker drives polls from its schedule, not from timers).
    eventMode_ = true;
    startTransfer(tid);
    return tid;
}

bool
FiniteXfer::transferComplete(Word tid) const
{
    return transfers_.at(tid).gotAck;
}

bool
FiniteXfer::transferDataOk(Word tid) const
{
    const Transfer &t = transfers_.at(tid);
    if (!t.gotAck)
        return false;
    Node &src = stack_.node(t.src);
    Node &dst = stack_.node(t.dst);
    for (std::uint32_t i = 0; i < t.words; ++i)
        if (dst.mem().read(t.dstBuf + i) !=
            src.mem().read(t.srcBuf + i))
            return false;
    return true;
}

bool
FiniteXfer::restartTransfer(Word tid, int maxRestarts)
{
    Transfer &t = transfers_.at(tid);
    if (t.gotAck || !handshake_ || t.restarts >= maxRestarts)
        return false;
    ++t.restarts;
    Node &s = stack_.node(t.src);
    FeatureScope fs(s.acct(), Feature::FaultTolerance);
    t.gotReply = false;
    if (TraceSession *ts = TraceSession::current())
        ts->instant(t.src, "finite_xfer", "restart",
                    static_cast<double>(t.restarts));
    {
        ScopedSpan sp(t.src, "finite_xfer", "alloc_req");
        stack_.cmam(t.src).sendControl(t.dst, CtrlOp::XferAllocReq,
                                       tid, {t.packets});
    }
    return true;
}

int
FiniteXfer::transferRestarts(Word tid) const
{
    return transfers_.at(tid).restarts;
}

RunResult
FiniteXfer::run(const FiniteXferParams &params)
{
    hostprof::HostScope hps(hostprof::Site::ProtoXfer);
    RunResult res;
    const Word tid = newTransfer(params);
    Transfer &t = transfers_[tid];
    Node &src = stack_.node(params.src);
    Node &dst = stack_.node(params.dst);

    const RunFrame frame(stack_, params.src, params.dst);
    Tick done_at = frame.t0();

    eventMode_ = params.eventMode;
    if (!params.eventMode) {
        // ---- Calibration mode: the paper's minimum execution path,
        // one explicitly sequenced phase at a time.
        startTransfer(tid); // step 1 (trusting layer: step 4)
        if (handshake_) {
            stack_.settle();
            {
                // Steps 2 + 3.
                FeatureScope fs(dst.acct(), Feature::BufferMgmt);
                stack_.cmam(params.dst).poll();
            }
            stack_.settle();
            {
                FeatureScope fs(src.acct(), Feature::BufferMgmt);
                stack_.cmam(params.src).poll();
            }
            if (!t.gotReply || t.segId == invalidSegment)
                msgsim_panic("finite xfer handshake failed");
            sendData(tid); // step 4, source side
        }
        // Steps 4 + 5 + 6 destination side (completion fires the
        // segment free and the ack inside the poll); verbs also
        // harvests the send completion.
        stack_.pollPending();
        if (handshake_) {
            stack_.settle();
            // Step 6, source side.
            FeatureScope fs(src.acct(), Feature::FaultTolerance);
            stack_.cmam(params.src).poll();
        }
        done_at = stack_.sim().now();
    } else {
        // ---- Event mode: arrival-driven polling, timers, and
        // restart recovery.
        stack_.pollOnArrival(params.src, params.discipline);
        stack_.pollOnArrival(params.dst, params.discipline);
        ackTimeout_ = params.ackTimeout;
        maxRestarts_ = params.maxRestarts;
        startTransfer(tid);
        if (handshake_)
            armTimer(tid);
        stack_.sim().runUntil(
            [&] {
                return t.gotAck || t.restarts > params.maxRestarts;
            },
            50'000'000);
        done_at = stack_.sim().now();
        stack_.stopPollOnArrival(params.src);
        stack_.stopPollOnArrival(params.dst);
    }

    frame.finish(res, done_at);
    res.packets = t.packets;
    res.acksSent = handshake_ ? 1 : 0;
    res.retransmissions = t.retransmitted;

    // End-to-end integrity.
    res.dataOk = t.gotAck;
    for (std::uint32_t i = 0; res.dataOk && i < params.words; ++i)
        if (dst.mem().read(t.dstBuf + i) != src.mem().read(t.srcBuf + i))
            res.dataOk = false;
    // Leave nothing queued: the ack timer must not outlive the engine.
    if (params.eventMode)
        stack_.settle();
    // Nothing refers to a completed run's id again: recycle it.  A
    // failed run keeps its buffers, where stray packets may still land.
    if (t.gotAck)
        finished_.insert(transfers_.extract(tid));
    return res;
}

} // namespace msgsim
