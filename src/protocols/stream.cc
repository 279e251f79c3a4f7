#include "protocols/stream.hh"

#include <algorithm>

#include "cmam/send_path.hh"
#include "hostprof/hostprof.hh"
#include "sim/log.hh"
#include "sim/metrics.hh"
#include "sim/rng.hh"
#include "sim/trace_session.hh"

namespace msgsim
{

namespace
{
constexpr Word nilLink = ~Word(0);
constexpr std::uint32_t maxSeqHeader = hdr::maxFieldB;
} // namespace

StreamProtocol::StreamProtocol(Stack &stack) : stack_(stack)
{
    for (NodeId id = 0; id < stack_.machine().nodeCount(); ++id) {
        stack_.cmam(id).setStreamDataSink([this, id](NodeId pktSrc) {
            onStreamData(id, pktSrc);
        });
        stack_.cmam(id).setStreamAckSink([this, id](NodeId pktSrc) {
            onStreamAck(id, pktSrc);
        });
    }
}

StreamProtocol::Channel &
StreamProtocol::openChannel(const StreamParams &params, DeliverFn cb)
{
    Word id;
    if (!freeIds_.empty()) {
        id = freeIds_.back();
        freeIds_.pop_back();
    } else {
        id = nextChanId_++;
        if (id > hdr::maxFieldA)
            msgsim_fatal("stream channel ids exhausted");
    }
    Channel &ch = channels_[id];
    ch.src = params.src;
    ch.dst = params.dst;
    ch.id = id;
    ch.groupAck = params.groupAck < 1 ? 1 : params.groupAck;
    ch.window = params.window;
    ch.userCb = std::move(cb);

    const int n = stack_.dataWords();
    const std::uint32_t packets =
        params.words / static_cast<std::uint32_t>(n);
    const std::uint32_t slot_words = 2 + static_cast<std::uint32_t>(n);

    // Channel setup (uncharged, models connection establishment):
    // reuse a retired channel's modeled regions when big enough,
    // else carve fresh ones.
    bool reused = false;
    for (auto it = resourcePool_.begin(); it != resourcePool_.end();
         ++it) {
        if (it->src == params.src && it->dst == params.dst &&
            it->retxSlots >= packets + 1 &&
            it->arenaSlots >= packets + 2) {
            ch.seqAddr = it->seqAddr;
            ch.lastSentAddr = it->lastSentAddr;
            ch.retxBase = it->retxBase;
            ch.retxSlots = it->retxSlots;
            ch.arenaBase = it->arenaBase;
            ch.arenaSlots = it->arenaSlots;
            ch.listHeadAddr = it->listHeadAddr;
            ch.pendingCountAddr = it->pendingCountAddr;
            ch.lastDeliveredAddr = it->lastDeliveredAddr;
            resourcePool_.erase(it);
            reused = true;
            break;
        }
    }
    if (!reused) {
        // Sender-side sequence state and retransmission ring ...
        Node &s = stack_.node(ch.src);
        ch.seqAddr = s.mem().alloc(1);
        ch.lastSentAddr = s.mem().alloc(1);
        ch.retxSlots = packets + 1;
        ch.retxBase =
            s.mem().alloc(static_cast<std::size_t>(ch.retxSlots) *
                          static_cast<std::size_t>(n));
        // ... and receiver-side reorder arena (seq, link, n data
        // words per slot) plus list bookkeeping words.
        Node &d = stack_.node(ch.dst);
        ch.arenaSlots = packets + 2;
        ch.arenaBase =
            d.mem().alloc(static_cast<std::size_t>(ch.arenaSlots) *
                          slot_words);
        ch.listHeadAddr = d.mem().alloc(1);
        ch.pendingCountAddr = d.mem().alloc(1);
        ch.lastDeliveredAddr = d.mem().alloc(1);
    }

    stack_.node(ch.src).mem().write(ch.seqAddr, 0);
    stack_.node(ch.dst).mem().write(ch.listHeadAddr, nilLink);
    ch.freeSlots.reserve(ch.arenaSlots);
    for (std::uint32_t i = 0; i < ch.arenaSlots; ++i)
        ch.freeSlots.push_back(ch.arenaBase + i * slot_words);
    return ch;
}

void
StreamProtocol::closeChannel(Word id)
{
    auto it = channels_.find(id);
    if (it == channels_.end())
        return;
    const Channel &ch = it->second;
    ChannelResources res;
    res.src = ch.src;
    res.dst = ch.dst;
    res.seqAddr = ch.seqAddr;
    res.lastSentAddr = ch.lastSentAddr;
    res.retxBase = ch.retxBase;
    res.retxSlots = ch.retxSlots;
    res.arenaBase = ch.arenaBase;
    res.arenaSlots = ch.arenaSlots;
    res.listHeadAddr = ch.listHeadAddr;
    res.pendingCountAddr = ch.pendingCountAddr;
    res.lastDeliveredAddr = ch.lastDeliveredAddr;
    resourcePool_.push_back(res);
    freeIds_.push_back(id);
    channels_.erase(it);
}

void
StreamProtocol::sendPacket(Channel &ch, const std::vector<Word> &data)
{
    Node &s = srcNode(ch);
    Processor &p = s.proc();
    Accounting &a = p.acct();
    const int n = stack_.dataWords();
    ScopedSpan span(ch.src, "stream", "send_data");

    std::uint32_t seq;
    {
        // In-order delivery, source side (2 reg + 3 mem): load the
        // channel's sequence counter, increment, store back, pack it
        // into the header, and record the last sequence injected.
        FeatureScope io(a, Feature::InOrderDelivery);
        seq = p.loadWord(ch.seqAddr);                    // mem 1
        p.regOps(1);                                     // increment
        p.storeWord(ch.seqAddr, seq + 1);                // mem 2
        p.regOps(1);                                     // header pack
        p.storeWord(ch.lastSentAddr, seq);               // mem 3
    }
    if (seq > maxSeqHeader)
        msgsim_fatal("stream sequence ", seq, " exceeds header field");

    {
        // Fault tolerance, source side (6 reg + n/2 mem): copy the
        // outgoing payload into the retransmission ring so it can be
        // resent until acknowledged.
        FeatureScope ft(a, Feature::FaultTolerance);
        p.regOps(2); // ring slot address (mod + multiply-add)
        const Addr slot =
            ch.retxBase + (seq % ch.retxSlots) *
                              static_cast<std::uint32_t>(n);
        for (int i = 0; i < n; i += 2)
            p.storeDouble(slot + static_cast<Addr>(i),
                          data[static_cast<std::size_t>(i)],
                          data[static_cast<std::size_t>(i + 1)]);
        p.regOps(4); // ring index update, wrap test, branch
        // Sequences only grow, so appending keeps the list ascending.
        ch.unacked.push_back({seq, stack_.sim().now()});
    }

    // Base cost: the single-packet send itself (register-to-register:
    // the payload is already in registers); a full hardware packet.
    stack_.cmam(ch.src).sendTagged(
        HwTag::StreamData, ch.dst,
        hdr::pack(ch.id, seq & hdr::maxFieldB), data, 0);
    ch.nextSeq = seq + 1;
}

void
StreamProtocol::retransmit(Channel &ch, InFlight &pkt)
{
    Node &s = srcNode(ch);
    Processor &p = s.proc();
    Accounting &a = p.acct();
    const int n = stack_.dataWords();
    ScopedSpan span(ch.src, "stream", "retransmit");

    FeatureScope ft(a, Feature::FaultTolerance);
    // Reload the payload from the retransmission ring and resend.
    const std::uint32_t seq = pkt.seq;
    p.regOps(4);
    const Addr slot = ch.retxBase +
                      (seq % ch.retxSlots) * static_cast<std::uint32_t>(n);
    ScratchPool<std::vector<Word>>::Lease data(wordBufs_);
    data->resize(static_cast<std::size_t>(n));
    for (int i = 0; i < n; i += 2) {
        const auto [w0, w1] = p.loadDouble(slot + static_cast<Addr>(i));
        (*data)[static_cast<std::size_t>(i)] = w0;
        (*data)[static_cast<std::size_t>(i + 1)] = w1;
    }
    stack_.cmam(ch.src).sendTagged(
        HwTag::StreamData, ch.dst,
        hdr::pack(ch.id, seq & hdr::maxFieldB), *data, 0);
    pkt.sentAt = stack_.sim().now();
    ++ch.retx;
    ++totals_.retransmissions;
}

void
StreamProtocol::onStreamData(NodeId self, NodeId pktSrc)
{
    Node &nd = stack_.node(self);
    Processor &p = nd.proc();
    Accounting &a = p.acct();
    NetIface &ni = nd.ni();
    const int n = stack_.dataWords();
    ScopedSpan span(self, "stream", "recv_data");

    // Base cost: header and payload extraction plus dispatch; the
    // poll loop already charged its per-iteration status/branch cost.
    Word header;
    {
        RowScope r(a, CostRow::ReadNi);
        header = ni.readRecvHeader(a);
    }
    // Leased: delivery runs the channel's callback, which may poll and
    // so re-enter here while this packet's words are still being read.
    ScratchPool<std::vector<Word>>::Lease data(wordBufs_);
    data->resize(static_cast<std::size_t>(n));
    {
        RowScope r(a, CostRow::ReadNi);
        for (int i = 0; i < n; i += 2) {
            const auto [w0, w1] = ni.readRecvDouble(a);
            (*data)[static_cast<std::size_t>(i)] = w0;
            (*data)[static_cast<std::size_t>(i + 1)] = w1;
        }
    }
    p.regOps(3); // tag-vector dispatch
    {
        // Per-packet handler linkage, charged flat per the paper's
        // per-packet base accounting (OOO packets pay it here even
        // though their handler runs at drain time).
        RowScope r(a, CostRow::CallReturn);
        p.callRet(4);
    }

    const Word chan = hdr::fieldA(header);
    auto it = channels_.find(chan);
    if (it == channels_.end())
        msgsim_panic("stream data for unknown channel ", chan);
    Channel &ch = it->second;

    std::uint32_t seq;
    {
        // In-order delivery: sequence extraction (shift + mask).
        FeatureScope io(a, Feature::InOrderDelivery);
        p.regOps(2);
        seq = hdr::fieldB(header);
    }

    if (seq == ch.expected) {
        {
            // In-sequence fast path: compare, advance, branches.
            FeatureScope io(a, Feature::InOrderDelivery);
            p.regOps(4);
        }
        deliverInSeq(ch, seq, *data);
        drainReorder(ch);
        ackArrival(ch, seq);
    } else if (seq > ch.expected && !ch.pending.count(seq)) {
        if (bugAckBeforeInsert_) {
            // Injected bug (see setBugAckBeforeInsert): the ack goes
            // out first, and the insert never happens — the packet is
            // acknowledged yet lost.
            ackArrival(ch, seq);
        } else {
            insertReorder(ch, seq, *data);
            ++ch.ooo;
            ++totals_.oooBuffered;
            ackArrival(ch, seq);
        }
    } else {
        // Duplicate (retransmission overlap or lost ack): discard and
        // re-acknowledge so the source can release its buffer.
        p.regOps(2);
        ++ch.dups;
        ++totals_.duplicatesSuppressed;
        FeatureScope ft(a, Feature::FaultTolerance);
        sendAck(ch, seq, false);
    }
    (void)pktSrc;
}

void
StreamProtocol::deliverInSeq(Channel &ch, std::uint32_t seq,
                             const std::vector<Word> &data)
{
    // Delivery itself is the user handler consuming register-resident
    // data; the linkage was charged in the flat per-packet base cost.
    if (ch.journal)
        ch.deliveredWords.insert(ch.deliveredWords.end(), data.begin(),
                                 data.end());
    ++ch.deliveredPackets;
    ch.expected = seq + 1;
    if (ch.userCb)
        ch.userCb(seq, data);
}

void
StreamProtocol::insertReorder(Channel &ch, std::uint32_t seq,
                              const std::vector<Word> &data)
{
    Node &nd = dstNode(ch);
    Processor &p = nd.proc();
    Accounting &a = p.acct();
    const int n = stack_.dataWords();
    ScopedSpan span(ch.dst, "stream", "reorder_insert");

    // Out-of-order buffering (13 reg + (9 + n/2) mem): pop a slot
    // from the arena free list, fill it, and link it into the
    // seq-sorted pending list.
    FeatureScope io(a, Feature::InOrderDelivery);
    if (ch.freeSlots.empty())
        msgsim_panic("reorder arena exhausted on channel ", ch.id);
    const Addr slot = ch.freeSlots.back();
    ch.freeSlots.pop_back();

    p.regOps(4); // slot address arithmetic, free-list pop
    // Free-list head load/store (modeled; the C++ free list mirrors
    // a memory-resident one).
    (void)p.loadWord(ch.listHeadAddr);                        // mem 1
    p.storeWord(ch.listHeadAddr, nd.mem().read(ch.listHeadAddr)); // mem 2
    p.storeWord(slot + 0, seq);                               // mem 3
    p.storeWord(slot + 1, nilLink);                           // mem 4
    for (int i = 0; i < n; i += 2)
        p.storeDouble(slot + 2 + static_cast<Addr>(i),
                      data[static_cast<std::size_t>(i)],
                      data[static_cast<std::size_t>(i + 1)]); // n/2
    // Sorted-list scan and splice.
    (void)p.loadWord(ch.listHeadAddr);                        // mem 5
    (void)p.loadWord(slot + 0);                               // mem 6
    p.storeWord(ch.listHeadAddr, slot);                       // mem 7
    p.storeWord(ch.pendingCountAddr,
                static_cast<Word>(ch.pending.size() + 1));    // mem 8
    p.storeWord(ch.lastDeliveredAddr, ch.expected);           // mem 9
    p.regOps(9); // scan compares, splice branches

    ch.pending[seq] = slot;
}

void
StreamProtocol::drainReorder(Channel &ch)
{
    Node &nd = dstNode(ch);
    Processor &p = nd.proc();
    Accounting &a = p.acct();
    const int n = stack_.dataWords();

    // Deliver buffered successors now in sequence: 14 reg +
    // (10 + n/2) mem per drained packet.
    while (!ch.pending.empty() &&
           ch.pending.begin()->first == ch.expected) {
        ScopedSpan span(ch.dst, "stream", "reorder_drain");
        FeatureScope io(a, Feature::InOrderDelivery);
        const auto [seq, slot] = *ch.pending.begin();
        ch.pending.erase(ch.pending.begin());

        (void)p.loadWord(ch.listHeadAddr);                    // mem 1
        (void)p.loadWord(slot + 0);                           // mem 2
        (void)p.loadWord(slot + 1);                           // mem 3
        ScratchPool<std::vector<Word>>::Lease data(wordBufs_);
        data->resize(static_cast<std::size_t>(n));
        for (int i = 0; i < n; i += 2) {
            const auto [w0, w1] =
                p.loadDouble(slot + 2 + static_cast<Addr>(i)); // n/2
            (*data)[static_cast<std::size_t>(i)] = w0;
            (*data)[static_cast<std::size_t>(i + 1)] = w1;
        }
        p.storeWord(ch.listHeadAddr, nd.mem().read(slot + 1)); // mem 4
        p.storeWord(slot + 1, nilLink);                        // mem 5
        p.storeWord(ch.pendingCountAddr,
                    static_cast<Word>(ch.pending.size()));     // mem 6
        p.storeWord(ch.lastDeliveredAddr, seq);                // mem 7
        (void)p.loadWord(ch.pendingCountAddr);                 // mem 8
        (void)p.loadWord(ch.lastDeliveredAddr);                // mem 9
        p.storeWord(slot + 0, 0);                              // mem 10
        p.regOps(14); // head/seq compares, unlink, free-list return

        ch.freeSlots.push_back(slot);
        deliverInSeq(ch, seq, *data);
    }
}

void
StreamProtocol::ackArrival(Channel &ch, std::uint32_t seq)
{
    Node &nd = dstNode(ch);
    Processor &p = nd.proc();
    Accounting &a = p.acct();
    ScopedSpan span(ch.dst, "stream", "send_ack");

    FeatureScope ft(a, Feature::FaultTolerance);
    if (ch.groupAck <= 1) {
        // Per-packet selective acknowledgement: one single-packet
        // send (20 at n = 4).
        sendAck(ch, seq, false);
        return;
    }
    // Group acknowledgement: track arrivals (2 reg) and emit one
    // cumulative ack per G packets.
    p.regOps(2);
    ++ch.groupCount;
    if (ch.groupCount >= ch.groupAck && ch.expected > 0) {
        ch.groupCount = 0;
        sendAck(ch, ch.expected - 1, true);
    }
}

void
StreamProtocol::flushGroupAck(Channel &ch)
{
    if (ch.groupAck <= 1 || ch.expected == 0 || ch.groupCount == 0)
        return;
    Node &nd = dstNode(ch);
    FeatureScope ft(nd.proc().acct(), Feature::FaultTolerance);
    ch.groupCount = 0;
    sendAck(ch, ch.expected - 1, true);
}

void
StreamProtocol::sendAck(Channel &ch, std::uint32_t seq, bool cumulative)
{
    ScratchPool<std::vector<Word>>::Lease args(wordBufs_);
    args->assign({seq, cumulative ? Word(1) : Word(0)});
    stack_.cmam(ch.dst).sendTagged(
        HwTag::StreamAck, ch.src, hdr::pack(ch.id, seq & hdr::maxFieldB),
        *args, 4, 1);
    ++ch.acksSent;
    ++totals_.acksSent;
}

void
StreamProtocol::onStreamAck(NodeId self, NodeId pktSrc)
{
    Node &nd = stack_.node(self);
    Processor &p = nd.proc();
    Accounting &a = p.acct();
    NetIface &ni = nd.ni();
    ScopedSpan span(self, "stream", "recv_ack");
    // Acks are 4-word control-format packets at any hardware size.
    const int n = static_cast<int>(ni.hwPeekRecv()->data.size());

    // Ack consumption (13 reg + 4 dev here; the enclosing loop
    // iteration supplies 3 reg + 1 dev, totalling the paper's
    // 16 reg + 5 dev).
    FeatureScope ft(a, Feature::FaultTolerance);
    Word header;
    {
        RowScope r(a, CostRow::ReadNi);
        header = ni.readRecvHeader(a);
        (void)ni.readRecvSource(a); // window lookup key
    }
    // Payload: {seq, cumulative flag}, then padding.
    std::uint32_t seq = 0;
    bool cumulative = false;
    {
        RowScope r(a, CostRow::ReadNi);
        for (int i = 0; i < n; i += 2) {
            const auto [w0, w1] = ni.readRecvDouble(a);
            if (i == 0) {
                seq = w0;
                cumulative = w1 != 0;
            }
        }
    }
    p.regOps(3); // dispatch
    p.regOps(2); // channel/sequence extraction

    const Word chan = hdr::fieldA(header);
    auto it = channels_.find(chan);
    if (it == channels_.end())
        msgsim_panic("stream ack for unknown channel ", chan);
    Channel &ch = it->second;

    p.regOps(6); // window bitmap update, ring head advance
    p.regOps(2); // release branches
    std::vector<InFlight> &u = ch.unacked;
    if (cumulative) {
        u.erase(u.begin(),
                std::partition_point(u.begin(), u.end(),
                                     [seq](const InFlight &f) {
                                         return f.seq <= seq;
                                     }));
    } else {
        const auto it = std::partition_point(
            u.begin(), u.end(),
            [seq](const InFlight &f) { return f.seq < seq; });
        if (it != u.end() && it->seq == seq)
            u.erase(it);
    }
    // Window flow control: freed slots admit backlogged packets.
    if (!ch.sendQueue.empty())
        pumpWindow(ch, ch.window);
    (void)pktSrc;
}

void
StreamProtocol::consumeAcks(Channel &ch)
{
    // Calibration-mode ack drain: CMAM folds the incoming-packet test
    // into the send path's status reads, so ack consumption costs one
    // loop iteration (1 dev + 3 reg) plus the ack sink — no fresh
    // poll entry.
    Node &s = srcNode(ch);
    while (s.ni().hwRecvPending()) {
        const Packet *head = s.ni().hwPeekRecv();
        if (head->tag != HwTag::StreamAck)
            break;
        {
            FeatureScope ft(s.proc().acct(), Feature::FaultTolerance);
            (void)pollIterationStatus(s);
        }
        onStreamAck(ch.src, head->src);
    }
}

Word
StreamProtocol::openPersistent(NodeId src, NodeId dst, int groupAck,
                               std::uint32_t ringPackets, DeliverFn cb)
{
    StreamParams params;
    params.src = src;
    params.dst = dst;
    params.groupAck = groupAck;
    params.words = ringPackets *
                   static_cast<std::uint32_t>(stack_.dataWords());
    Channel &ch = openChannel(params, std::move(cb));
    return ch.id;
}

void
StreamProtocol::progressOnce()
{
    stack_.settle();
    for (NodeId id = 0; id < stack_.machine().nodeCount(); ++id) {
        Node &node = stack_.node(id);
        if (!node.ni().hwRecvPending())
            continue;
        FeatureScope fs(node.acct(), Feature::BaseCost);
        stack_.cmam(id).poll();
    }
    stack_.settle();
}

void
StreamProtocol::sendOn(Word chan, const std::vector<Word> &words)
{
    Channel &ch = channels_.at(chan);
    const int n = stack_.dataWords();
    if (words.empty() ||
        words.size() % static_cast<std::size_t>(n) != 0)
        msgsim_fatal("socket write of ", words.size(),
                     " words: must be a positive multiple of ", n);

    ScratchPool<std::vector<Word>>::Lease pkt(wordBufs_);
    for (std::size_t off = 0; off < words.size();
         off += static_cast<std::size_t>(n)) {
        // Software end-to-end flow control: the retransmission ring
        // bounds the in-flight window; block until a slot frees.
        // Blocking uses the same timeout model as flushChannel: a
        // lost packet leaves a hole no cumulative group ack can
        // cover, so idle rounds must eventually retransmit.
        int guard = 0;
        std::size_t before = ch.unacked.size();
        while (ch.unacked.size() >= ch.retxSlots - 1) {
            if (ch.groupAck > 1 && ch.groupCount > 0)
                flushGroupAck(ch);
            progressOnce();
            if (ch.unacked.size() < before) {
                before = ch.unacked.size();
                guard = 0;
                continue;
            }
            ++guard;
            if (guard % 4 == 0)
                retransmitUnacked(chan);
            if (guard > 1000)
                msgsim_panic("socket write stalled: ring never "
                             "drains on channel ", chan);
        }
        pkt->assign(words.begin() + static_cast<long>(off),
                    words.begin() + static_cast<long>(off) + n);
        sendPacket(ch, *pkt);
    }
}

void
StreamProtocol::flushChannel(Word chan)
{
    Channel &ch = channels_.at(chan);
    int idle_rounds = 0;
    while (!ch.unacked.empty()) {
        const std::size_t before = ch.unacked.size();
        progressOnce();
        if (ch.unacked.size() == before) {
            // No forward progress: a partial ack group may be holding
            // things up -- flush it; if that still isn't enough (a
            // data or ack packet was lost outright), fall back to the
            // timeout model and resend everything outstanding.
            if (ch.groupAck > 1 && ch.groupCount > 0)
                flushGroupAck(ch);
            ++idle_rounds;
            if (idle_rounds % 4 == 0)
                retransmitUnacked(chan);
            if (idle_rounds > 256)
                msgsim_panic("socket flush stalled on channel ", chan);
        } else {
            idle_rounds = 0;
        }
    }
}

void
StreamProtocol::closePersistent(Word chan)
{
    flushChannel(chan);
    closeChannel(chan);
}

std::uint64_t
StreamProtocol::channelUnacked(Word chan) const
{
    return channels_.at(chan).unacked.size();
}

std::uint64_t
StreamProtocol::channelOoo(Word chan) const
{
    return channels_.at(chan).ooo;
}

std::uint64_t
StreamProtocol::channelDups(Word chan) const
{
    return channels_.at(chan).dups;
}

std::uint64_t
StreamProtocol::channelDelivered(Word chan) const
{
    return channels_.at(chan).deliveredPackets;
}

std::size_t
StreamProtocol::channelPending(Word chan) const
{
    return channels_.at(chan).pending.size();
}

std::size_t
StreamProtocol::channelBacklog(Word chan) const
{
    const Channel &ch = channels_.at(chan);
    return ch.sendQueue.size() - ch.nextToSend;
}

std::uint32_t
StreamProtocol::channelRetxSlots(Word chan) const
{
    return channels_.at(chan).retxSlots;
}

std::uint32_t
StreamProtocol::channelArenaSlots(Word chan) const
{
    return channels_.at(chan).arenaSlots;
}

bool
StreamProtocol::channelOpen(Word chan) const
{
    return channels_.count(chan) != 0;
}

void
StreamProtocol::retransmitUnacked(Word chan)
{
    Channel &ch = channels_.at(chan);
    // retransmit() sends without polling, so nothing can ack (and so
    // erase) an entry while this walks the list.
    for (InFlight &pkt : ch.unacked)
        retransmit(ch, pkt);
}

void
StreamProtocol::flushGroupAcks(Word chan)
{
    flushGroupAck(channels_.at(chan));
}

void
StreamProtocol::publishMetrics(MetricsRegistry &reg,
                               const std::string &prefix) const
{
    reg.counter(prefix + ".retransmissions") =
        totals_.retransmissions;
    reg.counter(prefix + ".duplicates_suppressed") =
        totals_.duplicatesSuppressed;
    reg.counter(prefix + ".ooo_buffered") = totals_.oooBuffered;
    reg.counter(prefix + ".acks_sent") = totals_.acksSent;
}

void
StreamProtocol::armFlushTimer(Word chanId, Tick period)
{
    // Group-ack flush timer (event mode): an indefinite stream's
    // receiver cannot know when the last group will complete, so it
    // periodically flushes a cumulative acknowledgement while the
    // channel is live.
    stack_.sim().schedule(period, [this, chanId, period] {
        auto it = channels_.find(chanId);
        if (it == channels_.end())
            return;
        Channel &ch = it->second;
        if (ch.groupCount > 0)
            flushGroupAck(ch);
        if (!ch.unacked.empty() ||
            ch.nextToSend < ch.sendQueue.size() || ch.groupCount > 0)
            armFlushTimer(chanId, period);
    });
}

void
StreamProtocol::schedulePoll(NodeId id)
{
    if (pollPending_[id])
        return;
    pollPending_[id] = true;
    stack_.sim().schedule(1, [this, id] {
        pollPending_[id] = false;
        Node &nd = stack_.node(id);
        FeatureScope fs(nd.acct(), Feature::BaseCost);
        if (runDiscipline_ == RecvDiscipline::Interrupt)
            stack_.cmam(id).interruptService();
        else
            stack_.cmam(id).poll();
    });
}

void
StreamProtocol::pumpWindow(Channel &ch, std::uint32_t window)
{
    while (ch.nextToSend < ch.sendQueue.size() &&
           (window == 0 || ch.unacked.size() < window))
        sendPacket(ch, ch.sendQueue[ch.nextToSend++]);
}

void
StreamProtocol::armRetxTimer(Word chanId, const StreamParams &params)
{
    stack_.sim().schedule(params.retxTimeout, [this, chanId, params] {
        auto it = channels_.find(chanId);
        if (it == channels_.end())
            return;
        Channel &ch = it->second;
        if (ch.unacked.empty() &&
            ch.nextToSend >= ch.sendQueue.size())
            return; // stream fully acknowledged: timer dies
        if (ch.retx >= static_cast<std::uint64_t>(params.maxRetx)) {
            msgsim_warn("stream channel ", chanId,
                        " exceeded retransmission bound");
            return;
        }
        const Tick now = stack_.sim().now();
        for (InFlight &pkt : ch.unacked)
            if (now - pkt.sentAt >= params.retxTimeout)
                retransmit(ch, pkt);
        pumpWindow(ch, params.window);
        armRetxTimer(chanId, params);
    });
}

RunResult
StreamProtocol::run(const StreamParams &params)
{
    hostprof::HostScope hps(hostprof::Site::ProtoStream);
    RunResult res;
    const int n = stack_.dataWords();
    if (params.words == 0 ||
        params.words % static_cast<std::uint32_t>(n) != 0)
        msgsim_fatal("stream of ", params.words,
                     " words: not a multiple of packet size ", n);
    const std::uint32_t packets =
        params.words / static_cast<std::uint32_t>(n);

    Channel &ch = openChannel(params, nullptr);
    ch.journal = true;
    ch.deliveredWords.reserve(params.words);
    Node &src = stack_.node(params.src);
    Node &dst = stack_.node(params.dst);

    // Generate the stream contents (register-resident application
    // data; uncharged).
    std::vector<std::vector<Word>> data(packets);
    std::uint64_t sm = params.fillSeed;
    for (auto &pkt : data) {
        pkt.resize(static_cast<std::size_t>(n));
        for (auto &w : pkt)
            w = static_cast<Word>(splitMix64(sm));
    }

    const InstrCounter src_before = src.acct().counter();
    const InstrCounter dst_before = dst.acct().counter();
    const Tick t0 = stack_.sim().now();
    Tick done_at = t0;

    if (!params.eventMode) {
        // ---- Calibration mode: minimum execution path.
        for (const auto &pkt : data)
            sendPacket(ch, pkt);
        stack_.settle();
        {
            FeatureScope fs(dst.acct(), Feature::BaseCost);
            stack_.cmam(params.dst).poll();
        }
        flushGroupAck(ch);
        stack_.settle();
        consumeAcks(ch);
        done_at = stack_.sim().now();
    } else {
        // ---- Event mode: hooks, window pump, retransmission.
        runDiscipline_ = params.discipline;
        src.ni().setArrivalHook(
            [this, id = params.src] { schedulePoll(id); });
        dst.ni().setArrivalHook(
            [this, id = params.dst] { schedulePoll(id); });
        ch.sendQueue = data;
        pumpWindow(ch, params.window);
        armRetxTimer(ch.id, params);
        if (params.groupAck > 1)
            armFlushTimer(ch.id, params.retxTimeout / 2);
        stack_.sim().runUntil(
            [&] {
                return (ch.deliveredPackets >= packets &&
                        ch.unacked.empty() &&
                        ch.nextToSend >= ch.sendQueue.size()) ||
                       ch.retx >=
                           static_cast<std::uint64_t>(params.maxRetx);
            },
            50'000'000);
        done_at = stack_.sim().now();
        // Let straggler acks and duplicate traffic settle (timers may
        // run past the completion instant; they don't count toward
        // the exchange's latency).
        stack_.settle();
        src.ni().setArrivalHook(nullptr);
        dst.ni().setArrivalHook(nullptr);
    }

    res.counts.src = src.acct().counter().diff(src_before);
    res.counts.dst = dst.acct().counter().diff(dst_before);
    res.elapsed = done_at - t0;
    res.packets = packets;
    res.oooArrivals = ch.ooo;
    res.acksSent = ch.acksSent;
    res.retransmissions = ch.retx;
    res.duplicates = ch.dups;

    // Integrity: the receiver must have observed the exact word
    // stream, in order.
    res.dataOk = ch.deliveredWords.size() ==
                 static_cast<std::size_t>(params.words);
    if (res.dataOk) {
        std::size_t k = 0;
        for (const auto &pkt : data)
            for (Word w : pkt)
                if (ch.deliveredWords[k++] != w) {
                    res.dataOk = false;
                    break;
                }
    }
    closeChannel(ch.id);
    return res;
}

} // namespace msgsim
