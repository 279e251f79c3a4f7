#include "msglib/msg_passing.hh"

#include "sim/log.hh"

namespace msgsim
{

namespace
{
/// GenericB payload word 0: message kind.
constexpr Word kindReply = 0;
constexpr Word kindAck = 1;
} // namespace

MsgPassing::MsgPassing(Stack &stack) : stack_(stack)
{
    installSinks();
}

void
MsgPassing::installSinks()
{
    for (NodeId id = 0; id < stack_.machine().nodeCount(); ++id) {
        Cmam &cm = stack_.cmam(id);
        cm.setControlSink(
            CtrlOp::GenericA,
            [this, id](NodeId src, Word sendId,
                       const std::vector<Word> &args) {
                onSendReq(id, src, sendId, args.at(0), args.at(1));
            });
        cm.setControlSink(
            CtrlOp::GenericB,
            [this, id](NodeId src, Word hdrArg,
                       const std::vector<Word> &args) {
                onReplyOrAck(id, src, hdrArg, args);
            });
    }
}

bool
MsgPassing::matches(const PostedRecv &r, NodeId src, Word tag) const
{
    if (r.done)
        return false;
    if (r.from != anySource && r.from != src)
        return false;
    if (r.tag != anyTag && r.tag != tag)
        return false;
    return true;
}

MsgPassing::RecvHandle
MsgPassing::postRecv(NodeId self, Addr buf, std::uint32_t maxWords,
                     Word tag, NodeId from)
{
    const RecvHandle h = nextRecv_++;
    PostedRecv r;
    r.self = self;
    r.buf = buf;
    r.maxWords = maxWords;
    r.tag = tag;
    r.from = from;
    recvs_[h] = r;

    Node &node = stack_.node(self);
    {
        // Posting cost: append to the posted-receive queue (modeled:
        // descriptor stores + queue-tail update).
        FeatureScope bm(node.acct(), Feature::BufferMgmt);
        node.proc().regOps(6);
        node.proc().acct().charge(OpClass::MemStore, 3);
    }

    // First service the unexpected-message queue (rendezvous
    // requests that raced ahead of this post).
    auto &uq = unexpectedQueue_[self];
    for (auto it = uq.begin(); it != uq.end(); ++it) {
        // Matching scan: tag/source compares per visited entry.
        {
            FeatureScope bm(node.acct(), Feature::BufferMgmt);
            node.proc().regOps(4);
        }
        if (matches(recvs_[h], it->src, it->tag)) {
            const UnexpectedMsg m = *it;
            uq.erase(it);
            match(self, m, h);
            return h;
        }
    }
    postedQueue_[self].push_back(h);
    return h;
}

MsgPassing::SendHandle
MsgPassing::send(NodeId self, NodeId dst, Addr buf,
                 std::uint32_t words, Word tag)
{
    const int n = stack_.dataWords();
    if (words == 0 || words % static_cast<std::uint32_t>(n) != 0)
        msgsim_fatal("msglib send of ", words, " words: must be a "
                     "positive multiple of the packet size ", n);
    if (tag > hdr::maxFieldB)
        msgsim_fatal("msglib tag ", tag, " exceeds 24 bits");

    const SendHandle h = nextSend_++;
    PendingSend s;
    s.self = self;
    s.dst = dst;
    s.buf = buf;
    s.words = words;
    s.tag = tag;
    sends_[h] = s;

    // Rendezvous request: (tag, size) ride a control packet.
    Node &node = stack_.node(self);
    FeatureScope bm(node.acct(), Feature::BufferMgmt);
    stack_.cmam(self).sendControl(dst, CtrlOp::GenericA, h,
                                  {tag, words});
    return h;
}

void
MsgPassing::onSendReq(NodeId self, NodeId src, Word sendId, Word tag,
                      std::uint32_t words)
{
    Node &node = stack_.node(self);

    // Walk the posted-receive queue looking for the first match.
    auto &pq = postedQueue_[self];
    for (auto it = pq.begin(); it != pq.end(); ++it) {
        {
            FeatureScope bm(node.acct(), Feature::BufferMgmt);
            node.proc().regOps(4);
        }
        if (matches(recvs_.at(*it), src, tag)) {
            const RecvHandle rh = *it;
            pq.erase(it);
            match(self, UnexpectedMsg{src, tag, words, sendId}, rh);
            return;
        }
    }

    // No match: park in the unexpected-message queue.
    {
        FeatureScope bm(node.acct(), Feature::BufferMgmt);
        node.proc().regOps(8);
        node.proc().acct().charge(OpClass::MemStore, 4);
    }
    unexpectedQueue_[self].push_back(
        UnexpectedMsg{src, tag, words, sendId});
    ++unexpected_;
}

void
MsgPassing::match(NodeId self, const UnexpectedMsg &m, RecvHandle rh)
{
    Node &node = stack_.node(self);
    Cmam &cm = stack_.cmam(self);
    PostedRecv &r = recvs_.at(rh);
    const int n = stack_.dataWords();

    if (m.words > r.maxWords)
        msgsim_fatal("msglib: message of ", m.words,
                     " words overflows the posted buffer of ",
                     r.maxWords);

    FeatureScope bm(node.acct(), Feature::BufferMgmt);
    const Word seg = cm.segments().alloc(
        node.proc(), r.buf, m.words / static_cast<Word>(n));
    if (seg == invalidSegment)
        msgsim_fatal("msglib: segment table exhausted on node ", self);

    const NodeId sender = m.src;
    const Word send_id = m.sendId;
    cm.segments().setCompletion(
        seg, [this, self, sender, send_id, rh, words = m.words](
                 Word segId) {
            Node &nd = stack_.node(self);
            Cmam &c = stack_.cmam(self);
            {
                FeatureScope f1(nd.acct(), Feature::BufferMgmt);
                c.segments().free(nd.proc(), segId);
            }
            PostedRecv &rr = recvs_.at(rh);
            rr.done = true;
            rr.gotWords = words;
            rr.gotFrom = sender;
            {
                FeatureScope f2(nd.acct(), Feature::FaultTolerance);
                c.sendControl(sender, CtrlOp::GenericB, send_id,
                              {kindAck}, /*vnet=*/1);
            }
        });

    // Tell the sender where to put the data.
    cm.sendControl(sender, CtrlOp::GenericB, send_id,
                   {kindReply, seg}, /*vnet=*/1);
}

void
MsgPassing::onReplyOrAck(NodeId self, NodeId src, Word hdrArg,
                         const std::vector<Word> &args)
{
    (void)self;
    (void)src;
    auto it = sends_.find(hdrArg);
    if (it == sends_.end())
        msgsim_panic("msglib control for unknown send ", hdrArg);
    PendingSend &s = it->second;

    if (args.at(0) == kindAck) {
        s.done = true;
        return;
    }
    // Reply: stream the data into the granted segment.
    const Word seg = args.at(1);
    s.started = true;
    Node &node = stack_.node(s.self);
    FeatureScope base(node.acct(), Feature::BaseCost);
    stack_.cmam(s.self).xferSend(s.dst, seg, s.buf, s.words);
}

bool
MsgPassing::recvDone(RecvHandle h) const
{
    return recvs_.at(h).done;
}

std::uint32_t
MsgPassing::recvWords(RecvHandle h) const
{
    return recvs_.at(h).gotWords;
}

NodeId
MsgPassing::recvSource(RecvHandle h) const
{
    return recvs_.at(h).gotFrom;
}

bool
MsgPassing::sendDone(SendHandle h) const
{
    return sends_.at(h).done;
}

bool
MsgPassing::progressUntil(const std::function<bool()> &done,
                          int maxRounds)
{
    for (int round = 0; round < maxRounds; ++round) {
        if (done())
            return true;
        stack_.pollPending();
    }
    return done();
}

bool
MsgPassing::waitSend(SendHandle h, int maxRounds)
{
    return progressUntil([this, h] { return sendDone(h); }, maxRounds);
}

bool
MsgPassing::waitRecv(RecvHandle h, int maxRounds)
{
    return progressUntil([this, h] { return recvDone(h); }, maxRounds);
}

} // namespace msgsim
