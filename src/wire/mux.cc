#include "wire/mux.hh"

#include <algorithm>

#include "hostprof/hostprof.hh"
#include "sim/log.hh"

namespace msgsim::wire
{

namespace
{

// Modeled scratch sizes in words: the CRC table, the staging buffer
// (header at its first two words) and its payload body area, which
// starts at word 3.
constexpr std::size_t crcTableWords = 256;
constexpr std::size_t bufWords = 64;
constexpr std::size_t bodyAreaWords = 48;

/// Pack wire bytes into Words (4 bytes per word, little-endian),
/// zero-padded to a multiple of @p packetWords.  Padding zeros are
/// empty COBS blocks, which the decoder skips silently.
void
bytesToWords(const Bytes &b, int packetWords, std::vector<Word> &out)
{
    std::size_t words = (b.size() + 3) / 4;
    const std::size_t n = static_cast<std::size_t>(packetWords);
    words = ((words + n - 1) / n) * n;
    out.assign(words, 0);
    const std::size_t whole = b.size() / 4;
    Reader r(b);
    for (std::size_t i = 0; i < whole; ++i)
        out[i] = r.u32();
    for (int k = 0; r.remaining() > 0; k += 8)
        out[whole] |= static_cast<Word>(r.u8()) << k;
}

} // namespace

const char *
toString(SendState s)
{
    switch (s) {
      case SendState::Open:     return "open";
      case SendState::Closing:  return "closing";
      case SendState::Detached: return "detached";
      case SendState::Reset:    return "reset";
      default:                  return "?";
    }
}

const char *
toString(RecvState s)
{
    switch (s) {
      case RecvState::Open:     return "open";
      case RecvState::Detached: return "detached";
      case RecvState::Reset:    return "reset";
      default:                  return "?";
    }
}

StreamMux::StreamMux(Stack &stack, StreamProtocol &proto, NodeId sender,
                     NodeId receiver, const MuxOptions &opt,
                     DeliverFn cb)
    : stack_(stack), proto_(proto), sender_(sender),
      receiver_(receiver), opt_(opt), deliverFn_(std::move(cb)),
      offloaded_(stack.network().features().zeroCopy),
      rxDecoder_([this](const Frame &f) { onFwdFrame(f); }),
      txDecoder_([this](const Frame &f) { onRevFrame(f); })
{
    if (opt_.window == 0)
        msgsim_fatal("wire mux window must be at least 1");
    if (opt_.ackEvery == 0)
        opt_.ackEvery = 1;

    // Modeled scratch regions, uncharged (static carving at
    // connection establishment, like the channel rings): the CRC
    // table, a staging buffer large enough for any frame, and the
    // two-word NIC descriptor the offloaded path uses instead.
    txScratch_.crcTable = stack_.node(sender_).mem().alloc(crcTableWords);
    txScratch_.buf = stack_.node(sender_).mem().alloc(bufWords);
    txScratch_.desc = stack_.node(sender_).mem().alloc(2);
    rxScratch_.crcTable = stack_.node(receiver_).mem().alloc(crcTableWords);
    rxScratch_.buf = stack_.node(receiver_).mem().alloc(bufWords);
    rxScratch_.desc = stack_.node(receiver_).mem().alloc(2);

    fwdChan_ = proto_.openPersistent(
        sender_, receiver_, opt_.groupAck, opt_.ringPackets,
        [this](std::uint32_t, const std::vector<Word> &w) {
            onFwdPacket(w);
        });
    revChan_ = proto_.openPersistent(
        receiver_, sender_, opt_.groupAck, opt_.ringPackets,
        [this](std::uint32_t, const std::vector<Word> &w) {
            onRevPacket(w);
        });
}

// ------------------------------------------------------------------
// Modeled cost (Feature::Framing).
//
// Software substrates (cm5/cr/nicam) touch every byte: the header
// build (6 reg + 2 st), the per-word payload marshal (2 reg + 1 st),
// the table-driven CRC (1 reg + 1 table ld per body byte), and the
// COBS stuffing pass (1 reg per body byte + 1 st per output word).
// The receive side mirrors it: a delimiter scan over every wire byte
// (1 reg + 1 ld per ring word), then per frame the CRC verify, the
// header parse (6 reg + 2 ld) and the payload unmarshal.  Each walk
// over the CRC table or the staging buffer is one charged span
// (Processor::loadSpan/zeroSpan): n ops, billed exactly as n single
// loads or stores, over the words the walk cycles through.  Both
// directions share these helpers; each node uses its own scratch.
//
// On rdma the NIC gathers, stuffs and checksums inline (zero-copy):
// the host builds one two-word descriptor per frame on send (4 reg +
// 1 std) and harvests one on receive (4 reg + 1 ldd) — framing all
// but vanishes from the processor's bill.
// ------------------------------------------------------------------

const StreamMux::Scratch &
StreamMux::scratchAt(NodeId at) const
{
    return at == sender_ ? txScratch_ : rxScratch_;
}

void
StreamMux::chargeTxFrame(NodeId at, std::size_t bodyBytes,
                         std::size_t wireBytes,
                         std::size_t payloadWords)
{
    Processor &p = stack_.node(at).proc();
    const Scratch &sc = scratchAt(at);
    if (offloaded_) {
        p.regOps(4); // descriptor fields, doorbell address
        p.storeDouble(sc.desc, static_cast<Word>(bodyBytes),
                      static_cast<Word>(payloadWords)); // mem 1
        return;
    }
    // Header build.
    p.regOps(6);
    p.storeWord(sc.buf + 0, 0); // mem 1
    p.storeWord(sc.buf + 1, 0); // mem 2
    // Payload marshal: one store per word, cycling the body area.
    p.regOps(2 * payloadWords);
    p.zeroSpan(sc.buf + 3, std::min(payloadWords, bodyAreaWords),
               payloadWords);
    // CRC accumulate: xor/index per byte + one table load.
    p.regOps(bodyBytes);
    p.loadSpan(sc.crcTable, std::min(bodyBytes, crcTableWords),
               bodyBytes);
    // COBS stuffing pass + output stores.
    p.regOps(bodyBytes + 2);
    const std::size_t wireWords = (wireBytes + 3) / 4;
    p.zeroSpan(sc.buf, std::min(wireWords, bufWords), wireWords);
}

void
StreamMux::chargeRxChunk(NodeId at, std::size_t bytes)
{
    if (offloaded_)
        return; // the NIC scatters verified frames directly
    Processor &p = stack_.node(at).proc();
    p.regOps(bytes); // delimiter scan
    const std::size_t words = (bytes + 3) / 4;
    p.loadSpan(scratchAt(at).buf, std::min(words, bufWords), words);
}

void
StreamMux::chargeRxFrame(NodeId at, const Frame &f)
{
    Processor &p = stack_.node(at).proc();
    const Scratch &sc = scratchAt(at);
    if (offloaded_) {
        p.regOps(4); // completion harvest, header extract
        (void)p.loadDouble(sc.desc); // mem 1
        return;
    }
    const std::size_t bodyBytes =
        StreamHeader::encodedSize(f.header.type) + f.payload.size() + 4;
    // CRC verify.
    p.regOps(bodyBytes);
    p.loadSpan(sc.crcTable, std::min(bodyBytes, crcTableWords),
               bodyBytes);
    // Header parse.
    p.regOps(6);
    (void)p.loadWord(sc.buf + 0); // mem 1
    (void)p.loadWord(sc.buf + 1); // mem 2
    // Payload unmarshal into words (none on the control channel: ACK
    // and RESET frames carry no payload).
    const std::size_t words = f.payload.size() / 4;
    p.regOps(2 * words);
    p.zeroSpan(sc.buf + 3, std::min(words, bodyAreaWords), words);
}

// ------------------------------------------------------------------
// Transmission.
// ------------------------------------------------------------------

// Re-entrancy: proto_.sendOn blocks on a full retransmit ring by
// polling, and the frames that polling delivers transmit before it
// returns (an ACK pumps the backlog, a DATA frame is acked).  So a
// buffer still in use across sendOn or a sink call is leased from
// wordBufs_; body_ and wire_ are finished before anything re-enters.

void
StreamMux::transmitOn(bool fwd, const StreamHeader &h,
                      const Word *payload, std::size_t payloadWords,
                      bool corrupt)
{
    const NodeId at = fwd ? sender_ : receiver_;
    {
        hostprof::HostScope hs(hostprof::Site::WireEncode);
        FeatureScope fs(stack_.node(at).acct(), Feature::Framing);
        body_.clear();
        Writer w(body_);
        h.encode(w);
        for (std::size_t i = 0; i < payloadWords; ++i)
            w.u32(payload[i]);
        const std::size_t bodyBytes = body_.size() + 4;
        wire_.clear();
        sealFrame(body_, corrupt, wire_);
        chargeTxFrame(at, bodyBytes, wire_.size(), payloadWords);
    }
    ScratchPool<std::vector<Word>>::Lease words(wordBufs_);
    bytesToWords(wire_, stack_.dataWords(), *words);
    ++stats_.framesSent;
    stats_.framedBytes += words->size() * 4;
    if (corrupt)
        ++stats_.corruptedTx;
    // The underlying channel's send path charges under the ambient
    // feature; transmits triggered from inside a Framing-scoped
    // handler (acks, resets) must not bill the hw packet to Framing.
    FeatureScope base(stack_.node(at).acct(), Feature::BaseCost);
    proto_.sendOn(fwd ? fwdChan_ : revChan_, *words);
}

std::uint16_t
StreamMux::openStream()
{
    if (nextSid_ == 0xffff)
        msgsim_panic("wire mux stream ids exhausted");
    const std::uint16_t sid = nextSid_++;
    send_[sid] = SendStream{};
    StreamHeader h;
    h.sid = sid;
    h.type = PacketType::Attach;
    h.window = opt_.window;
    transmitOn(true, h);
    return sid;
}

void
StreamMux::send(std::uint16_t sid, const std::vector<Word> &payload)
{
    auto it = send_.find(sid);
    if (it == send_.end())
        msgsim_panic("wire send on unknown stream ", sid);
    SendStream &ss = it->second;
    if (ss.state != SendState::Open)
        msgsim_panic("wire send on ", toString(ss.state), " stream ",
                     sid);
    if (payload.empty() || payload.size() > maxPayloadWords)
        msgsim_fatal("wire payload of ", payload.size(),
                     " words: must be 1..", maxPayloadWords);
    if (!ss.backlog.empty() || ss.unacked.size() >= opt_.window) {
        // Window stall: defer until a cumulative ack frees a slot.
        ++stats_.windowStalls;
        hold(ss.backlog, payload);
        return;
    }
    hold(ss.unacked, payload);
    transmitData(sid, ss);
}

void
StreamMux::hold(Ring<HeldFrame> &q, const std::vector<Word> &payload)
{
    // The slot may hold a frame popped earlier: write every field
    // read later (nothing reads words past size).
    HeldFrame &f = q.claim_back();
    f.seq = 0;
    f.size = static_cast<std::uint32_t>(payload.size());
    std::copy(payload.begin(), payload.end(), f.words.begin());
}

void
StreamMux::transmitData(std::uint16_t sid, SendStream &ss)
{
    // The frame to send was just put at the back of the unacked ring;
    // transmitOn reads it before anything can re-enter and move it.
    HeldFrame &f = ss.unacked.back();
    StreamHeader h;
    h.sid = sid;
    h.type = PacketType::Data;
    h.window = opt_.window;
    h.seq = f.seq = ss.nextSeq++;
    ++stats_.dataFrames;
    ++dataTxCount_;
    const bool corrupt =
        corruptEvery_ != 0 && dataTxCount_ % corruptEvery_ == 0;
    transmitOn(true, h, f.words.data(), f.size, corrupt);
}

void
StreamMux::pumpBacklog(std::uint16_t sid, SendStream &ss)
{
    while (!ss.backlog.empty() && ss.unacked.size() < opt_.window) {
        ss.unacked.push_back(std::move(ss.backlog.front()));
        ss.backlog.pop_front();
        transmitData(sid, ss);
    }
}

void
StreamMux::maybeDetach(std::uint16_t sid, SendStream &ss)
{
    if (ss.state != SendState::Closing || !ss.unacked.empty() ||
        !ss.backlog.empty())
        return;
    StreamHeader h;
    h.sid = sid;
    h.type = PacketType::Detach;
    h.window = 0;
    transmitOn(true, h);
    ss.state = SendState::Detached;
}

void
StreamMux::closeStream(std::uint16_t sid)
{
    auto it = send_.find(sid);
    if (it == send_.end())
        msgsim_panic("wire close of unknown stream ", sid);
    SendStream &ss = it->second;
    if (ss.state != SendState::Open)
        return; // closing a closing/reset stream is a no-op
    ss.state = SendState::Closing;
    maybeDetach(sid, ss); // immediate when nothing is in flight
}

void
StreamMux::resetStream(std::uint16_t sid)
{
    auto it = recv_.find(sid);
    if (it == recv_.end() || it->second.state != RecvState::Open)
        return;
    it->second.state = RecvState::Reset;
    sendResetFromReceiver(sid);
}

void
StreamMux::sendResetFromReceiver(std::uint16_t sid)
{
    StreamHeader h;
    h.sid = sid;
    h.type = PacketType::Reset;
    h.window = 0;
    ++stats_.resetsSent;
    transmitOn(false, h);
}

// ------------------------------------------------------------------
// Reception.
// ------------------------------------------------------------------

void
StreamMux::onFwdPacket(const std::vector<Word> &words)
{
    hostprof::HostScope hs(hostprof::Site::WireDecode);
    FeatureScope fs(stack_.node(receiver_).acct(), Feature::Framing);
    chargeRxChunk(receiver_, words.size() * 4);
    rxDecoder_.pushWords(words.data(), words.size());
}

void
StreamMux::onRevPacket(const std::vector<Word> &words)
{
    hostprof::HostScope hs(hostprof::Site::WireDecode);
    FeatureScope fs(stack_.node(sender_).acct(), Feature::Framing);
    chargeRxChunk(sender_, words.size() * 4);
    txDecoder_.pushWords(words.data(), words.size());
}

void
StreamMux::onFwdFrame(const Frame &f)
{
    hostprof::HostScope hs(hostprof::Site::WireMux);
    Node &rcv = stack_.node(receiver_);
    FeatureScope fs(rcv.acct(), Feature::Framing);
    chargeRxFrame(receiver_, f);
    rcv.proc().regOps(3); // type dispatch + sid table probe
    const std::uint16_t sid = f.header.sid;
    switch (f.header.type) {
      case PacketType::Attach: {
        // Declarative one-way open: the receiver (re)creates state.
        recv_[sid] = RecvStream{};
        ++stats_.attaches;
        break;
      }
      case PacketType::Detach: {
        auto it = recv_.find(sid);
        if (it != recv_.end() && it->second.state == RecvState::Open) {
            if (it->second.ackCount > 0)
                sendAck(sid, it->second); // final cumulative ack
            it->second.state = RecvState::Detached;
            ++stats_.detaches;
        }
        break;
      }
      case PacketType::Data: {
        auto it = recv_.find(sid);
        if (it == recv_.end() ||
            it->second.state == RecvState::Detached) {
            // Data for a stream we never attached (or already
            // retired): drop and abort the sender.
            ++stats_.deadStreamDrops;
            sendResetFromReceiver(sid);
            break;
        }
        handleData(f, it->second);
        break;
      }
      case PacketType::Reset: {
        // Sender-initiated abort.
        auto it = recv_.find(sid);
        if (it != recv_.end())
            it->second.state = RecvState::Reset;
        break;
      }
      default:
        msgsim_panic("unexpected wire frame type ",
                     toString(f.header.type), " on the data channel");
    }
}

void
StreamMux::handleData(const Frame &f, RecvStream &rs)
{
    const std::uint16_t sid = f.header.sid;
    if (rs.state == RecvState::Reset) {
        // In-flight data racing the reset: the contract says discard.
        ++stats_.dupDrops;
        if (bugResetDeliver_) {
            // Seeded bug: keep delivering on the reset stream.
            ++stats_.deliveredAfterReset;
            deliver(f);
        }
        return;
    }
    if (f.header.seq == rs.expected) {
        ++rs.expected;
        ++rs.delivered;
        ++stats_.dataDelivered;
        deliver(f);
        ++rs.ackCount;
        if (rs.ackCount >= opt_.ackEvery)
            sendAck(sid, rs);
    } else if (f.header.seq > rs.expected) {
        // A predecessor was CRC-rejected; the wire layer keeps no
        // reorder buffer (the channel is in-order), so drop and
        // prod the sender with a duplicate cumulative ack.
        ++stats_.gapDrops;
        sendAck(sid, rs);
    } else {
        // Retransmission overlap: already delivered; re-ack.
        ++stats_.dupDrops;
        sendAck(sid, rs);
    }
}

void
StreamMux::deliver(const Frame &f)
{
    if (!deliverFn_)
        return;
    // Leased: the app may reset or send, and so re-enter the mux,
    // while it still reads the payload.
    ScratchPool<std::vector<Word>>::Lease payload(wordBufs_);
    payload->resize(f.payload.size() / 4);
    Reader r(f.payload.data(), f.payload.size());
    for (Word &w : *payload)
        w = r.u32();
    deliverFn_(f.header.sid, f.header.seq, *payload);
}

void
StreamMux::sendAck(std::uint16_t sid, RecvStream &rs)
{
    rs.ackCount = 0;
    StreamHeader h;
    h.sid = sid;
    h.type = PacketType::Ack;
    h.window = opt_.window;
    h.seq = rs.expected; // cumulative: everything below is acked
    ++stats_.wireAcks;
    transmitOn(false, h);
}

void
StreamMux::onRevFrame(const Frame &f)
{
    hostprof::HostScope hs(hostprof::Site::WireMux);
    Node &snd = stack_.node(sender_);
    FeatureScope fs(snd.acct(), Feature::Framing);
    chargeRxFrame(sender_, f);
    snd.proc().regOps(3); // dispatch + sid probe
    auto it = send_.find(f.header.sid);
    if (it == send_.end())
        return; // control for a forgotten stream: ignore
    SendStream &ss = it->second;
    switch (f.header.type) {
      case PacketType::Ack: {
        if (ss.state == SendState::Detached ||
            ss.state == SendState::Reset)
            break; // late ack after retirement
        const std::uint32_t cum = f.header.seq;
        while (!ss.unacked.empty() && ss.unacked.front().seq < cum)
            ss.unacked.pop_front();
        pumpBacklog(f.header.sid, ss);
        maybeDetach(f.header.sid, ss);
        break;
      }
      case PacketType::Reset: {
        // Receiver aborted: drop everything in flight and deferred.
        ss.unacked.clear();
        ss.backlog.clear();
        ss.state = SendState::Reset;
        break;
      }
      default:
        msgsim_panic("unexpected wire frame type ",
                     toString(f.header.type),
                     " on the control channel");
    }
}

// ------------------------------------------------------------------
// Progress.
// ------------------------------------------------------------------

bool
StreamMux::kick()
{
    hostprof::HostScope hs(hostprof::Site::WireMux);
    bool acted = false;
    // Wire-level timeout model: resend the unacknowledged tail of
    // every live stream, in sequence order (never corrupted, so the
    // corruption knob always converges).
    for (auto &[sid, ss] : send_) {
        if (ss.state != SendState::Open &&
            ss.state != SendState::Closing)
            continue;
        // Walk by sequence, not ring position: a resend may block and
        // poll, and the acks that polling delivers pop the front and
        // pump the backlog onto the back before the next resend.
        std::uint32_t next = 0;
        while (const HeldFrame *f = unackedFrom(ss, next)) {
            StreamHeader h;
            h.sid = sid;
            h.type = PacketType::Data;
            h.window = opt_.window;
            h.seq = f->seq;
            next = f->seq + 1;
            ++stats_.wireRetransmits;
            transmitOn(true, h, f->words.data(), f->size);
            acted = true;
        }
    }
    // Receiver: flush withheld grouped wire acks.
    for (auto &[sid, rs] : recv_) {
        if (rs.state == RecvState::Open && rs.ackCount > 0) {
            sendAck(sid, rs);
            acted = true;
        }
    }
    // Underlying channels: partial hw group acks + the hw timeout
    // model.
    if (proto_.channelOpen(fwdChan_)) {
        proto_.flushGroupAcks(fwdChan_);
        if (proto_.channelUnacked(fwdChan_) > 0) {
            proto_.retransmitUnacked(fwdChan_);
            acted = true;
        }
    }
    if (proto_.channelOpen(revChan_)) {
        proto_.flushGroupAcks(revChan_);
        if (proto_.channelUnacked(revChan_) > 0) {
            proto_.retransmitUnacked(revChan_);
            acted = true;
        }
    }
    return acted;
}

StreamMux::HeldFrame *
StreamMux::unackedFrom(SendStream &ss, std::uint32_t seq)
{
    if (ss.unacked.empty())
        return nullptr;
    // The unacked seqs are consecutive from the front's.
    const std::uint32_t first = ss.unacked.front().seq;
    const std::size_t i = seq > first ? seq - first : 0;
    return i < ss.unacked.size() ? &ss.unacked[i] : nullptr;
}

bool
StreamMux::quiescent() const
{
    for (const auto &[sid, ss] : send_) {
        if (ss.state == SendState::Closing)
            return false;
        if (!ss.unacked.empty() || !ss.backlog.empty())
            return false;
    }
    if (proto_.channelOpen(fwdChan_) &&
        (proto_.channelUnacked(fwdChan_) > 0 ||
         proto_.channelPending(fwdChan_) > 0))
        return false;
    if (proto_.channelOpen(revChan_) &&
        (proto_.channelUnacked(revChan_) > 0 ||
         proto_.channelPending(revChan_) > 0))
        return false;
    return true;
}

void
StreamMux::flush()
{
    int idle = 0;
    std::uint64_t lastProgress = 0;
    while (!quiescent()) {
        stack_.pollPending();
        stack_.settle();
        const std::uint64_t progress =
            stats_.dataDelivered + stats_.wireAcks +
            stats_.framesSent + stats_.dupDrops + stats_.gapDrops +
            proto_.channelDelivered(fwdChan_) +
            proto_.channelDelivered(revChan_);
        if (progress != lastProgress) {
            lastProgress = progress;
            idle = 0;
            continue;
        }
        ++idle;
        if (idle % 2 == 0)
            kick();
        if (idle > 256)
            msgsim_panic("wire mux flush stalled: ",
                         stats_.dataDelivered, " delivered, fwd ",
                         proto_.channelUnacked(fwdChan_),
                         " hw-unacked");
    }
}

// ------------------------------------------------------------------
// Introspection.
// ------------------------------------------------------------------

SendState
StreamMux::sendState(std::uint16_t sid) const
{
    auto it = send_.find(sid);
    if (it == send_.end())
        msgsim_panic("wire sendState of unknown stream ", sid);
    return it->second.state;
}

RecvState
StreamMux::recvState(std::uint16_t sid) const
{
    auto it = recv_.find(sid);
    if (it == recv_.end())
        msgsim_panic("wire recvState of unknown stream ", sid);
    return it->second.state;
}

std::size_t
StreamMux::unacked(std::uint16_t sid) const
{
    auto it = send_.find(sid);
    return it == send_.end() ? 0 : it->second.unacked.size();
}

std::size_t
StreamMux::backlog(std::uint16_t sid) const
{
    auto it = send_.find(sid);
    return it == send_.end() ? 0 : it->second.backlog.size();
}

std::uint32_t
StreamMux::deliveredOn(std::uint16_t sid) const
{
    auto it = recv_.find(sid);
    return it == recv_.end() ? 0 : it->second.delivered;
}

} // namespace msgsim::wire
