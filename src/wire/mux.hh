/**
 * @file
 * StreamMux: many logical streams multiplexed over one reliable
 * channel pair, with per-stream sliding-window flow control.
 *
 * The mux rides two StreamProtocol persistent channels (forward for
 * framed data, reverse for wire-level ACK/RESET control), so it runs
 * unchanged on all four substrates and inherits reliable in-order
 * exactly-once delivery of the *hardware* packets.  What the wire
 * layer adds on top — marshalling, COBS framing, CRC, demux, the
 * window state machine — is charged to Feature::Framing, so
 * msgsim-prof differentials show which substrates make framing cost
 * vanish (rdma: the NIC gathers, stuffs and checksums inline, the
 * host builds one descriptor) versus appear (cm5/cr/nicam: the host
 * touches every byte).
 *
 * Stream lifecycle (libssu packet vocabulary):
 *
 *     sender                               receiver
 *     openStream()  --ATTACH-->            stream created
 *     send()        --DATA(seq)-->         in-seq: deliver, ack
 *                   <--ACK(cum)--          window refill, backlog pump
 *     closeStream() --DETACH-->            final ack, stream retired
 *                   <--RESET--             receiver aborts the stream
 *
 * Loss exists only at the wire layer (the deterministic corruption
 * knob flips a CRC before transmit); the receiver then sees a
 * sequence gap, drops until the timeout model (kick) resends the
 * unacknowledged tail.
 */

#ifndef MSGSIM_WIRE_MUX_HH
#define MSGSIM_WIRE_MUX_HH

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "protocols/stream.hh"
#include "sim/ring.hh"
#include "sim/scratch.hh"
#include "wire/frame.hh"

namespace msgsim::wire
{

/** Mux construction parameters. */
struct MuxOptions
{
    int groupAck = 1;            ///< underlying hw-packet group ack
    std::uint32_t ringPackets = 64; ///< underlying retransmit rings
    std::uint8_t window = 4;     ///< per-stream max unacked DATA frames
    std::uint32_t ackEvery = 1;  ///< wire acks: one per this many frames
};

/** Wire-layer counters (see docs/WIRE.md). */
struct MuxStats
{
    std::uint64_t framesSent = 0;     ///< all frames put on the wire
    std::uint64_t framedBytes = 0;    ///< line bytes incl. padding
    std::uint64_t dataFrames = 0;     ///< first-transmission DATA
    std::uint64_t dataDelivered = 0;  ///< in-seq deliveries to the app
    std::uint64_t wireAcks = 0;       ///< ACK frames sent
    std::uint64_t wireRetransmits = 0;///< DATA frames resent by kick()
    std::uint64_t corruptedTx = 0;    ///< frames corrupted by the knob
    std::uint64_t gapDrops = 0;       ///< seq > expected (post CRC loss)
    std::uint64_t dupDrops = 0;       ///< seq < expected (retx overlap)
    std::uint64_t windowStalls = 0;   ///< sends deferred to the backlog
    std::uint64_t resetsSent = 0;     ///< RESET frames sent (either way)
    std::uint64_t attaches = 0;       ///< ATTACH frames handled
    std::uint64_t detaches = 0;       ///< DETACH frames handled
    std::uint64_t deadStreamDrops = 0;///< DATA for unknown/detached sid
    /// Deliveries on a reset stream: always zero unless the seeded
    /// bug (setBugResetDeliver) is armed — the checker's invariant.
    std::uint64_t deliveredAfterReset = 0;
};

/** Sender-side stream state. */
enum class SendState
{
    Open,     ///< accepting send() calls
    Closing,  ///< closeStream() called with frames still unacked
    Detached, ///< DETACH sent; stream retired
    Reset,    ///< receiver aborted; unacked and backlog dropped
};

/** Receiver-side stream state. */
enum class RecvState
{
    Open,     ///< delivering
    Detached, ///< DETACH handled
    Reset,    ///< aborted; in-flight DATA discarded
};

const char *toString(SendState s);
const char *toString(RecvState s);

/**
 * The multiplexer: one sender node, one receiver node, many streams.
 */
class StreamMux
{
  public:
    /** App delivery: stream id, wire sequence, payload words. */
    using DeliverFn = std::function<void(
        std::uint16_t sid, std::uint32_t seq,
        const std::vector<Word> &payload)>;

    StreamMux(Stack &stack, StreamProtocol &proto, NodeId sender,
              NodeId receiver, const MuxOptions &opt, DeliverFn cb);

    StreamMux(const StreamMux &) = delete;
    StreamMux &operator=(const StreamMux &) = delete;

    // ---------------- sender-role API ----------------

    /** Open a new stream (sends ATTACH); returns its id. */
    std::uint16_t openStream();

    /**
     * Send one payload (at most maxPayloadWords words) on @p sid.
     * Queued in the backlog when the sliding window is full.
     */
    void send(std::uint16_t sid, const std::vector<Word> &payload);

    /**
     * Close @p sid: DETACH goes out once every DATA frame is
     * acknowledged (state Closing until then).
     */
    void closeStream(std::uint16_t sid);

    // ---------------- receiver-role API ----------------

    /**
     * Abort @p sid from the receiving side (sends RESET).  In-flight
     * DATA already in the network is discarded on arrival.
     */
    void resetStream(std::uint16_t sid);

    // ---------------- progress ----------------

    /**
     * Timeout-model recovery: resend unacknowledged DATA, flush
     * withheld wire acks, and kick the underlying channels.  Returns
     * true when anything was done.  The model checker and flush()
     * invoke this when progress stops.
     */
    bool kick();

    /** Settle + poll until quiescent (not for use under the checker). */
    void flush();

    /** True when nothing is in flight or deferred at the wire layer. */
    bool quiescent() const;

    // ---------------- knobs ----------------

    /**
     * Deterministic corruption: flip the CRC of every Nth
     * first-transmission DATA frame (0 = off).  Retransmissions are
     * never corrupted, so kick() always recovers.
     */
    void setCorruptEveryN(std::uint32_t n) { corruptEvery_ = n; }

    /**
     * Seeded bug for the model checker (docs/CHECKING.md): the
     * receiver keeps delivering in-flight DATA on a stream it has
     * already reset, violating the reset contract.
     */
    void setBugResetDeliver(bool on) { bugResetDeliver_ = on; }

    // ---------------- introspection ----------------

    SendState sendState(std::uint16_t sid) const;
    RecvState recvState(std::uint16_t sid) const;

    /** Ids of all sender-side streams ever opened, ascending. */
    std::vector<std::uint16_t>
    sendSids() const
    {
        std::vector<std::uint16_t> out;
        out.reserve(send_.size());
        for (const auto &[sid, ss] : send_)
            out.push_back(sid);
        return out;
    }

    /** The per-stream sliding-window size. */
    std::uint8_t window() const { return opt_.window; }
    std::size_t unacked(std::uint16_t sid) const;
    std::size_t backlog(std::uint16_t sid) const;
    std::uint32_t deliveredOn(std::uint16_t sid) const;
    const MuxStats &stats() const { return stats_; }

    /** CRC rejects observed by the receive-side frame decoder. */
    std::uint64_t rxCrcRejects() const { return rxDecoder_.crcRejects(); }

    /** Malformed blocks observed by the receive-side frame decoder. */
    std::uint64_t rxMalformed() const { return rxDecoder_.malformed(); }

    NodeId sender() const { return sender_; }
    NodeId receiver() const { return receiver_; }
    Word fwdChannel() const { return fwdChan_; }
    Word revChannel() const { return revChan_; }

    /** Largest payload send() accepts, in words. */
    static constexpr std::size_t maxPayloadWords = 48;

  private:
    /// A DATA payload the sender holds: fixed-size, so a ring slot
    /// never owns heap and popping one frees nothing.  Only the first
    /// size words are the payload; a reused slot keeps stale words
    /// past them, which nothing reads.
    struct HeldFrame
    {
        std::uint32_t seq = 0; ///< wire sequence, once transmitted
        std::uint32_t size = 0;
        std::array<Word, maxPayloadWords> words{};
    };

    struct SendStream
    {
        SendState state = SendState::Open;
        std::uint32_t nextSeq = 0;
        /// Transmitted, not yet acked: consecutive seqs, oldest first.
        Ring<HeldFrame> unacked;
        Ring<HeldFrame> backlog; ///< deferred by a full window
    };

    struct RecvStream
    {
        RecvState state = RecvState::Open;
        std::uint32_t expected = 0;
        std::uint32_t delivered = 0;
        std::uint32_t ackCount = 0; ///< frames since the last wire ack
    };

    /// Modeled scratch regions of one endpoint (see wire charging
    /// notes in mux.cc).
    struct Scratch
    {
        Addr crcTable = 0;
        Addr buf = 0;
        Addr desc = 0;
    };

    // Frame transmission (fwd = sender->receiver data channel,
    // rev = receiver->sender control channel).
    void transmitOn(bool fwd, const StreamHeader &h,
                    const Word *payload = nullptr,
                    std::size_t payloadWords = 0, bool corrupt = false);
    void transmitData(std::uint16_t sid, SendStream &ss);
    void pumpBacklog(std::uint16_t sid, SendStream &ss);
    void maybeDetach(std::uint16_t sid, SendStream &ss);
    static void hold(Ring<HeldFrame> &q, const std::vector<Word> &payload);
    static HeldFrame *unackedFrom(SendStream &ss, std::uint32_t seq);

    // Frame reception.
    void onFwdPacket(const std::vector<Word> &words);
    void onRevPacket(const std::vector<Word> &words);
    void onFwdFrame(const Frame &f);  ///< at the receiver
    void onRevFrame(const Frame &f);  ///< at the sender
    void handleData(const Frame &f, RecvStream &rs);
    void deliver(const Frame &f);
    void sendAck(std::uint16_t sid, RecvStream &rs);
    void sendResetFromReceiver(std::uint16_t sid);

    // Modeled-cost charging (Feature::Framing).
    void chargeTxFrame(NodeId at, std::size_t bodyBytes,
                       std::size_t wireBytes, std::size_t payloadWords);
    void chargeRxChunk(NodeId at, std::size_t bytes);
    void chargeRxFrame(NodeId at, const Frame &f);
    const Scratch &scratchAt(NodeId at) const;

    Stack &stack_;
    StreamProtocol &proto_;
    NodeId sender_;
    NodeId receiver_;
    MuxOptions opt_;
    DeliverFn deliverFn_;
    bool offloaded_; ///< rdma: NIC does framing; host pays descriptors

    Word fwdChan_ = 0;
    Word revChan_ = 0;
    Scratch txScratch_; ///< on the sender node
    Scratch rxScratch_; ///< on the receiver node

    std::uint16_t nextSid_ = 1;
    std::map<std::uint16_t, SendStream> send_;
    std::map<std::uint16_t, RecvStream> recv_;

    FrameDecoder rxDecoder_; ///< receiver side of the fwd channel
    FrameDecoder txDecoder_; ///< sender side of the rev channel

    // Host buffers, reused (docs/WIRE.md, "Buffers and re-entrancy").
    Bytes body_; ///< frame body being encoded
    Bytes wire_; ///< its COBS encoding
    /// Packed frames handed to sendOn, and payloads handed to the app:
    /// both stay in use while the call re-enters the mux.
    ScratchPool<std::vector<Word>> wordBufs_;

    std::uint32_t corruptEvery_ = 0;
    std::uint64_t dataTxCount_ = 0;
    bool bugResetDeliver_ = false;
    MuxStats stats_;
};

} // namespace msgsim::wire

#endif // MSGSIM_WIRE_MUX_HH
