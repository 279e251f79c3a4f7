/**
 * @file
 * Protocol 3: indefinite-sequence, multi-packet delivery (paper
 * Section 3.2, Figure 4) — a socket-like ordered stream between a
 * pair of nodes.
 *
 * Per packet the CMAM implementation pays for:
 *  - BaseCost: a full single-packet send (the stream is
 *    register-to-register, so no memory copies beyond the NI);
 *  - InOrderDelivery: sequence-number maintenance at the source
 *    (2 reg + 3 mem) and, at the destination, either the in-sequence
 *    fast path (6 reg) or the out-of-order buffering path (insert
 *    13 reg + (9 + n/2) mem at arrival, drain 14 reg + (10 + n/2) mem
 *    when the gap fills) — with half the packets out of order the
 *    average is the paper's 29 reg + 11.5 mem per packet;
 *  - FaultTolerance: source buffering for retransmission (6 reg +
 *    n/2 mem), one ack send per packet at the destination (a
 *    single-packet send, 20), and ack consumption at the source
 *    (16 reg + (n/2 + 3) dev), folded into the send loop's status
 *    tests as CMAM does.
 *
 * Group acknowledgements (ack every G packets) reduce the
 * fault-tolerance term at the price of holding source buffers
 * longer; the paper's §3.2 discussion claim (overhead stays ~40-50%)
 * is reproduced by bench_groupack.
 *
 * Event mode adds timeout-driven selective retransmission, duplicate
 * suppression with re-acknowledgement, and optional window flow
 * control — end-to-end reliability over the detection-only network.
 */

#ifndef MSGSIM_PROTOCOLS_STREAM_HH
#define MSGSIM_PROTOCOLS_STREAM_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "protocols/result.hh"
#include "protocols/stack.hh"
#include "sim/scratch.hh"

namespace msgsim
{

class MetricsRegistry;

/** Parameters of one stream run. */
struct StreamParams
{
    NodeId src = 0;
    NodeId dst = 1;
    std::uint32_t words = 16; ///< total volume (multiple of n)
    int groupAck = 1;         ///< G: ack every G delivered packets
    std::uint64_t fillSeed = 0x57'12ea'3ULL;
    bool eventMode = false;
    Tick retxTimeout = 3000; ///< event mode: retransmission period
    int maxRetx = 64;        ///< event mode: per-run retransmit bound
    std::uint32_t window = 0; ///< event mode: max unacked packets (0 = off)
    /// Event mode: how arrivals are serviced (poll vs interrupt).
    RecvDiscipline discipline = RecvDiscipline::Poll;
};

/**
 * The indefinite-sequence protocol engine for one stack.
 */
class StreamProtocol
{
  public:
    /** Delivery callback: packets arrive in sequence order. */
    using DeliverFn =
        std::function<void(std::uint32_t seq, const std::vector<Word> &)>;

    explicit StreamProtocol(Stack &stack);

    /** Run one whole-stream exchange and report the breakdown. */
    RunResult run(const StreamParams &params);

    // ------------------------------------------------------------
    // Persistent-channel operations (the StreamSocket API).
    // ------------------------------------------------------------

    /**
     * Open a long-lived channel; @p ringPackets bounds the
     * retransmission ring (and therefore the in-flight window).
     */
    Word openPersistent(NodeId src, NodeId dst, int groupAck,
                        std::uint32_t ringPackets, DeliverFn cb);

    /**
     * Transmit @p words (a multiple of the packet size) on a
     * persistent channel, blocking on the progress loop when the
     * retransmission ring is full.
     */
    void sendOn(Word chan, const std::vector<Word> &words);

    /** Progress until the channel is fully delivered and acked. */
    void flushChannel(Word chan);

    /** Flush and retire a persistent channel. */
    void closePersistent(Word chan);

    /** Unacknowledged packets on a channel. */
    std::uint64_t channelUnacked(Word chan) const;

    /** Out-of-order arrivals absorbed on a channel so far. */
    std::uint64_t channelOoo(Word chan) const;

    /** Duplicate arrivals suppressed on a channel so far. */
    std::uint64_t channelDups(Word chan) const;

    /** Packets delivered in order on a channel so far. */
    std::uint64_t channelDelivered(Word chan) const;

    /** Reorder-buffer occupancy (packets held) on a channel. */
    std::size_t channelPending(Word chan) const;

    /** Window backlog: queued sends not yet injected on a channel. */
    std::size_t channelBacklog(Word chan) const;

    /** Retransmission-ring capacity of a channel, in packets. */
    std::uint32_t channelRetxSlots(Word chan) const;

    /** Reorder-arena capacity of a channel, in packets. */
    std::uint32_t channelArenaSlots(Word chan) const;

    /** True while @p chan names an open channel. */
    bool channelOpen(Word chan) const;

    /**
     * Timeout-model recovery for persistent channels: resend every
     * currently unacknowledged packet on @p chan.  This is the
     * polling-mode stand-in for the event-mode retransmission timer;
     * flushChannel and the model checker invoke it when a channel
     * stops making progress.
     */
    void retransmitUnacked(Word chan);

    /** Emit any partial cumulative group ack pending on @p chan. */
    void flushGroupAcks(Word chan);

    /** Protocol-wide cumulative counters, across all channels. */
    struct Totals
    {
        std::uint64_t retransmissions = 0;
        std::uint64_t duplicatesSuppressed = 0;
        std::uint64_t oooBuffered = 0;
        std::uint64_t acksSent = 0;
    };

    /** Cumulative counters since construction. */
    const Totals &totals() const { return totals_; }

    /**
     * Snapshot the protocol-wide counters into @p reg under
     * "<prefix>." ("stream.retransmissions" etc.).
     */
    void publishMetrics(MetricsRegistry &reg,
                        const std::string &prefix = "stream") const;

    /**
     * Deliberately re-introduce a classic protocol bug, for the
     * model checker's demonstration (docs/CHECKING.md): acknowledge
     * an out-of-order arrival *before* inserting it into the reorder
     * buffer — and then lose it.  The sender releases the
     * retransmission slot, so the packet is gone for good.
     */
    void setBugAckBeforeInsert(bool on) { bugAckBeforeInsert_ = on; }

    /** Hardware packet payload size of the underlying stack. */
    int packetWords() const { return stack_.dataWords(); }

  private:
    /// A sent, unacknowledged packet.  Its payload lives only in the
    /// modeled retransmission ring, which retransmit() reloads.
    struct InFlight
    {
        std::uint32_t seq = 0;
        Tick sentAt = 0; ///< last (re)transmission
    };

    struct Channel
    {
        NodeId src = 0;
        NodeId dst = 0;
        Word id = 0;
        int groupAck = 1;

        // Sender-side modeled state.
        Addr seqAddr = 0;      ///< sequence counter (memory word)
        Addr lastSentAddr = 0; ///< last sequence injected
        Addr retxBase = 0;     ///< retransmission ring
        std::uint32_t retxSlots = 0;
        std::uint32_t nextSeq = 0; ///< mirror of the modeled counter
        std::vector<InFlight> unacked; ///< ascending seq
        std::vector<std::vector<Word>> sendQueue; ///< window backlog
        std::uint32_t nextToSend = 0;             ///< index into queue
        std::uint32_t window = 0; ///< event mode: max unacked (0 = off)

        // Receiver-side modeled state.
        std::uint32_t expected = 0;
        Addr arenaBase = 0;   ///< reorder-slot arena
        std::uint32_t arenaSlots = 0;
        Addr listHeadAddr = 0;
        Addr pendingCountAddr = 0;
        Addr lastDeliveredAddr = 0;
        std::vector<Addr> freeSlots;
        std::map<std::uint32_t, Addr> pending; ///< seq -> slot
        int groupCount = 0;
        std::uint32_t deliveredPackets = 0;
        /// run()'s integrity journal; persistent channels keep none.
        bool journal = false;
        std::vector<Word> deliveredWords;

        // Statistics.
        std::uint64_t ooo = 0;
        std::uint64_t dups = 0;
        std::uint64_t acksSent = 0;
        std::uint64_t retx = 0;

        DeliverFn userCb;
    };

    Channel &openChannel(const StreamParams &params, DeliverFn cb);
    void closeChannel(Word id);

    /** Source: send one packet (Base + InOrder + FaultTol charges). */
    void sendPacket(Channel &ch, const std::vector<Word> &data);

    /** Source: retransmit one unacked packet (FaultTol). */
    void retransmit(Channel &ch, InFlight &pkt);

    /** Source: consume waiting acks without poll-entry overhead. */
    void consumeAcks(Channel &ch);

    /** Destination: StreamData sink. */
    void onStreamData(NodeId self, NodeId pktSrc);

    /** Source: StreamAck sink. */
    void onStreamAck(NodeId self, NodeId pktSrc);

    void deliverInSeq(Channel &ch, std::uint32_t seq,
                      const std::vector<Word> &data);
    void insertReorder(Channel &ch, std::uint32_t seq,
                       const std::vector<Word> &data);
    void drainReorder(Channel &ch);
    void ackArrival(Channel &ch, std::uint32_t seq);
    void flushGroupAck(Channel &ch);
    /** Destination: one StreamAck packet for @p seq. */
    void sendAck(Channel &ch, std::uint32_t seq, bool cumulative);

    /** Event mode: window pump + retransmission timer. */
    void pumpWindow(Channel &ch, std::uint32_t window);
    void armRetxTimer(Word chanId, const StreamParams &params);

    Node &srcNode(Channel &ch) { return stack_.node(ch.src); }
    Node &dstNode(Channel &ch) { return stack_.node(ch.dst); }

    /** Event mode: coalesced poll scheduling. */
    void schedulePoll(NodeId id);

    /** One settle + machine-wide poll round (persistent channels). */
    void progressOnce();

    /** Event mode: periodic group-ack flush for a live channel. */
    void armFlushTimer(Word chanId, Tick period);

    /** Modeled memory regions of a retired channel, for reuse. */
    struct ChannelResources
    {
        NodeId src = 0;
        NodeId dst = 0;
        Addr seqAddr = 0;
        Addr lastSentAddr = 0;
        Addr retxBase = 0;
        std::uint32_t retxSlots = 0;
        Addr arenaBase = 0;
        std::uint32_t arenaSlots = 0;
        Addr listHeadAddr = 0;
        Addr pendingCountAddr = 0;
        Addr lastDeliveredAddr = 0;
    };

    Stack &stack_;
    Totals totals_;
    bool bugAckBeforeInsert_ = false;
    std::map<Word, Channel> channels_;
    std::map<NodeId, bool> pollPending_;
    RecvDiscipline runDiscipline_ = RecvDiscipline::Poll;
    std::vector<Word> freeIds_;
    std::vector<ChannelResources> resourcePool_;
    Word nextChanId_ = 1;
    /// Packet-sized host buffers.  Leased, because a delivery callback
    /// or a blocked sendOn can re-enter the protocol mid-use.
    ScratchPool<std::vector<Word>> wordBufs_;
};

} // namespace msgsim

#endif // MSGSIM_PROTOCOLS_STREAM_HH
