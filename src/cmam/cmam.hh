/**
 * @file
 * The CMAM-style active messages layer.
 *
 * A from-scratch reimplementation of the interface shape of the CM-5
 * active message layer the paper instruments:
 *
 *  - am4()        == CMAM_4: a single-packet active message carrying
 *                   n words of user data (n = 4 on the CM-5);
 *  - poll()       == CMAM_request_poll + CMAM_handle_left +
 *                   CMAM_got_left: drain the NI and dispatch;
 *  - xferSend()   == CMAM_xfer_N: source side of the finite-sequence
 *                   bulk transfer;
 *  - the XferData receive path == CMAM_handle_left_xfer, storing
 *                   packet data into a preallocated segment.
 *
 * The paper's Section 4 layer is this layer trusting its fabric
 * (Config::trusted): on a fabric that keeps order, packets carry no
 * placement offsets and land at a running write pointer; on one that
 * may refuse a packet without deadlock, a transfer's header packet
 * binds a posted buffer (postTransfer) with no handshake, and the NI
 * refuses header packets the segment table cannot hold.
 *
 * Every routine is written against the charged Processor/NetIface
 * primitives as a modeled SPARC instruction sequence; the counts it
 * produces are calibrated cell-by-cell to the paper's Tables 1-3
 * (see DESIGN.md section 2.1).  Comments of the form "reg k: ..."
 * document what the charged register instructions stand for.
 */

#ifndef MSGSIM_CMAM_CMAM_HH
#define MSGSIM_CMAM_CMAM_HH

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "cmam/segment.hh"
#include "machine/node.hh"
#include "net/packet.hh"
#include "sim/scratch.hh"

namespace msgsim
{

/** Messaging-layer control operations (header field A of Control). */
enum class CtrlOp : std::uint8_t
{
    XferAllocReq = 1, ///< finite-sequence step 1: request a segment
    XferAllocReply,   ///< step 3: segment id (or failure) back
    XferAck,          ///< step 6: end-to-end completion ack
    GenericA,         ///< free for tests / applications
    GenericB,         ///< free for tests / applications
    NumOps
};

/**
 * Per-node active message layer.
 */
class Cmam
{
  public:
    /** User active-message handler: src node + n words of arguments. */
    using AmHandler =
        std::function<void(NodeId src, const std::vector<Word> &args)>;

    /** Messaging-layer control sink. */
    using ControlSink = std::function<void(
        NodeId src, Word hdrArg, const std::vector<Word> &args)>;

    /**
     * Stream data sink: the layer has read the packet (header and n
     * data words) and charged its base receive; the sink charges
     * only its own protocol steps.
     */
    using StreamSink = std::function<void(
        NodeId src, Word header, const std::vector<Word> &words)>;

    /**
     * Raw packet sink: the sink reads the packet from the NI itself,
     * charging its own costs (the indefinite-sequence ack path).
     */
    using RawSink = std::function<void(NodeId src)>;

    /** Completion of a posted transfer. */
    using XferDoneFn = std::function<void(Word tid)>;

    /// Handler table size (machine-wide: am4 range-checks against it).
    static constexpr int maxHandlers = 64;
    /// Interrupt-driven reception (paper footnote 2): trap entry/exit
    /// cost on a SPARC-class processor — full register window
    /// spill/fill, PSR save/restore, vectoring.  "The cost for
    /// interrupts is very high for the SPARC processor."
    static constexpr std::uint64_t trapRegOps = 96;
    /// Interrupt acknowledge + cause read.
    static constexpr std::uint64_t trapDevOps = 2;
    /// Kernel crossing per messaging call when Config::kernelMediated:
    /// trap + dispatch + copyin/out glue.
    static constexpr std::uint64_t syscallRegOps = 120;

    struct Config
    {
        int maxSegments = 64;
        /// §5 extension: bulk-transfer payload moved by a DMA engine
        /// instead of per-word loads/stores.  Affects the xfer data
        /// path on both sides (the node's layer must match its
        /// peers').
        bool dmaXfer = false;
        /// §5's deferred issue, made measurable: when the NI is NOT
        /// user-accessible, every messaging call (send, poll entry,
        /// xfer) crosses into the kernel.  The paper's premise is
        /// that "user-level access to the CM-5 network interface is
        /// essential for low-cost communication" — this knob shows
        /// why.
        bool kernelMediated = false;
        /// The fabric services this layer leaves to the hardware
        /// (paper Section 4).  Empty for CMAM; the hl layer trusts
        /// CR's.  inOrderDelivery drops the per-packet offset step;
        /// acceptanceIndependent (which needs inOrderDelivery: the
        /// header packet carries the size) binds posted buffers
        /// without a handshake and installs the NI acceptance check.
        NetFeatures trusted;
    };

    explicit Cmam(Node &node) : Cmam(node, Config()) {}
    Cmam(Node &node, const Config &cfg);

    Cmam(const Cmam &) = delete;
    Cmam &operator=(const Cmam &) = delete;

    Node &node() { return node_; }
    int dataWords() const { return node_.ni().dataWords(); }
    SegmentTable &segments() { return segs_; }

    /** Register a user AM handler; returns its index. */
    int registerHandler(AmHandler fn);

    /** Install a control-operation sink. */
    void setControlSink(CtrlOp op, ControlSink fn);

    /** Install the indefinite-sequence data-packet sink. */
    void setStreamDataSink(StreamSink fn)
    {
        streamDataSink_ = std::move(fn);
    }

    /** Install the indefinite-sequence ack sink. */
    void setStreamAckSink(RawSink fn) { streamAckSink_ = std::move(fn); }

    // ------------------------------------------------------------
    // Send paths.  The caller scopes the feature; rows are set here.
    // ------------------------------------------------------------

    /**
     * CMAM_4: send one active message with up to n words of payload
     * (zero-padded to the hardware packet size).  Source cost at
     * n = 4: 20 instructions (Table 1).
     */
    void am4(NodeId dst, int handler, const std::vector<Word> &args);

    /**
     * CMAM_reply_4: the reply-class active message, identical in cost
     * but carried on the second data network so it can always drain
     * past backed-up requests (footnote 6).  Use inside handlers that
     * answer a request.
     */
    void am4Reply(NodeId dst, int handler,
                  const std::vector<Word> &args);

    /**
     * Send a messaging-layer control packet (same cost as am4).
     * Replies and acknowledgements travel the reply network
     * (@p vnet = 1) so they can always drain past backed-up
     * requests (paper footnote 6).
     */
    void sendControl(NodeId dst, CtrlOp op, Word hdrArg,
                     const std::vector<Word> &args, int vnet = 0);

    /**
     * The shared single-packet injection sequence: control-word
     * store, space check, len/2 double-word data pushes, send_ok
     * confirmation: 14 reg + 1 mem + (len/2 + 3) dev.  @p lenWords
     * defaults to the 4-word CMAM_4 format; bulk-data senders (the
     * stream protocol) pass 0 for a full hardware packet.
     */
    void sendTagged(HwTag tag, NodeId dst, Word header,
                    const std::vector<Word> &args, int lenWords = 4,
                    int vnet = 0);

    /**
     * CMAM_xfer_N: stream @p words words starting at @p srcBuf to
     * @p dst, into segment @p id — or, when the layer trusts
     * acceptanceIndependent, into the buffer posted for transfer
     * @p id.  @p words must be a multiple of the packet size.
     * Charges BaseCost (3 + p*(16 + 1.5n) style) plus 2 reg per
     * packet under InOrderDelivery (offset maintenance) unless the
     * layer trusts inOrderDelivery.  With Config::dmaXfer (set on
     * the receiving node too) one descriptor store per packet
     * replaces the per-word ldd/std traffic.
     */
    void xferSend(NodeId dst, Word id, Addr srcBuf, std::uint32_t words);

    /**
     * Post the receive buffer of transfer @p tid (uncharged: the
     * receiving application owning a buffer, not protocol work).  Its
     * header packet binds it; @p done runs when the last packet has
     * landed.  Only on a layer that trusts acceptanceIndependent.
     */
    void postTransfer(Word tid, Addr buf, XferDoneFn done);

    // ------------------------------------------------------------
    // Receive path.
    // ------------------------------------------------------------

    /**
     * CMAM_request_poll: drain the NI receive FIFO, dispatching each
     * packet by hardware tag.  Returns the number of packets
     * handled.  Fixed cost 12 reg + 1 dev plus per-packet costs by
     * tag (Table 1 destination column for user AMs).
     */
    int poll();

    /**
     * Interrupt-driven reception: the NI raised an interrupt; take
     * the trap (trapRegOps + trapDevOps — far more than a
     * poll entry), then drain the FIFO with the same per-packet
     * dispatch as poll().  Returns packets handled.
     */
    int interruptService();

    /** Interrupts taken via interruptService() so far. */
    std::uint64_t interruptsTaken() const { return interruptsTaken_; }

    /**
     * Instructions spent on host handler dispatch so far: poll/trap
     * linkage, NI status polling, tag-vector decode, and handler
     * call/return glue — the overhead a NIC-offloaded AM substrate
     * eliminates.  A plain diagnostic mirror of charges that stay
     * inside the paper's Base Cost feature (the golden-pinned
     * attribution is untouched); the differential profiler diffs it
     * as its own row for the modern-substrate comparison.
     */
    std::uint64_t dispatchOps() const { return dispatchOps_; }

    /**
     * This node's payload buffers: the receive path reads each
     * packet's words into one, and a handler composing a packet on
     * this node (the stream ack) leases the next.
     */
    ScratchPool<std::vector<Word>> &wordBufs() { return argBufs_; }

  private:
    void chargeSyscall();
    int drain(bool pollEntry);
    void genericReceive(HwTag tag, const Packet &head);
    void handleXferData();
    Word boundSegment(Word header);
    void completeXfer(Word segId);

    Node &node_;
    Config cfg_;
    SegmentTable segs_;
    Addr niBaseAddr_; ///< memory word caching the NI base address

    std::vector<AmHandler> handlers_;
    std::array<ControlSink, static_cast<std::size_t>(CtrlOp::NumOps)>
        ctrlSinks_;
    StreamSink streamDataSink_;
    RawSink streamAckSink_;
    /// A buffer posted for a transfer, and the segment its header
    /// packet bound (trusted fabric only).
    struct Posted
    {
        Addr buf = 0;
        XferDoneFn done;
        Word seg = invalidSegment;
    };
    std::map<Word, Posted> posted_; ///< by transfer id
    /// genericReceive's argument buffers.  Leased, because a handler
    /// may poll (and so re-enter genericReceive) while it still reads
    /// its own arguments; reused, so receiving never allocates.
    ScratchPool<std::vector<Word>> argBufs_;
    std::uint64_t interruptsTaken_ = 0;
    std::uint64_t dispatchOps_ = 0;
};

} // namespace msgsim

#endif // MSGSIM_CMAM_CMAM_HH
