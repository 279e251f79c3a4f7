/**
 * @file
 * Protocol 2: finite-sequence, multi-packet delivery (paper Section
 * 3.2, Figure 3) — the CMAM_xfer-style reliable memory-to-memory
 * transfer.
 *
 * Six steps: (1) the sender requests an allocation; (2) the receiver
 * allocates a communication segment; (3) and replies; (4) the sender
 * streams single-packet transfers carrying explicit placement
 * offsets; (5) on completion the receiver frees the segment; (6) and
 * returns an end-to-end acknowledgement.
 *
 * Cost attribution (calibrated to Tables 2/3 at n = 4):
 *   BaseCost    — the data packets themselves (77+24p / 140+21p split
 *                 over the four features as in DESIGN.md);
 *   BufferMgmt  — steps 1,2,3,5 (src 47, dst 101);
 *   InOrderDel. — offset maintenance (src 2p, dst 3p+1);
 *   FaultToler. — step 6 (src 27, dst 20).
 *
 * Event mode adds timeout-driven full-restart recovery: if the ack
 * does not arrive, the source re-runs the handshake (the receiver
 * frees the stale segment) and resends every packet — exercising the
 * "fault-detection but no fault-tolerance" network property.
 *
 * On a layer that provides acceptanceIndependent (the paper's Section
 * 4 layer on CR, verbs, NIC offload) steps 1-3, 5 and 6 vanish: the
 * destination posts its buffer and the source sends the data at once
 * (Stack::postTransfer and sendTransfer).  On hl the header packet
 * binds the buffer and the fabric refuses and retransmits what cannot
 * be placed; verbs and offload place into it on the NIC.  So there is
 * no ack, timer or restart either.
 */

#ifndef MSGSIM_PROTOCOLS_FINITE_XFER_HH
#define MSGSIM_PROTOCOLS_FINITE_XFER_HH

#include <cstdint>
#include <map>
#include <utility>

#include "protocols/result.hh"
#include "protocols/stack.hh"

namespace msgsim
{

/** Parameters of one finite-sequence transfer. */
struct FiniteXferParams
{
    NodeId src = 0;
    NodeId dst = 1;
    std::uint32_t words = 16;  ///< message size (multiple of n)
    std::uint64_t fillSeed = 0x11d0'beefULL;
    bool eventMode = false;    ///< event-driven with timers/recovery
    Tick ackTimeout = 4000;    ///< event mode: restart period
    int maxRestarts = 16;      ///< event mode: give-up bound
    /// Event mode: how arrivals are serviced (poll vs interrupt).
    RecvDiscipline discipline = RecvDiscipline::Poll;
};

/**
 * The finite-sequence protocol engine for one stack.  Reads what the
 * stack's layer provides once, at construction, and installs its
 * handshake sinks on every node unless the layer makes them unneeded;
 * multiple transfers (sequential or concurrent in event mode) are
 * supported.
 */
class FiniteXfer
{
  public:
    explicit FiniteXfer(Stack &stack);

    /**
     * Execute one transfer and report its cost breakdown.  A completed
     * run's buffers serve the next run of the same (src, dst, words),
     * so repeated runs on one engine stop growing node memory.
     */
    RunResult run(const FiniteXferParams &params);

    // ------------------------------------------------------------
    // Stepwise API for the model checker (src/check): explicit,
    // non-blocking operations driven by an external schedule.  The
    // transfer reacts to polled arrivals (the alloc reply triggers
    // the data phase); recovery is the caller's explicit decision.
    // ------------------------------------------------------------

    /**
     * Set up a transfer and issue step 1 (the alloc request), or on a
     * trusting layer post the buffer and send the data.  Returns the
     * transfer id; the data phase fires reactively when the reply is
     * polled at the source.
     */
    Word beginTransfer(const FiniteXferParams &params);

    /**
     * True once the end-to-end ack (step 6) has arrived, or on a
     * trusting layer once the last packet has landed.
     */
    bool transferComplete(Word tid) const;

    /** True when the destination buffer matches the source's. */
    bool transferDataOk(Word tid) const;

    /**
     * Timeout recovery: re-run the whole handshake (the destination
     * retires its stale segment).  Returns false when @p maxRestarts
     * is exhausted, the transfer already completed or the fabric
     * recovers in hardware (no restart issued).
     */
    bool restartTransfer(Word tid, int maxRestarts = 16);

    /** Restarts performed so far on a transfer. */
    int transferRestarts(Word tid) const;

    /** Destination segments currently allocated (buffer-bound probe). */
    std::size_t activeDstSegments() const { return dstSegments_.size(); }

  private:
    struct Transfer
    {
        NodeId src = 0;
        NodeId dst = 0;
        Addr srcBuf = 0;
        Addr dstBuf = 0;
        std::uint32_t words = 0;
        std::uint32_t packets = 0;
        Word segId = invalidSegment; ///< source's view after reply
        bool gotReply = false;
        bool gotAck = false; ///< trusting layer: the last packet landed
        int restarts = 0;
        std::uint64_t retransmitted = 0;
    };

    /**
     * Validate @p params and register a transfer, source filled: in a
     * finished run's buffers of the same shape, else in new ones.
     */
    Word newTransfer(const FiniteXferParams &params);
    /**
     * Step 1: ask the destination for a segment (BufferMgmt); on a
     * trusting layer, post the destination buffer and send the data.
     */
    void startTransfer(Word transferId);
    void installSinks();
    void onAllocReq(NodeId dstNode, NodeId srcNode, Word transferId,
                    const std::vector<Word> &args);
    void onAllocReply(Word transferId, const std::vector<Word> &args);
    void onAck(Word transferId);

    /** Event mode: (re)arm the restart timer for a transfer. */
    void armTimer(Word transferId);
    /** The restart timer: re-run the handshake unless acked. */
    void onAckTimeout(std::uint32_t transferId);
    /** Event mode: data phase (handshake done) for a transfer. */
    void sendData(Word transferId);

    Stack &stack_;
    /// False when the layer trusts acceptanceIndependent: no step 1,
    /// 2, 3, 5 or 6.
    const bool handshake_;
    std::map<Word, Transfer> transfers_;
    /// Completed run() transfers whose buffers newTransfer reuses.
    /// Their map nodes move between the two maps, so recycling a
    /// transfer allocates nothing.
    std::map<Word, Transfer> finished_;
    /// (dstNode, transferId) -> active destination segment.
    std::map<std::pair<NodeId, Word>, Word> dstSegments_;
    Word nextTransferId_ = 1;
    bool eventMode_ = false;
    // The event-mode run's restart timer (only run() arms one).
    Tick ackTimeout_ = 0;
    int maxRestarts_ = 0;
};

} // namespace msgsim

#endif // MSGSIM_PROTOCOLS_FINITE_XFER_HH
