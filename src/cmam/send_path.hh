/**
 * @file
 * The NI paths every host layer shares.
 *
 * Section 4.1 of the paper: "The costs for sending and receiving a
 * single packet are identical to the CMAM case ... fixed by the
 * network interface, which is identical in the two cases."  The
 * host layers that drive the CM-5-class NI therefore share this
 * code: the single-packet injection sequence, the xfer packet loop
 * (CMAM_xfer_N's source side), and the loop that drains the receive
 * FIFO and dispatches each packet by hardware tag.
 */

#ifndef MSGSIM_CMAM_SEND_PATH_HH
#define MSGSIM_CMAM_SEND_PATH_HH

#include <cstdint>
#include <vector>

#include "core/row.hh"
#include "machine/node.hh"
#include "net/lineage_hook.hh"
#include "net/packet.hh"
#include "sim/log.hh"

namespace msgsim
{

/** The CMAM_4 single-packet payload format: four data words. */
constexpr int amPacketWords = 4;

/**
 * Inject one packet from @p node, charging the Table 1 source
 * sequence: control-word store, send-space check, len/2 double-word
 * data pushes, send_ok confirmation — 14 reg + 1 mem + (len/2 + 3)
 * dev.  @p niBaseAddr is the memory word caching the NI base address
 * (one charged load per call).  Payload is zero-padded to
 * @p lenWords (default: the 4-word CMAM_4 format — active messages
 * and protocol control packets stay small even when the hardware
 * supports bigger packets; bulk-data senders pass the full packet
 * size).  Retries the push until send_ok.
 */
void singlePacketSend(Node &node, Addr niBaseAddr, HwTag tag, NodeId dst,
                      Word header, const std::vector<Word> &args,
                      int lenWords = amPacketWords, int vnet = 0);

/**
 * The xfer packet loop: stream @p words words from @p srcBuf to
 * @p dst as full XferData packets whose header field A is @p id.
 * Fixed entry 2 reg + 1 mem (the NI base pointer stays register-
 * cached across the burst); per packet 15 reg (3 of them branches)
 * + 3 dev plus the payload — n/2 ldd + n/2 dev pushes, or with
 * @p dma one descriptor store.
 *
 * With @p stampOffsets (a fabric that may reorder) every packet
 * carries its placement offset in field B, 2 reg each under
 * InOrderDelivery.  Without it transmission order is delivery order:
 * the first packet (the header packet) carries the transfer size and
 * the rest carry 0.
 */
void xferPacketLoop(Node &node, Addr niBaseAddr, NodeId dst, Word id,
                    Addr srcBuf, std::uint32_t words, bool stampOffsets,
                    bool dma);

/**
 * Charge one poll-loop status iteration: 1 dev (status read) +
 * 1 reg (ready test) + 2 reg (dispatch/loop branches).  Returns the
 * status word.  Used where ack or data consumption is folded into a
 * running loop rather than a fresh poll entry.
 */
Word pollIterationStatus(Node &node);

/**
 * The NI drain loop (CMAM_request_poll's body): read the status,
 * decode the head packet's tag, run @p handle(tag, head) inside the
 * packet's lineage handler context, take the back-edge; until the
 * receive FIFO is empty.  @p handle must consume the packet; @p head
 * stays valid until its last word is read.
 *
 * A poll entry (@p pollEntry) charges the call linkage (3) and the
 * mask/shift constant setup on its first status read (reg 9); a
 * trap entry has both done by the trap vector, which the caller
 * charges.  Every dispatch instruction also counts in @p dispatchOps.
 * Returns the packets handled.
 */
template <typename Handle>
int
drainRecvFifo(Node &node, std::uint64_t &dispatchOps, bool pollEntry,
              Handle &&handle)
{
    Processor &p = node.proc();
    Accounting &a = p.acct();
    NetIface &ni = node.ni();
    if (pollEntry) {
        // CMAM_request_poll linkage: call, save, ret.
        RowScope r(a, CostRow::CallReturn);
        p.callRet(3);
        dispatchOps += 3;
    }
    int handled = 0;
    bool first = pollEntry;
    for (;;) {
        Word status;
        {
            // One status read per iteration; the entry iteration also
            // charges the mask/shift constant setup (reg 9), later
            // ones just the ready test (reg 1).
            RowScope r(a, CostRow::CheckStatus);
            status = ni.readStatus(a);
            p.regOps(first ? 9 : 1);
            dispatchOps += first ? 10 : 2; // status read + decode
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
            lh->handlerBegin(node.id(), *head, ni.sim().now());
        handle(tag, *head);
        if (lh)
            lh->handlerEnd(node.id(), ni.sim().now());
        ++handled;
        {
            // Loop back-edge + dispatch-table branch.
            RowScope r(a, CostRow::ControlFlow);
            p.branches(2);
        }
        dispatchOps += 2;
    }
    return handled;
}

} // namespace msgsim

#endif // MSGSIM_CMAM_SEND_PATH_HH
