/**
 * @file
 * Host-side messaging layer for the NIC-offloaded AM substrate.
 *
 * The send path is the CM-5 NI path, unchanged — offload buys the
 * *receiver* out of its work.  Handlers installed in the NIC's table
 * run on packet arrival without host involvement; the host's
 * per-message bill collapses to a completion-flag probe.  What
 * remains charged on the host:
 *
 *  - sends (identical single-packet injection sequence);
 *  - sequence/offset stamping at the source (the fabric is still
 *    out of order; ordering metadata is the source's job, charged
 *    under the in-order feature);
 *  - posting receive state the NIC places into (buffer management);
 *  - completion probes and stream harvesting (reads of host memory
 *    the NIC has already filled, charged as base cost);
 *  - full dispatch for handlers that missed the bounded table —
 *    poll() is the fallback path and its dispatchOps() counter
 *    quantifies exactly what offload would have saved.
 */

#ifndef MSGSIM_NICAM_NICAM_LAYER_HH
#define MSGSIM_NICAM_NICAM_LAYER_HH

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "machine/node.hh"
#include "net/packet.hh"
#include "nicam/nicam_network.hh"

namespace msgsim
{

/**
 * Per-node host layer over NicamNetwork.
 */
class NicamLayer
{
  public:
    /** An active-message handler (host- or NIC-resident). */
    using AmFn = std::function<void(NodeId src, Word header,
                                    const std::vector<Word> &args)>;

    /** Transfer ids the done-flag table holds. */
    static constexpr Word maxXferIds = 64;

    NicamLayer(Node &node, NicamNetwork &net);

    NicamLayer(const NicamLayer &) = delete;
    NicamLayer &operator=(const NicamLayer &) = delete;

    Node &node() { return node_; }
    int dataWords() const { return node_.ni().dataWords(); }

    // ------------------------------------------------------------
    // Send side (charged; the NI injection path).
    // ------------------------------------------------------------

    /** One active message: the Table 1 source sequence. */
    void amSend(NodeId dst, Word handler,
                const std::vector<Word> &args);

    /**
     * Stream @p words words to the posted transfer @p sid.  Each
     * packet carries its placement offset (the fabric reorders;
     * the NIC places by offset) — stamped at 2 reg per packet under
     * the in-order feature.
     */
    void xferSend(NodeId dst, Word sid, Addr srcBuf,
                  std::uint32_t words);

    /**
     * Stream packet @p seq on @p chan, its sequence number stamped at
     * the source (2 reg, in-order feature) for the NIC's reorder
     * stage.
     */
    void streamSend(NodeId dst, Word chan, std::uint32_t seq,
                    const std::vector<Word> &data);

    // ------------------------------------------------------------
    // NIC programming (uncharged control plane) and NIC-side state.
    // ------------------------------------------------------------

    /**
     * Install @p fn for AM handler id @p handler.  True: the entry
     * fits the NIC table and the handler runs on the NIC (uncharged).
     * False: the table is full; the handler is kept host-side and
     * poll() dispatches it at full cost.
     */
    bool installAmHandler(Word handler, AmFn fn);

    /**
     * NIC-side reply injection, for handlers running on the NIC
     * (uncharged — the host never sees the message).
     */
    void nicInject(NodeId dst, Word handler,
                   const std::vector<Word> &args);

    /**
     * Post receive state for transfer @p sid (below maxXferIds): the
     * NIC will place arriving fragments into [buf, buf+words) by
     * header offset and raise the done flag after the last word.  The
     * descriptor write is host work, charged under buffer management.
     * Returns false when the NIC table is full (transfer cannot be
     * offloaded).
     */
    bool postXfer(Word sid, Addr buf, std::uint32_t words);

    /**
     * Open stream @p chan: the NIC reorders by sequence number into
     * the @p slots-packet ring at @p ring and bumps the producer count
     * in the word after the ring.  Uncharged setup.  False when the
     * table is full.
     */
    bool openStream(Word chan, Addr ring, std::uint32_t slots);

    /** Retire stream @p chan and its NIC-table entry (uncharged). */
    void closeStream(Word chan);

    /**
     * Run @p fn whenever the NIC raises a transfer's done flag or
     * releases stream data into a ring (Stack::pollOnArrival
     * installs it); null removes it.
     */
    void setArrivalHook(std::function<void()> fn)
    {
        arrivalHook_ = std::move(fn);
    }

    // ------------------------------------------------------------
    // Host-side completion probes (charged).
    // ------------------------------------------------------------

    /** Probe a completion flag the NIC raises: 2 reg + 1 mem. */
    bool probeFlag(Addr flag);

    /**
     * True when transfer @p sid has fully landed; the host then
     * retires it, and the NIC its table entry.
     */
    bool xferDone(Word sid);

    /**
     * Consume newly landed stream packets of @p chan into @p out.
     * Returns packets harvested.  Count probe plus n/2 double reads
     * per packet — the host's whole per-packet stream cost.
     */
    std::uint32_t streamHarvest(Word chan, std::vector<Word> &out);

    /** Host-fallback dispatch of packets that missed the NIC table. */
    int poll();

    // ------------------------------------------------------------
    // NIC-side state the host has not taken in yet (uncharged).
    // ------------------------------------------------------------

    /** True once posted transfer @p sid has fully landed. */
    bool xferLanded(Word sid) const;

    /** Packets of stream @p chan released but not yet harvested. */
    std::uint32_t streamLanded(Word chan) const;

    // ------------------------------------------------------------
    // Diagnostics (plain counters, never charged).
    // ------------------------------------------------------------

    /** Handlers dispatched on the host via poll(). */
    std::uint64_t hostDispatches() const { return hostDispatches_; }

    /**
     * Instructions spent on host handler dispatch, as
     * Cmam::dispatchOps() counts them.  Stays ~zero while the NIC
     * table holds all handlers — the offload differential.
     */
    std::uint64_t dispatchOps() const { return dispatchOps_; }

  private:
    struct XferState // NIC-side placement engine state
    {
        Addr buf = 0;
        std::uint32_t words = 0;
        std::uint32_t received = 0;
        Addr flag = 0;
    };

    struct StreamState // NIC-side reorder engine state
    {
        Addr ring = 0;
        std::uint32_t slots = 0;
        Addr countAddr = 0; ///< the word after the ring
        std::uint32_t expect = 0;   ///< next sequence to release
        std::uint32_t produced = 0; ///< packets placed in the ring
        std::uint32_t consumed = 0; ///< host-side harvest cursor
        std::map<std::uint32_t, std::vector<Word>> pending;
    };

    void nicXferArrive(Word sid, const Packet &pkt);
    void nicStreamArrive(Word chan, const Packet &pkt);

    Node &node_;
    NicamNetwork &net_;
    Addr niBaseAddr_ = 0;
    Addr flagTable_ = 0; ///< per-sid xfer done flags
    std::map<Word, XferState> xfers_;
    std::map<Word, StreamState> streams_;
    std::map<Word, AmFn> hostHandlers_; ///< table-overflow fallback
    std::function<void()> arrivalHook_;
    std::uint64_t hostDispatches_ = 0;
    std::uint64_t dispatchOps_ = 0;
};

} // namespace msgsim

#endif // MSGSIM_NICAM_NICAM_LAYER_HH
