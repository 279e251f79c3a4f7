/**
 * @file
 * NIC-offloaded active-message substrate.
 *
 * The fabric is the CM-5's (out of order, finite-buffered,
 * detection-only) — what changes is the *destination edge*: the NIC
 * carries a bounded handler table, and a packet whose (tag, selector)
 * matches an entry is dispatched on the NIC itself (the
 * network-accelerated active-message model of arXiv 2509.07431).
 * A matched packet never enters the receive FIFO and never costs the
 * host a single instruction; the host's poll/decode/linkage bill —
 * the paper's per-message dispatch overhead — vanishes.  So this is
 * Cm5Network's engine with the table in front of the sink
 * (deliver()), which a schedule gate's deliveries pass too.
 *
 * The table is small, like real offload engines.  A packet that
 * misses falls back to the normal NI path and pays full host
 * dispatch, so the offload boundary is measurable: per-entry hit
 * counters, a miss counter, and the host layer's dispatchOps()
 * quantify exactly what moved into hardware.
 */

#ifndef MSGSIM_NICAM_NICAM_NETWORK_HH
#define MSGSIM_NICAM_NICAM_NETWORK_HH

#include <cstdint>
#include <functional>
#include <map>
#include <utility>

#include "cm5net/cm5_network.hh"

namespace msgsim
{

/**
 * CM-5-style fabric with an on-NIC handler table at each edge.
 */
class NicamNetwork : public Cm5Network
{
  public:
    struct Config : Cm5Network::Config
    {
        int maxOffloadEntries = 8; ///< on-NIC handler-table size
    };

    /**
     * An offloaded handler: runs "on the NIC" when its entry matches,
     * so it must never charge host Accounting.
     */
    using OffloadFn = std::function<void(const Packet &)>;

    NicamNetwork(Simulator &sim, const Config &cfg);

    /// Fabric properties are the CM-5's; only dispatch moves.
    static constexpr NetFeatures hwFeatures{.offloadDispatch = true};

    NetFeatures features() const override { return hwFeatures; }

    /**
     * Install an on-NIC handler at @p dst for packets whose hardware
     * tag is @p tag and whose header field A equals @p selector.
     * Returns false when the node's table is full (the caller must
     * dispatch on the host instead).  Uncharged: programming the
     * table is control-plane work.
     */
    bool offloadHandler(NodeId dst, HwTag tag, Word selector,
                        OffloadFn fn);

    /** Remove an entry (uncharged).  No-op when absent. */
    void removeOffload(NodeId dst, HwTag tag, Word selector);

    /** Packets dispatched by the NIC table across all nodes. */
    std::uint64_t offloadHits() const { return offloadHits_; }
    /** Hits of one specific entry (0 when absent). */
    std::uint64_t offloadHits(NodeId dst, HwTag tag,
                              Word selector) const;
    /** Packets that missed a non-empty table (host fallback). */
    std::uint64_t offloadMisses() const { return offloadMisses_; }
    /** Corrupt packets the NIC's CRC check discarded at the table. */
    std::uint64_t offloadCrcDrops() const { return offloadCrcDrops_; }
    /** Live table entries at @p dst. */
    int offloadEntries(NodeId dst) const;

    /**
     * The NIC-table lookup, then the host sink on a miss.  A miss is
     * counted once, when the sink accepts the packet.
     */
    bool deliver(Slot slot) override;

  private:
    using TableKey = std::pair<int, Word>; ///< (tag, selector)

    struct OffloadEntry
    {
        OffloadFn fn;
        std::uint64_t hits = 0;
    };

    int maxOffloadEntries_;
    std::map<NodeId, std::map<TableKey, OffloadEntry>> tables_;
    std::uint64_t offloadHits_ = 0;
    std::uint64_t offloadMisses_ = 0;
    std::uint64_t offloadCrcDrops_ = 0;
};

} // namespace msgsim

#endif // MSGSIM_NICAM_NICAM_NETWORK_HH
