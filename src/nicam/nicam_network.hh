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
 * the paper's per-message dispatch overhead — vanishes.
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
#include <memory>
#include <utility>
#include <vector>

#include "net/fault.hh"
#include "net/network.hh"
#include "net/order.hh"
#include "net/topology.hh"
#include "sim/rng.hh"

namespace msgsim
{

/**
 * CM-5-style fabric with an on-NIC handler table at each edge.
 */
class NicamNetwork : public Network
{
  public:
    struct Config
    {
        std::uint32_t nodes = 4;     ///< leaf node count
        std::uint32_t arity = 4;     ///< fat-tree arity
        Tick baseLatency = 10;       ///< fixed injection-to-edge time
        Tick hopLatency = 2;         ///< per switch-to-switch hop
        Tick maxJitter = 0;          ///< random extra latency (OOO source)
        Tick retryDelay = 8;         ///< redelivery period when sink full
        Tick injectGap = 0;          ///< link bandwidth: source spacing
        Tick deliverGap = 0;         ///< link bandwidth: dest spacing
        double injectBusyRate = 0.0; ///< P(injection port busy) per try
        std::uint64_t seed = 0xc0ffeeULL;
        int maxOffloadEntries = 8;   ///< on-NIC handler-table size
        FaultInjector::Config faults;
        OrderPolicyFactory orderFactory; ///< default: FIFO
    };

    /**
     * An offloaded handler: runs "on the NIC" when its entry matches,
     * so it must never charge host Accounting.
     */
    using OffloadFn = std::function<void(const Packet &)>;

    NicamNetwork(Simulator &sim, const Config &cfg);

    NetFeatures
    features() const override
    {
        NetFeatures f; // fabric properties are the CM-5's
        f.offloadDispatch = true;
        return f;
    }

    void flushHeldPackets() override;

    const FatTree &topology() const { return tree_; }
    FaultInjector &faults() { return faults_; }

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

  protected:
    bool injectImpl(Packet &&pkt) override;

  private:
    using TableKey = std::pair<int, Word>; ///< (tag, selector)

    struct OffloadEntry
    {
        OffloadFn fn;
        std::uint64_t hits = 0;
    };

    void routeToEdge(Packet &&pkt);
    void arriveAtEdge(Packet &&pkt);

    /** NIC-table lookup, then the normal sink path on a miss. */
    void tryDeliver(Packet &&pkt);

    Config cfg_;
    FatTree tree_;
    FaultInjector faults_;
    Rng rng_;
    OrderStage order_;
    std::map<NodeId, std::map<TableKey, OffloadEntry>> tables_;
    /// Earliest next departure / arrival per node (link serialization).
    std::vector<Tick> nextDeparture_;
    std::vector<Tick> nextArrival_;
    std::uint64_t offloadHits_ = 0;
    std::uint64_t offloadMisses_ = 0;
    std::uint64_t offloadCrcDrops_ = 0;
};

} // namespace msgsim

#endif // MSGSIM_NICAM_NICAM_NETWORK_HH
