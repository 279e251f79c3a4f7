/**
 * @file
 * Compressionless-Routing-style network.
 *
 * Models the three high-level hardware services of Section 4 (after
 * Kim, Liu & Chien's Compressionless Routing):
 *
 *  1. *Order-preserving transmission* — packets of a (src, dst) flow
 *     are delivered strictly in injection order, across faults and
 *     rejections (a retried packet blocks its flow, like the teardown
 *     and retransmission of a message path).
 *  2. *Deadlock freedom independent of acceptance* — a destination may
 *     refuse a packet (header rejection when it has no resources);
 *     the hardware tears the path down and retransmits later, so
 *     software needs no preallocation handshake.
 *  3. *Packet-level fault tolerance* — acceptance of the last flit
 *     acts as an end-to-end acknowledgement; injected faults trigger
 *     hardware retransmission and never become visible to software.
 */

#ifndef MSGSIM_CRNET_CR_NETWORK_HH
#define MSGSIM_CRNET_CR_NETWORK_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "net/fault.hh"
#include "net/network.hh"
#include "net/ring.hh"
#include "net/topology.hh"

namespace msgsim
{

/**
 * In-order, reliable, acceptance-independent network substrate.
 */
class CrNetwork : public Network
{
  public:
    struct Config
    {
        std::uint32_t nodes = 4;   ///< leaf node count
        std::uint32_t arity = 4;   ///< fat-tree arity
        Tick baseLatency = 10;     ///< fixed injection-to-edge time
        Tick hopLatency = 2;       ///< per switch-to-switch hop
        Tick hwRetryDelay = 6;     ///< path teardown + retransmit time
        Tick rejectRetryDelay = 12;///< retry period after header reject
        Tick injectGap = 0;        ///< link-bandwidth: per-source spacing
        Tick deliverGap = 0;       ///< link-bandwidth: per-dest spacing
        FaultInjector::Config faults; ///< faults corrected in hardware
    };

    CrNetwork(Simulator &sim, const Config &cfg);

    NetFeatures
    features() const override
    {
        return {/*inOrder=*/true, /*reliable=*/true,
                /*acceptanceIndependent=*/true};
    }

    const FatTree &topology() const { return tree_; }
    FaultInjector &faults() { return faults_; }

  protected:
    bool injectImpl(Packet &&pkt) override;

  private:
    struct FlowState
    {
        Ring<Packet> queue;   ///< arrived, not yet accepted
        Tick nextArrival = 0; ///< order: earliest arrival of the next
        bool drainScheduled = false;
    };

    /** Enqueue an arrived packet and try to drain its flow. */
    void arrive(Packet &&pkt);

    /** Deliver queued packets of flow (src, lane) in order until one
     *  rejects (lane: see flowLane()). */
    void drain(NodeId src, std::uint32_t lane);

    Config cfg_;
    FatTree tree_;
    FaultInjector faults_;
    FlowTable<FlowState> flows_;
    /// Earliest next departure / arrival per node (link serialization).
    std::vector<Tick> nextDeparture_;
    std::vector<Tick> nextAtDest_;
};

} // namespace msgsim

#endif // MSGSIM_CRNET_CR_NETWORK_HH
