/**
 * @file
 * RDMA/verbs-style network substrate.
 *
 * Models the fabric half of a modern verbs NIC (the layered cost
 * breakdown of "Breaking Band", arXiv 2002.02563): a lossless,
 * credit-flow-controlled switched fabric over which each queue pair
 * sees reliable, strictly in-order delivery:
 *
 *  1. *Per-QP in-order transmission* — packets of a (src, dst, vnet)
 *     flow arrive in injection order; a stalled packet (receiver not
 *     ready) blocks its flow, younger packets queue behind it.
 *  2. *Link-level reliability* — injected faults are absorbed by
 *     link-level retry (PFC + CRC retransmission) and never become
 *     visible to the endpoints; the payload arrives intact exactly
 *     once.
 *  3. *Receiver-not-ready backpressure* — the destination NIC may
 *     refuse a packet (no posted receive, completion queue full);
 *     the fabric holds the flow and retries later (the RNR NAK
 *     cycle), so deadlock freedom never depends on acceptance.
 *
 * What is genuinely new versus CrNetwork is declared in features():
 * zero-copy delivery into registered regions and host-polled
 * completion queues — capabilities the RdmaNic host layer exploits
 * and the differential profiler measures as the completion-poll and
 * registration feature columns.
 */

#ifndef MSGSIM_RDMANET_RDMA_NETWORK_HH
#define MSGSIM_RDMANET_RDMA_NETWORK_HH

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
 * Reliable, per-QP-in-order, acceptance-independent RDMA fabric.
 */
class RdmaNetwork : public Network
{
  public:
    struct Config
    {
        std::uint32_t nodes = 4;   ///< endpoint count
        std::uint32_t arity = 4;   ///< fat-tree arity
        Tick baseLatency = 10;     ///< fixed injection-to-edge time
        Tick hopLatency = 2;       ///< per switch-to-switch hop
        Tick linkRetryDelay = 6;   ///< link-level CRC retransmission
        Tick rnrRetryDelay = 12;   ///< receiver-not-ready retry period
        Tick injectGap = 0;        ///< link-bandwidth: per-source spacing
        Tick deliverGap = 0;       ///< link-bandwidth: per-dest spacing
        FaultInjector::Config faults; ///< absorbed by link-level retry
    };

    RdmaNetwork(Simulator &sim, const Config &cfg);

    NetFeatures
    features() const override
    {
        NetFeatures f;
        f.inOrderDelivery = true;
        f.reliableDelivery = true;
        f.acceptanceIndependent = true;
        f.zeroCopy = true;
        f.completionQueue = true;
        return f;
    }

    const FatTree &topology() const { return tree_; }
    FaultInjector &faults() { return faults_; }

  protected:
    bool injectImpl(Packet &&pkt) override;

  private:
    struct FlowState
    {
        Ring<Packet> queue;   ///< arrived, not yet accepted
        Tick nextArrival = 0; ///< per-QP order: earliest next arrival
        bool drainScheduled = false;
    };

    /** Enqueue an arrived packet and try to drain its flow. */
    void arrive(Packet &&pkt);

    /** Deliver queued packets of flow (src, lane) in order until one
     *  stalls (lane: see flowLane()). */
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

#endif // MSGSIM_RDMANET_RDMA_NETWORK_HH
