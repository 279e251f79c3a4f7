/**
 * @file
 * Compressionless-Routing-style network: the in-order engine.
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
 *
 * RdmaNetwork runs this engine unchanged: a verbs fabric's per-QP
 * in-order reliable delivery is the same three services.
 */

#ifndef MSGSIM_CRNET_CR_NETWORK_HH
#define MSGSIM_CRNET_CR_NETWORK_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "net/fault.hh"
#include "net/network.hh"
#include "net/topology.hh"
#include "sim/ring.hh"

namespace msgsim
{

namespace hostprof
{
enum class Site : std::uint8_t;
}

/**
 * In-order, reliable, acceptance-independent network substrate.
 */
class CrNetwork : public Network
{
  public:
    struct Config
    {
        std::uint32_t nodes = 4;   ///< leaf node count
        Tick injectGap = 0;        ///< link-bandwidth: per-source spacing
        Tick deliverGap = 0;       ///< link-bandwidth: per-dest spacing
        FaultInjector::Config faults; ///< faults corrected in hardware
    };

    static constexpr std::uint32_t arity = 4;    ///< fat-tree arity
    static constexpr Tick baseLatency = 10;      ///< injection to edge
    static constexpr Tick hopLatency = 2;        ///< per switch hop
    static constexpr Tick hwRetryDelay = 6;      ///< teardown + resend
    static constexpr Tick rejectRetryDelay = 12; ///< after a rejection

    CrNetwork(Simulator &sim, const Config &cfg);

    static constexpr NetFeatures hwFeatures{
        .inOrderDelivery = true,
        .reliableDelivery = true,
        .acceptanceIndependent = true,
    };

    NetFeatures features() const override { return hwFeatures; }

    const FatTree &topology() const { return tree_; }
    FaultInjector &faults() { return faults_; }

  protected:
    /** The engine, its host time charged to @p route and @p deliver. */
    CrNetwork(Simulator &sim, const Config &cfg, hostprof::Site route,
              hostprof::Site deliver);

    bool injectImpl(Slot slot) override;

  private:
    struct FlowState
    {
        Ring<Slot> queue;     ///< arrived, not yet accepted
        Tick nextArrival = 0; ///< order: earliest arrival of the next
        bool retryPending = false; ///< the head awaits retryHead()
    };

    /**
     * Enqueue an arrived packet and drain its flow, unless the flow's
     * head awaits a reject-retry.
     */
    void arrive(Slot slot);

    /** The reject-retry of the flow head parked in @p slot. */
    void retryHead(Slot slot);

    /** Deliver queued packets of flow (src, lane) in order until one
     *  rejects (lane: see flowLane()). */
    void drain(NodeId src, std::uint32_t lane);

    Config cfg_;
    hostprof::Site routeSite_;
    hostprof::Site deliverSite_;
    FatTree tree_;
    FaultInjector faults_;
    FlowTable<FlowState> flows_;
    /// Earliest next departure / arrival per node (link serialization).
    std::vector<Tick> nextDeparture_;
    std::vector<Tick> nextAtDest_;
};

} // namespace msgsim

#endif // MSGSIM_CRNET_CR_NETWORK_HH
