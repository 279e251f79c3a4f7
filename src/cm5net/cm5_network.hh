/**
 * @file
 * The CM-5-like data network.
 *
 * Models the three properties of the CM-5 network the paper charges
 * software for (Section 2.2):
 *
 *  1. *Arbitrary delivery order* — packets ascend a k-ary fat tree on
 *     randomized up-paths; we model the resulting scrambling with a
 *     pluggable per-flow OrderPolicy (deterministic for calibration,
 *     seeded-random for experiments) plus optional per-packet latency
 *     jitter.
 *  2. *Finite buffering* — the destination sink can refuse a packet
 *     (receive FIFO full); the network then holds it and retries,
 *     which is how backpressure propagates toward the sender.
 *  3. *Fault detection but not fault tolerance* — injected faults drop
 *     packets silently or corrupt them; corrupted packets reach the NI
 *     where the CRC check discards them.  Nothing is retransmitted in
 *     hardware: recovery is the software's problem.
 */

#ifndef MSGSIM_CM5NET_CM5_NETWORK_HH
#define MSGSIM_CM5NET_CM5_NETWORK_HH

#include <cstdint>
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
 * CM-5-style fat-tree network: out-of-order, finite-buffered,
 * detection-only.
 */
class Cm5Network : public Network
{
  public:
    struct Config
    {
        std::uint32_t nodes = 4;     ///< leaf node count
        std::uint32_t arity = 4;     ///< fat-tree arity (CM-5: 4)
        Tick baseLatency = 10;       ///< fixed injection-to-edge time
        Tick hopLatency = 2;         ///< per switch-to-switch hop
        Tick maxJitter = 0;          ///< random extra latency (OOO source)
        Tick retryDelay = 8;         ///< redelivery period when sink full
        /// Link-bandwidth model: minimum spacing between packets
        /// leaving one node (0 = infinite injection bandwidth).
        Tick injectGap = 0;
        /// Minimum spacing between packets arriving at one node.
        Tick deliverGap = 0;
        double injectBusyRate = 0.0; ///< P(injection port busy) per try
        std::uint64_t seed = 0xc0ffeeULL;
        FaultInjector::Config faults;
        OrderPolicyFactory orderFactory; ///< default: FIFO
    };

    Cm5Network(Simulator &sim, const Config &cfg);

    NetFeatures
    features() const override
    {
        return {/*inOrder=*/false, /*reliable=*/false,
                /*acceptanceIndependent=*/false};
    }

    void flushHeldPackets() override;

    /** The underlying topology (for experiment reporting). */
    const FatTree &topology() const { return tree_; }

    /** The fault injector (for scripting directed faults). */
    FaultInjector &faults() { return faults_; }

  protected:
    bool injectImpl(Packet &&pkt) override;

  private:
    /** Route one packet to the destination edge (latency model). */
    void routeToEdge(Packet &&pkt);

    /** A packet reached the destination edge. */
    void arriveAtEdge(Packet &&pkt);

    /** Try to hand a released packet to the sink; retry while full. */
    void tryDeliver(Packet &&pkt);

    Config cfg_;
    FatTree tree_;
    FaultInjector faults_;
    Rng rng_;
    OrderStage order_;
    /// Earliest next departure / arrival per node (link serialization).
    std::vector<Tick> nextDeparture_;
    std::vector<Tick> nextArrival_;
};

} // namespace msgsim

#endif // MSGSIM_CM5NET_CM5_NETWORK_HH
