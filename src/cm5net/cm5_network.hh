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
 *
 * NicamNetwork runs this engine and adds an on-NIC handler table at
 * the destination edge (its deliver()).
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

namespace hostprof
{
enum class Site : std::uint8_t;
}

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
        Tick maxJitter = 0;          ///< random extra latency (OOO source)
        /// Link-bandwidth model: minimum spacing between packets
        /// leaving one node (0 = infinite injection bandwidth).
        Tick injectGap = 0;
        /// Minimum spacing between packets arriving at one node.
        Tick deliverGap = 0;
        double injectBusyRate = 0.0; ///< P(injection port busy) per try
        std::uint64_t seed = 0xc0ffeeULL;
        FaultInjector::Config faults;
        /// Per-flow scrambling; none: each packet is delivered as it
        /// reaches the edge.
        OrderPolicyFactory orderFactory;
    };

    static constexpr std::uint32_t arity = 4; ///< fat-tree arity (CM-5: 4)
    static constexpr Tick baseLatency = 10;   ///< injection to edge
    static constexpr Tick hopLatency = 2;     ///< per switch hop
    static constexpr Tick retryDelay = 8;     ///< redelivery when sink full

    Cm5Network(Simulator &sim, const Config &cfg);

    /// Detection only: unordered, lossy, acceptance-dependent.
    static constexpr NetFeatures hwFeatures{};

    NetFeatures features() const override { return hwFeatures; }

    void flushHeldPackets() override;

    /** The underlying topology (for experiment reporting). */
    const FatTree &topology() const { return tree_; }

    /** The fault injector (for scripting directed faults). */
    FaultInjector &faults() { return faults_; }

  protected:
    /** The engine, its host time charged to @p route and @p deliver. */
    Cm5Network(Simulator &sim, const Config &cfg, hostprof::Site route,
               hostprof::Site deliver);

    bool injectImpl(Slot slot) override;

  private:
    /** Route one packet to the destination edge (latency model). */
    void routeToEdge(Slot slot);

    /** A packet reached the destination edge. */
    void arriveAtEdge(Slot slot);

    /** Try to hand a released packet to the sink; retry while full. */
    void tryDeliver(Slot slot);

    Config cfg_;
    hostprof::Site routeSite_;
    hostprof::Site deliverSite_;
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
