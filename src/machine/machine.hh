/**
 * @file
 * The whole modeled multicomputer: a simulator, a routing network,
 * and N nodes attached to it.
 */

#ifndef MSGSIM_MACHINE_MACHINE_HH
#define MSGSIM_MACHINE_MACHINE_HH

#include <functional>
#include <memory>
#include <vector>

#include "machine/node.hh"
#include "net/network.hh"
#include "sim/event.hh"

namespace msgsim
{

/**
 * Builds and owns the simulator, network, and nodes.
 */
class Machine
{
  public:
    struct Config
    {
        std::uint32_t nodes = 4;     ///< node count
        int dataWords = 4;           ///< packet data words (CM-5: 4)
        std::size_t memWords = 1u << 20; ///< per-node memory
        /// Receive-FIFO capacity in packets (unlimited by default for
        /// minimal-path calibration).
        std::size_t recvCapacity = static_cast<std::size_t>(-1);
    };

    /** Builds the substrate once the simulator exists. */
    using NetworkFactory =
        std::function<std::unique_ptr<Network>(Simulator &)>;

    Machine(const Config &cfg, const NetworkFactory &makeNetwork);

    Machine(const Machine &) = delete;
    Machine &operator=(const Machine &) = delete;

    Simulator &sim() { return sim_; }
    Network &network() { return *net_; }
    std::uint32_t nodeCount() const
    {
        return static_cast<std::uint32_t>(nodes_.size());
    }

    Node &
    node(NodeId id)
    {
        if (id >= nodes_.size()) [[unlikely]]
            nodeOutOfRange(id);
        return *nodes_[id];
    }

    /** Packet data words per hardware packet. */
    int dataWords() const { return cfg_.dataWords; }

    /**
     * Run the event loop to completion, then flush any packets held
     * in order-scrambling stages and run again, until truly quiescent.
     */
    void settle(std::uint64_t maxEvents = 10'000'000);

  private:
    [[noreturn, gnu::cold]] void nodeOutOfRange(NodeId id) const;

    Config cfg_;
    Simulator sim_;
    std::unique_ptr<Network> net_;
    std::vector<std::unique_ptr<Node>> nodes_;
};

} // namespace msgsim

#endif // MSGSIM_MACHINE_MACHINE_HH
