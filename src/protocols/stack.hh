/**
 * @file
 * Protocol test-bench stack: a machine, a substrate, and one CMAM
 * layer per node, with convenience builders for the two substrates
 * the paper compares.
 */

#ifndef MSGSIM_PROTOCOLS_STACK_HH
#define MSGSIM_PROTOCOLS_STACK_HH

#include <memory>
#include <string>
#include <vector>

#include "cm5net/cm5_network.hh"
#include "cmam/cmam.hh"
#include "crnet/cr_network.hh"
#include "machine/machine.hh"
#include "nicam/nicam_network.hh"
#include "rdmanet/rdma_network.hh"

namespace msgsim
{

/** Which routing substrate the stack runs on. */
enum class Substrate
{
    Cm5,   ///< out-of-order, finite-buffered, detection-only
    Cr,    ///< in-order, reliable, acceptance-independent
    Rdma,  ///< verbs fabric: reliable, per-QP in-order, zero-copy
    Nicam, ///< CM-5 fabric with an on-NIC handler table
};

/** Every substrate, in declaration order. */
inline constexpr Substrate allSubstrates[] = {
    Substrate::Cm5, Substrate::Cr, Substrate::Rdma, Substrate::Nicam};

/** Printable name of a substrate. */
const char *toString(Substrate s);

/** Inverse of toString(Substrate); false on an unknown name. */
bool substrateFromString(const std::string &name, Substrate &out);

/**
 * How a node learns of arrived packets in event-driven execution:
 * polling (the CMAM default) or interrupts (paper footnote 2 — the
 * CM-5 NI supports it, but SPARC trap overhead makes it expensive).
 */
enum class RecvDiscipline
{
    Poll,
    Interrupt,
};

/** Printable name of a reception discipline. */
const char *toString(RecvDiscipline d);

/**
 * Configuration of a whole protocol stack.
 */
struct StackConfig
{
    Substrate substrate = Substrate::Cm5;
    std::uint32_t nodes = 4;
    int dataWords = 4; ///< n, the hardware packet payload (CM-5: 4)
    std::size_t memWords = 1u << 20;
    std::size_t recvCapacity = static_cast<std::size_t>(-1);
    int maxSegments = 64;
    bool dmaXfer = false; ///< §5 extension: DMA bulk-data movement
    /// §5 ablation: every messaging call crosses into the kernel
    /// (no user-level NI access).
    bool kernelMediated = false;

    // CM-5 substrate knobs.
    OrderPolicyFactory order;          ///< default FIFO
    FaultInjector::Config faults;      ///< default fault-free
    Tick maxJitter = 0;
    double injectBusyRate = 0.0;
    std::uint64_t seed = 0xc0ffeeULL;
    Tick injectGap = 0;  ///< link bandwidth: per-source packet spacing
    Tick deliverGap = 0; ///< link bandwidth: per-dest packet spacing
};

/**
 * Machine + substrate + per-node CMAM layers.
 */
class Stack
{
  public:
    explicit Stack(const StackConfig &cfg);

    Machine &machine() { return *machine_; }
    Simulator &sim() { return machine_->sim(); }
    Network &network() { return machine_->network(); }
    Substrate substrate() const { return cfg_.substrate; }
    int dataWords() const { return cfg_.dataWords; }
    const StackConfig &config() const { return cfg_; }

    /** The CMAM layer on node @p id. */
    Cmam &cmam(NodeId id);

    /** The node itself. */
    Node &node(NodeId id) { return machine_->node(id); }

    /** Run the simulation to quiescence (flushing order stages). */
    void settle() { machine_->settle(); }

  private:
    StackConfig cfg_;
    std::unique_ptr<Machine> machine_;
    std::vector<std::unique_ptr<Cmam>> cmams_;
};

} // namespace msgsim

#endif // MSGSIM_PROTOCOLS_STACK_HH
