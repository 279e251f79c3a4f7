/**
 * @file
 * The paper's protocols on the host layers that are not CMAM: all
 * four re-expressed in verbs (rdma) and with the receive side
 * offloaded to the NIC (nicam).  Each driver takes a Stack built with
 * the matching HostLayer.  (The Section 4 layer is CMAM trusting CR,
 * so FiniteXfer and StreamProtocol run it.)
 *
 * On rdma the 1994 overheads (buffering, in-order, fault tolerance)
 * are zero by construction, while two columns that do not exist on
 * the CM-5 appear: memory registration and completion-queue
 * polling.  On nicam the destination host's dispatch moves into the
 * NIC.
 */

#ifndef MSGSIM_PROTOCOLS_LAYER_DRIVERS_HH
#define MSGSIM_PROTOCOLS_LAYER_DRIVERS_HH

#include "protocols/result.hh"
#include "protocols/stack.hh"

namespace msgsim
{

/** Parameters shared by the verbs and offload drivers. */
struct RunParams
{
    NodeId src = 0;
    NodeId dst = 1;
    std::uint32_t words = 16; ///< finite/stream payload
    std::uint64_t fillSeed = 0x11d0'beefULL; ///< picks payload words
    bool eventMode = false; ///< poll from the simulated clock instead
};

/** Fill @p words of @p node's memory at @p buf from @p seed. */
void fillWords(Node &node, Addr buf, std::uint32_t words,
               std::uint64_t seed);

/** Verbs protocol 1: one message of n words over a connected QP. */
RunResult runRdmaSingle(Stack &stack, const RunParams &params);

/** Verbs protocol 2: request + reply round trip (send/send). */
RunResult runRdmaAm4(Stack &stack, const RunParams &params);

/** Verbs protocol 3: finite transfer — one multi-fragment message. */
RunResult runRdmaFinite(Stack &stack, const RunParams &params);

/** Verbs protocol 4: indefinite stream — a message per packet. */
RunResult runRdmaStream(Stack &stack, const RunParams &params);

/** Offload protocol 1: one AM dispatched on the destination NIC. */
RunResult runNicamSingle(Stack &stack, const RunParams &params);

/** Offload protocol 2: request + reply, both handled on-NIC. */
RunResult runNicamAm4(Stack &stack, const RunParams &params);

/** Offload protocol 3: finite transfer placed by the NIC. */
RunResult runNicamFinite(Stack &stack, const RunParams &params);

/** Offload protocol 4: stream reordered on-NIC, harvested by host. */
RunResult runNicamStream(Stack &stack, const RunParams &params);

} // namespace msgsim

#endif // MSGSIM_PROTOCOLS_LAYER_DRIVERS_HH
