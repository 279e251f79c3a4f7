/**
 * @file
 * Canonical probe sets: one registration helper per layer, so the
 * lower layers gain no dependency on src/tele — the helpers read
 * only public accessors (event-queue depth, per-destination link
 * occupancy, NI FIFO depths, CQ depth, stream windows) and register
 * closures with a TeleSession.
 *
 * Every helper returns the index of the first track it added, so a
 * caller probing a short-lived object (a StreamMux) can
 * retireProbesFrom() that index before the object dies while the
 * recorded tracks live on for export.
 */

#ifndef MSGSIM_TELE_PROBES_HH
#define MSGSIM_TELE_PROBES_HH

#include "tele/tele.hh"

namespace msgsim
{

class Simulator;
class Stack;
class StreamProtocol;
class TrafficEngine;

namespace wire
{
class StreamMux;
}

namespace tele
{

/** Kernel probes: pending-event count and dispatch counter. */
std::size_t registerSimProbes(TeleSession &s, const Simulator &sim);

/**
 * Stack probes: per-destination link in-flight and delivered
 * counters, then the host layer's own state.  A verbs stack adds
 * per-node CQ depth (capacity = cqCapacity), posted receives,
 * doorbells rung and the backpressure counters (CQ overflow, RNR,
 * send stalls).  Every other stack adds per-node NI receive-ring
 * occupancy (with the ring capacity as the saturation denominator
 * when it is finite), send-stage occupancy and DMA activity; on the
 * nicam substrate also the machine-wide offload hit/miss counters.
 */
std::size_t registerStackProbes(TeleSession &s, Stack &stack);

/**
 * One persistent stream channel: unacked packets (capacity = the
 * retransmission ring), window backlog and reorder occupancy
 * (capacity = the reorder arena).  @p src / @p dst attribute the
 * tracks to the channel's endpoints.
 */
std::size_t registerChannelProbes(TeleSession &s,
                                  const StreamProtocol &proto,
                                  Word chan, NodeId src, NodeId dst);

/**
 * Wire-layer mux probes: per-open-stream window fill (capacity =
 * the sliding window) and backlog, plus the mux-wide frame and
 * window-stall counters.  Register after the streams are open;
 * retire before the mux is destroyed.
 */
std::size_t registerMuxProbes(TeleSession &s,
                              const wire::StreamMux &mux);

/**
 * Traffic-engine probes: outstanding (sent, not yet consumed)
 * fragments and the cumulative consumption counter.
 */
std::size_t registerTrafficProbes(TeleSession &s,
                                  const TrafficEngine &eng);

} // namespace tele
} // namespace msgsim

#endif // MSGSIM_TELE_PROBES_HH
