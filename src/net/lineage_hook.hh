/**
 * @file
 * The packet hook: the one observer slot every packet event consults.
 *
 * LineageHooks is the narrow, dependency-free interface the hardware
 * and messaging layers call to report packet lifecycle edges: birth
 * (software stages a packet at the NI), hardware events (inject /
 * deliver / reject / drop / corrupt / retry / duplicate, the
 * TraceEvents below), and handler dispatch (a polled packet entering
 * messaging-layer software).  Two observers implement it:
 * prof::LineageSession (`src/prof`) records every edge, and
 * PacketTracer (net/tracer.hh) keeps a bounded log of the hardware
 * events alone.  A thread holds one of them at a time.
 *
 * Design rules (same as every observer): the hooks live in the
 * lineage slot of obs::context and attach by its one rule
 * (sim/obs_context.hh), so with nothing attached each site is one
 * thread-local load; and no hook implementation may ever touch an
 * Accounting object — observing packets can never perturb
 * instruction counts.
 */

#ifndef MSGSIM_NET_LINEAGE_HOOK_HH
#define MSGSIM_NET_LINEAGE_HOOK_HH

#include <cstdint>

#include "core/types.hh"
#include "net/packet.hh"
#include "sim/obs_context.hh"

namespace msgsim
{

/** Hardware-level packet event kinds. */
enum class TraceEvent : std::uint8_t
{
    Inject,    ///< packet accepted at the injection port
    Deliver,   ///< packet presented to and accepted by the NI
    Drop,      ///< silently lost inside the network (fault)
    Corrupt,   ///< payload corrupted in flight (fault)
    Reject,    ///< NI refused the packet (full / acceptance check)
    HwRetry,   ///< CR hardware retransmission
    Duplicate, ///< ghost copy created inside the network (fault)
};

/** Printable name of a trace event. */
const char *toString(TraceEvent ev);

/**
 * Packet-lifecycle observer.  All methods are invoked synchronously
 * from the simulation thread; call sites pass their own clock so the
 * recorder needs no clock binding of its own.
 */
class LineageHooks
{
  public:
    virtual ~LineageHooks() { detach(); }

    /** This thread's hooks, or nullptr (the sites' fast path). */
    static LineageHooks *current() { return obs::context.lineage; }

    /** Make this instance the calling thread's hook target. */
    void attach() { obs::attach(obs::context.lineage, this, "LineageHooks"); }

    /** Stop being the target (no-op if not attached). */
    void detach() { obs::detach(obs::context.lineage, this); }

    /**
     * A packet was staged for sending (NetIface::writeSendCtl).  The
     * implementation assigns @p pkt.lineage (and records parentage
     * when the send happens inside a handler).
     */
    virtual void packetBorn(Packet &pkt, NodeId node, Tick now) = 0;

    /** A hardware-level packet event (Network::trace's events). */
    virtual void hwEvent(TraceEvent ev, const Packet &pkt,
                         Tick now) = 0;

    /**
     * Messaging-layer software starts handling the head receive
     * packet (CMAM / HL poll dispatch).  Until the matching
     * handlerEnd, packets born on any node inherit @p pkt's lineage
     * as their causal parent.
     */
    virtual void handlerBegin(NodeId node, const Packet &pkt,
                              Tick now) = 0;

    /** The dispatch that began with handlerBegin finished. */
    virtual void handlerEnd(NodeId node, Tick now) = 0;
};

} // namespace msgsim

#endif // MSGSIM_NET_LINEAGE_HOOK_HH
