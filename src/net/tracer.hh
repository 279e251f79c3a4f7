/**
 * @file
 * Packet-event tracing.
 *
 * A PacketTracer records every hardware-level packet event —
 * injection, delivery, fault, rejection, hardware retry — into a
 * bounded ring, for debugging protocol behaviour and for asserting
 * event-level properties in tests (e.g. "every injected packet was
 * delivered or dropped", "no delivery precedes its injection").
 * Tracing is a pure observer: it never perturbs instruction counts
 * or simulation behaviour.  A PacketTracer is a LineageHooks
 * (net/lineage_hook.hh) that keeps only the hardware events: an
 * attached tracer holds the lineage slot of obs::context, so a
 * thread runs either a tracer or a prof::LineageSession, and it
 * records the events of every Network driven on its thread.
 */

#ifndef MSGSIM_NET_TRACER_HH
#define MSGSIM_NET_TRACER_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/types.hh"
#include "net/lineage_hook.hh"
#include "net/packet.hh"
#include "sim/ring.hh"

namespace msgsim
{

/** One recorded packet event. */
struct TraceRecord
{
    Tick when = 0;
    TraceEvent event = TraceEvent::Inject;
    NodeId src = invalidNode;
    NodeId dst = invalidNode;
    HwTag tag = HwTag::UserAm;
    std::uint64_t injectSeq = 0;
    Word header = 0;

    /** One-line rendering: "tick ev src->dst tag seq header". */
    std::string format() const;
};

class TraceSession;

/**
 * Bounded ring of packet events.
 */
class PacketTracer : public LineageHooks
{
  public:
    /** Callback fired synchronously for every recorded event. */
    using Observer = std::function<void(const TraceRecord &)>;

    explicit PacketTracer(std::size_t capacity = 1u << 16);

    /** LineageHooks: record every hardware event, and nothing else. */
    void packetBorn(Packet &, NodeId, Tick) override {}
    void
    hwEvent(TraceEvent ev, const Packet &pkt, Tick now) override
    {
        record(now, ev, pkt);
    }
    void handlerBegin(NodeId, const Packet &, Tick) override {}
    void handlerEnd(NodeId, Tick) override {}

    /** Record one event (oldest entries are evicted when full). */
    void record(Tick when, TraceEvent ev, const Packet &pkt);

    /** Install / clear (nullptr) the per-event observer. */
    void setObserver(Observer fn) { observer_ = std::move(fn); }

    /** Total events observed (including evicted ones). */
    std::uint64_t observed() const { return observed_; }

    /** Events observed of one kind. */
    std::uint64_t observed(TraceEvent ev) const;

    /** Retained records, oldest first. */
    std::vector<TraceRecord> snapshot() const;

    /** Retained records matching a predicate, oldest first. */
    std::vector<TraceRecord>
    select(const std::function<bool(const TraceRecord &)> &pred) const;

    /** Render the retained trace, one event per line. */
    std::string dump() const;

    /** Drop all retained records (counters keep accumulating). */
    void clear() { ring_.clear(); }

  private:
    std::size_t capacity_;
    Ring<TraceRecord> ring_;
    std::uint64_t observed_ = 0;
    std::vector<std::uint64_t> perEvent_;
    Observer observer_;
};

/**
 * Bridge hardware packet events onto a TraceSession timeline: every
 * recorded event becomes an instant on the involved node's track
 * (injections on the source, everything else on the destination),
 * at the hardware event's own tick.  Detach by clearing the
 * tracer's observer.
 */
void attachTraceBridge(PacketTracer &tracer, TraceSession &session);

} // namespace msgsim

#endif // MSGSIM_NET_TRACER_HH
