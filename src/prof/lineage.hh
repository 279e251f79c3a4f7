/**
 * @file
 * Per-packet causal lineage recording.
 *
 * A LineageSession is the concrete implementation of the
 * LineageHooks interface declared in `src/net`: it stamps every
 * packet with a stable lineage id at birth, records the packet's
 * lifecycle edges (birth, injection, hardware retries/drops,
 * delivery, handler dispatch), and — because packets sent from
 * inside a handler inherit the handled packet's lineage as their
 * causal parent — links whole request/reply/ack chains into causal
 * trees.
 *
 * Two consumers read the recorded edges:
 *
 *  - exportTo() emits Chrome trace-event *flow* events ("s"/"t"/"f"
 *    sharing one id per causal tree) into a TraceSession, so
 *    Perfetto draws arrows from the send span on the source node's
 *    track to the delivery and handler work on the destination's;
 *
 *  - waterfall() decomposes each packet's end-to-end latency into
 *    the five segments of the paper's software-overhead story:
 *    send-side software, wire transit, queue wait, receive-side
 *    software, and ack wait.
 *
 * Design rules (PR 1): a session records only while attached
 * (LineageHooks::attach(), the lineage slot of obs::context), every
 * hook site is one thread-local load when none is, and the recorder
 * never touches an Accounting object — instruction counts are
 * bit-identical with lineage tracing on or off (enforced by
 * test_trace_session).
 */

#ifndef MSGSIM_PROF_LINEAGE_HH
#define MSGSIM_PROF_LINEAGE_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/json.hh"
#include "core/types.hh"
#include "net/lineage_hook.hh"

namespace msgsim
{

class TraceSession;

namespace prof
{

/** Latency decomposition of the traced packet population. */
struct WaterfallReport
{
    /** One latency segment with its raw per-packet samples (ticks). */
    struct Segment
    {
        std::string name;
        std::vector<double> samples;
    };

    /// The five segments, in pipeline order: send_sw, wire,
    /// queue_wait, recv_sw, ack_wait.
    std::vector<Segment> segments;

    /// Packets that contributed at least one segment sample.
    std::uint64_t lineages = 0;

    /** Percentile table plus ASCII bin shapes, one segment per line. */
    std::string render() const;

    /** Machine-readable summary (counts and percentiles only). */
    Json toJson() const;
};

/**
 * The lineage recorder.  It records once attach()ed on the thread
 * that drives the simulation; destruction detaches.
 */
class LineageSession : public LineageHooks
{
  public:
    /** Lifecycle edge kinds (hardware events plus software edges). */
    enum class EdgeKind : std::uint8_t
    {
        Birth,        ///< software staged the packet at the NI
        Inject,       ///< accepted at the injection port
        Deliver,      ///< presented to and accepted by the NI
        Reject,       ///< presented and refused (full / acceptance)
        Drop,         ///< lost inside the network
        Corrupt,      ///< corrupted in flight
        HwRetry,      ///< hardware retransmission (CR)
        Duplicate,    ///< ghost copy created in the network
        HandlerBegin, ///< messaging-layer handler dispatch started
        HandlerEnd,   ///< handler dispatch finished
    };

    /** One recorded lifecycle edge. */
    struct Edge
    {
        std::uint64_t lineage = 0;
        std::uint64_t parent = 0; ///< causal parent (Birth edges)
        EdgeKind kind = EdgeKind::Birth;
        NodeId node = invalidNode;
        Tick tick = 0;
    };

    struct Config
    {
        /// Edge-ring soft cap; further edges are dropped and counted.
        std::size_t maxEdges = 1u << 20;
    };

    LineageSession();
    explicit LineageSession(const Config &cfg);

    // LineageHooks implementation.
    void packetBorn(Packet &pkt, NodeId node, Tick now) override;
    void hwEvent(TraceEvent ev, const Packet &pkt, Tick now) override;
    void handlerBegin(NodeId node, const Packet &pkt,
                      Tick now) override;
    void handlerEnd(NodeId node, Tick now) override;

    // ------------------------------------------------------------
    // Inspection.
    // ------------------------------------------------------------

    /** Recorded edges, in observation (= chronological) order. */
    const std::vector<Edge> &edges() const { return edges_; }

    /** Packets stamped with a lineage id so far. */
    std::uint64_t packetsTracked() const { return nextId_ - 1; }

    /** Edges discarded because the ring cap was hit. */
    std::uint64_t edgesDropped() const { return edgesDropped_; }

    /** Causal parent of a lineage (0 = root / unknown). */
    std::uint64_t parentOf(std::uint64_t lineage) const;

    /** Root of a lineage's causal tree (itself when parentless). */
    std::uint64_t rootOf(std::uint64_t lineage) const;

    // ------------------------------------------------------------
    // Analysis / export.
    // ------------------------------------------------------------

    /**
     * Emit flow events for every causal tree with at least two
     * recorded locations into @p ts.  Each tree shares one flow id
     * (the root lineage), so Perfetto renders the whole
     * send → deliver → handler → reply chain as one arrow sequence.
     */
    void exportTo(TraceSession &ts) const;

    /** Decompose per-packet latency into the five-segment waterfall. */
    WaterfallReport waterfall() const;

  private:
    void record(const Edge &e);

    Config cfg_;
    std::uint64_t nextId_ = 1;
    std::uint64_t edgesDropped_ = 0;
    std::vector<Edge> edges_;
    std::map<std::uint64_t, std::uint64_t> parent_;
    /// Per-node stack of the lineages whose handlers are running:
    /// packets born on a node inherit the top entry as their parent.
    std::map<NodeId, std::vector<std::uint64_t>> handlerStack_;
};

/** Printable name of an edge kind. */
const char *toString(LineageSession::EdgeKind kind);

} // namespace prof
} // namespace msgsim

#endif // MSGSIM_PROF_LINEAGE_HH
