/**
 * @file
 * Cross-layer span tracing.
 *
 * A TraceSession records begin/end *spans* keyed by (node, category,
 * phase), *instant* events, and *counter* samples into a bounded
 * ring, on the simulation clock.  The retained timeline exports as
 * Chrome trace-event JSON (loadable in Perfetto or chrome://tracing):
 * every node becomes a thread track, spans become "X" complete
 * events, hardware packet events bridged from a PacketTracer appear
 * as instants on the same clock.
 *
 * Instrumentation sites throughout the stack (event loop, NI, CMAM
 * send/poll paths, the protocol engines) consult
 * TraceSession::current(), the calling thread's trace slot of
 * obs::context (sim/obs_context.hh, which also states the attach
 * rule).  No hook ever touches an Accounting object — tracing can
 * never perturb instruction counts.
 */

#ifndef MSGSIM_SIM_TRACE_SESSION_HH
#define MSGSIM_SIM_TRACE_SESSION_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/types.hh"
#include "sim/obs_context.hh"
#include "sim/ring.hh"

namespace msgsim
{

class Simulator;

/**
 * One recording session: a bounded ring of timeline records plus the
 * per-(category/phase) span counters.
 */
class TraceSession
{
  public:
    struct Config
    {
        /// Ring capacity in records; the oldest records are evicted
        /// when full (counters keep accumulating).
        std::size_t capacity = 1u << 16;
    };

    /** Timeline record kinds. */
    enum class Kind : std::uint8_t
    {
        Span,    ///< a completed begin/end region on one node
        Instant, ///< a point event on one node
        Counter, ///< a sampled numeric value
        Flow,    ///< a flow-arrow point (Chrome "s"/"t"/"f" phases)
    };

    /** Position of a Flow record within its arrow chain. */
    enum class FlowPhase : std::uint8_t
    {
        Start, ///< ph:"s" — first point of the chain
        Step,  ///< ph:"t" — intermediate point
        End,   ///< ph:"f" — last point (binding point "e")
    };

    /** One retained timeline record. */
    struct Record
    {
        Kind kind = Kind::Instant;
        Tick start = 0;        ///< begin tick (== end for instants)
        Tick end = 0;          ///< end tick (spans only)
        NodeId node = invalidNode;
        const char *cat = ""; ///< category (protocol / layer name)
        const char *name = ""; ///< phase / event / counter name
        double value = 0.0;    ///< instant arg or counter sample
        std::uint64_t flowId = 0; ///< flow-arrow chain id (Flow only)
        FlowPhase flowPhase = FlowPhase::Start; ///< Flow only
    };

    /**
     * Observer of span open/close, for cost profilers that snapshot
     * external state around spans.  Fires synchronously from
     * beginSpan/endSpan; implementations must not touch Accounting
     * charge paths (reads are fine) and must not re-enter the
     * session.
     */
    class SpanObserver
    {
      public:
        virtual ~SpanObserver() = default;
        virtual void onBeginSpan(NodeId node, const char *cat,
                                 const char *name) = 0;
        virtual void onEndSpan(NodeId node, const char *cat,
                               const char *name) = 0;
    };

    TraceSession();
    explicit TraceSession(const Config &cfg);
    ~TraceSession() { detach(); }

    TraceSession(const TraceSession &) = delete;
    TraceSession &operator=(const TraceSession &) = delete;

    // ------------------------------------------------------------
    // Attachment (sim/obs_context.hh).
    // ------------------------------------------------------------

    /** Make this session the calling thread's recording target. */
    void attach() { obs::attach(obs::context.trace, this, "TraceSession"); }

    /** Stop being the target (no-op if not attached). */
    void detach() { obs::detach(obs::context.trace, this); }

    /** This thread's session, or nullptr (the hooks' fast path). */
    static TraceSession *current() { return obs::context.trace; }

    // ------------------------------------------------------------
    // Clock binding.
    // ------------------------------------------------------------

    /** Timestamps come from @p sim (rebind when switching stacks). */
    void bindClock(const Simulator *sim) { clock_ = sim; }

    /** True when the session's clock is @p sim. */
    bool clockIs(const Simulator *sim) const { return clock_ == sim; }

    /** Current session time (0 with no clock bound). */
    Tick now() const;

    // ------------------------------------------------------------
    // Recording.  @p cat and @p name must be string literals (or
    // otherwise outlive the session) — records store the pointers.
    // ------------------------------------------------------------

    /** Open a span on @p node; spans nest per node (LIFO). */
    void beginSpan(NodeId node, const char *cat, const char *name);

    /** Close the innermost open span on @p node. */
    void endSpan(NodeId node);

    /** Record a point event. */
    void instant(NodeId node, const char *cat, const char *name,
                 double value = 0.0);

    /** Record a point event with an explicit timestamp. */
    void instantAt(Tick when, NodeId node, const char *cat,
                   const char *name, double value = 0.0);

    /** Sample a counter attributed to one node's track. */
    void counterSample(NodeId node, const char *name, double value);

    /**
     * Sample a counter with an explicit timestamp (used when merging
     * externally sampled series — e.g. the telemetry engine's tracks
     * — onto this timeline after the fact).
     */
    void counterSampleAt(Tick when, NodeId node, const char *name,
                         double value);

    /** Sample a global (machine-wide) counter. */
    void
    counterSample(const char *name, double value)
    {
        counterSample(invalidNode, name, value);
    }

    /**
     * Record one point of a flow arrow (Chrome flow events): all
     * points sharing @p id form one chain; Perfetto draws arrows
     * between consecutive points across node tracks.  Emitted with an
     * explicit timestamp because flows are typically derived at
     * export time from earlier lifecycle edges.
     */
    void flowAt(Tick when, NodeId node, const char *cat,
                const char *name, std::uint64_t id, FlowPhase phase);

    /** Install / clear (nullptr) the span observer. */
    void setSpanObserver(SpanObserver *obs) { spanObserver_ = obs; }

    // ------------------------------------------------------------
    // Inspection.
    // ------------------------------------------------------------

    /** Records observed (including evicted ones). */
    std::uint64_t observed() const { return observed_; }

    /** Records evicted from the ring. */
    std::uint64_t dropped() const { return dropped_; }

    /**
     * Begin tick of the oldest record still retained (0 with an
     * empty ring).  Together with dropped(), this makes a truncated
     * trace detectable: everything before this tick may be missing.
     */
    Tick oldestRetainedTick() const;

    /** Spans currently open across all nodes. */
    std::size_t openSpans() const;

    /** endSpan() calls with no matching beginSpan(). */
    std::uint64_t unmatchedEnds() const { return unmatchedEnds_; }

    /** Times each (cat/name) span was opened ("phase counters"). */
    const std::map<std::string, std::uint64_t> &
    spanCounts() const
    {
        return spanCounts_;
    }

    /** Retained records, oldest first. */
    std::vector<Record> snapshot() const;

    /** Drop retained records and open spans (counters persist). */
    void clear();

    // ------------------------------------------------------------
    // Export.
    // ------------------------------------------------------------

    /**
     * Close any still-open spans (at the current clock) and render
     * the retained timeline as Chrome trace-event JSON.
     */
    std::string chromeTraceJson();

    /** chromeTraceJson() to a file; false on I/O failure. */
    bool writeChromeTrace(const std::string &path);

  private:
    struct OpenSpan
    {
        Tick start;
        const char *cat;
        const char *name;
    };

    void push(const Record &rec);

    Config cfg_;
    const Simulator *clock_ = nullptr;

    Ring<Record> ring_;
    std::uint64_t observed_ = 0;
    std::uint64_t dropped_ = 0;
    std::uint64_t unmatchedEnds_ = 0;

    std::map<NodeId, std::vector<OpenSpan>> open_;
    std::map<std::string, std::uint64_t> spanCounts_;

    SpanObserver *spanObserver_ = nullptr;
};

/**
 * RAII span: opens on construction and closes on destruction when a
 * session is attached; otherwise a no-op (one thread-local load).
 */
class ScopedSpan
{
  public:
    ScopedSpan(NodeId node, const char *cat, const char *name)
    {
        if (TraceSession *s = TraceSession::current()) {
            s->beginSpan(node, cat, name);
            session_ = s;
            node_ = node;
        }
    }

    ~ScopedSpan()
    {
        if (session_)
            session_->endSpan(node_);
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    TraceSession *session_ = nullptr;
    NodeId node_ = invalidNode;
};

} // namespace msgsim

#endif // MSGSIM_SIM_TRACE_SESSION_HH
