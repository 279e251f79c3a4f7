/**
 * @file
 * The declarative traffic engine: a TrafficSpec names a destination
 * pattern, a per-message protocol, and the scale knobs (nodes,
 * message size, injection rate); the engine runs it on any Stack —
 * cm5, cr, rdma or nicam — through the normal CMAM/Accounting path
 * and reports both the cost statistics and the *structural event
 * counts* the analytic predictor (model/traffic_model.hh) consumes.
 *
 * Message protocols, layered on am4 fragments:
 *
 *  - am    : fire-and-forget.  Each message is ceil(size/2) 4-word
 *            fragments; the handler verifies a checksum.  Pure base
 *            cost — the Table 1 coin, machine-wide.
 *  - seq   : fragments of one (src, dst) flow must be consumed in
 *            order.  The receiver keeps an expected counter and a
 *            reorder stash; arrivals the fabric reordered pay the
 *            insert/drain bill under Feature::InOrderDelivery.  On
 *            an in-order fabric (cr, rdma) the machinery never
 *            fires beyond the per-arrival compare — the paper's
 *            "overheads vanish" argument at traffic scale.
 *  - acked : the receiver acknowledges each completed message; the
 *            source holds fragments for retransmission until acked.
 *            All bookkeeping is charged under
 *            Feature::FaultTolerance — paid even on a reliable
 *            fabric, exactly as the paper measures.
 *
 * Every per-event charge is a constant from traffic_cost
 * (model/traffic_model.hh), so predicted-vs-measured agreement is
 * exact by construction and any charged-path drift fails the W1
 * gate.
 */

#ifndef MSGSIM_TRAFFIC_ENGINE_HH
#define MSGSIM_TRAFFIC_ENGINE_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "model/traffic_model.hh"
#include "traffic/traffic.hh"

namespace msgsim
{

/** Per-message protocol the traffic rides on. */
enum class TrafficProto : std::uint8_t
{
    Am,    ///< fire-and-forget fragments
    Seq,   ///< per-flow in-order consumption (reorder stash)
    Acked, ///< per-message acks + source retransmit hold
};

/** Every message protocol, in declaration order. */
inline constexpr TrafficProto allTrafficProtos[] = {
    TrafficProto::Am, TrafficProto::Seq, TrafficProto::Acked};

const char *toString(TrafficProto p);

/** Parse "am" / "seq" / "acked"; false = unknown. */
bool protoFromString(const std::string &name, TrafficProto &out);

/**
 * The largest machine the engine runs: a data fragment's meta word
 * is (source node << 20) | fragment sequence.
 */
inline constexpr std::uint32_t maxTrafficNodes = (1u << 12) - 1;

/**
 * One declarative traffic scenario.
 */
struct TrafficSpec
{
    TrafficPattern pattern = TrafficPattern::UniformRandom;
    TrafficProto proto = TrafficProto::Am;
    std::uint32_t nodes = 16;
    std::uint32_t messagesPerNode = 8;
    std::uint32_t sizeWords = 2;  ///< payload words per message
    double hotFraction = 0.5;     ///< Hotspot knob
    std::uint64_t seed = 1;

    // Fabric knobs forwarded into the StackConfig by
    // trafficStackConfig(): time-shaping only, never instructions.
    Tick injectGap = 0;  ///< injection rate: ticks between packets
    Tick deliverGap = 0; ///< delivery rate at the destination edge
    Tick maxJitter = 0;  ///< cm5/nicam: reordering source

    /** Fragments per message: 2 payload words ride each am4. */
    std::uint32_t
    fragmentsPerMessage() const
    {
        return sizeWords <= 2 ? 1 : (sizeWords + 1) / 2;
    }
};

/** StackConfig for running @p spec on @p substrate. */
StackConfig trafficStackConfig(const TrafficSpec &spec,
                               Substrate substrate);

/**
 * One message's closed-loop timing: @p birth is the tick its first
 * fragment was sent; @p done is the tick the loop closed — the
 * receiver consuming the last fragment (am/seq) or the source
 * consuming the message's ack (acked).
 */
struct MsgTiming
{
    Tick birth = 0;
    Tick done = 0;

    Tick latency() const { return done - birth; }
};

/**
 * Outcome of one engine run: correctness, structural counts (the
 * model inputs), the measured per-feature bill, and the usual
 * per-node statistics.
 */
struct TrafficResult
{
    bool ok = false;
    TrafficShape shape;     ///< realized structural event counts
    Tick elapsed = 0;
    std::uint64_t hwRetries = 0;       ///< fabric retransmissions
    std::uint64_t deliveryRetries = 0; ///< sink-full redeliveries
    RunningStat perNodeInstr;
    double maxOverMean = 0;

    /**
     * Per-message closed-loop timings, ordered by (source,
     * destination, message index) — the latency-percentile input.
     */
    std::vector<MsgTiming> timings;

    /** Measured machine-wide per-feature bill (category-resolved). */
    CatCost measured[numPaperFeatures];

    CatCost measuredTotal() const;
    double measuredGrandTotal() const;

    /**
     * The timings as a birth-tick-windowed latency histogram
     * (window width @p windowTicks; 0 = one window).  Range is
     * [0, max latency + 1), so percentiles come straight from
     * Histogram::percentile on total() or any mergeRange().
     */
    WindowedHistogram latencyHistogram(std::uint64_t windowTicks,
                                       std::size_t bins = 64) const;
};

/**
 * The engine.  Registers its handlers on construction; run() may be
 * called repeatedly (fresh state per call, counters accumulate per
 * stack as usual).
 */
class TrafficEngine
{
  public:
    explicit TrafficEngine(Stack &stack);

    TrafficEngine(const TrafficEngine &) = delete;
    TrafficEngine &operator=(const TrafficEngine &) = delete;

    /** Run @p spec; fatal if spec.nodes != the stack's node count. */
    TrafficResult run(const TrafficSpec &spec);

    // ------------------------------------------------------------
    // Live run state (telemetry probes; never charged).
    // ------------------------------------------------------------

    /** Fragments injected so far in the current run. */
    std::uint64_t fragmentsSent() const { return shape_.fragmentsSent; }

    /** Fragments consumed by receivers so far in the current run. */
    std::uint64_t fragmentsConsumed() const { return consumed_; }

  private:
    void onData(NodeId self, NodeId src,
                const std::vector<Word> &args);
    void onAck(NodeId self, NodeId src,
               const std::vector<Word> &args);
    void consume(NodeId self, NodeId src, Word meta, Word pay);
    void sendAck(NodeId self, NodeId src, std::uint32_t ackIdx);

    Stack &stack_;
    std::vector<int> dataHandler_;
    std::vector<int> ackHandler_;

    // Per-run state.
    const TrafficSpec *spec_ = nullptr;
    TrafficShape shape_;
    std::uint64_t badPayloads_ = 0;
    /// Per-node charge target for the protocols' memory operations.
    std::vector<Addr> scratchAddr_;
    /// seq proto: [dst][src] expected fragment sequence (all three
    /// per-pair tables are flat, indexed by pairIndex()).
    std::vector<std::uint32_t> expect_;
    /// seq proto: [dst][src] reorder stash (fragSeq -> payload).
    std::vector<std::map<std::uint32_t, Word>> stash_;
    /// acked proto: [dst][src] fragments seen (ack every k-th).
    std::vector<std::uint32_t> fragsGot_;
    /// acked proto: [src] acks consumed.
    std::vector<std::uint32_t> acksGot_;
    std::uint64_t consumed_ = 0;
    /// Reused {meta, pay, checksum} argument words of the fragment
    /// and ack sends (one each: an ack goes out inside a fragment's
    /// handler, never inside another ack's send).
    std::vector<Word> fragArgs_;
    std::vector<Word> ackArgs_;

    // Closed-loop latency bookkeeping.  Flat [src][dst][msg] arrays,
    // preallocated in run() so the charged send/consume paths only
    // index — no allocation inside hostprof scopes.
    std::uint32_t latFrags_ = 1;  ///< fragments per message
    std::uint32_t latMsgs_ = 0;   ///< messages per node
    std::uint32_t latNodes_ = 0;
    std::vector<Tick> msgBirth_;
    std::vector<Tick> msgDone_;
    std::vector<std::uint32_t> msgFrags_;

    /** Flat index of node pair (@p a, @p b) in an n × n table. */
    std::size_t
    pairIndex(NodeId a, NodeId b) const
    {
        return static_cast<std::size_t>(a) * latNodes_ + b;
    }

    std::size_t
    msgIndex(NodeId src, NodeId dst, std::uint32_t m) const
    {
        return (static_cast<std::size_t>(src) * latNodes_ + dst) *
                   latMsgs_ +
               m;
    }
};

} // namespace msgsim

#endif // MSGSIM_TRAFFIC_ENGINE_HH
