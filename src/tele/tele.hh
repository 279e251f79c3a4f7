/**
 * @file
 * Deterministic time-series telemetry.
 *
 * A TeleSession is the fourth observability pillar next to span
 * tracing (TraceSession), packet lineage (LineageHooks) and host
 * self-cost (hostprof): it answers *when* — queue depths, link
 * occupancy, window stalls and poll backlogs as functions of
 * simulated time.
 *
 * Probes are pull-based: each registered probe is a closure reading
 * one numeric value from live simulation state (an NI FIFO depth, a
 * CQ occupancy, a per-stream window fill).  The session derives its
 * sampling instants from the simulation clock alone — it hooks the
 * kernel's clock-advance notification (sim/tick_hook.hh) and
 * snapshots every probe whenever the clock crosses a sample-period
 * boundary.  Between two events the simulation state is constant, so
 * one snapshot per crossed boundary loses nothing; the series is a
 * step function and bit-deterministic, with no wall clock anywhere.
 *
 * The discipline matches every other observer: the session holds
 * the tick slot of obs::context and attaches by its one rule
 * (sim/obs_context.hh), so lab sweep workers sample their private
 * simulators concurrently, byte-identical across -j, and a detached
 * session costs one thread-local load per clock advance.  Probes
 * only read (never charge Accounting, never schedule events), so
 * attaching a sampler cannot perturb simulation results — RunResult,
 * NetStats and every golden stay bit-identical sampler on or off
 * (tested).
 *
 * Samples land in fixed-capacity per-track rings (oldest evicted,
 * eviction counted).  Export paths: Perfetto counter tracks merged
 * onto a TraceSession timeline, the congestion heatmap
 * (tele/heatmap.hh) and the bottleneck attribution report
 * (tele/report.hh).
 */

#ifndef MSGSIM_TELE_TELE_HH
#define MSGSIM_TELE_TELE_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/json.hh"
#include "core/types.hh"
#include "sim/ring.hh"
#include "sim/tick_hook.hh"

namespace msgsim
{

class Simulator;
class TraceSession;

namespace tele
{

/** How a probe's value stream should be interpreted. */
enum class ProbeKind : std::uint8_t
{
    Gauge,   ///< instantaneous level (queue depth, window fill)
    Counter, ///< cumulative count (consumers difference over time)
};

const char *toString(ProbeKind k);

/** Identity and interpretation of one probe / track. */
struct TrackDesc
{
    std::string layer;  ///< subsystem: "sim", "ni", "link", "rdma"...
    std::string name;   ///< value name: "recv_ring", "cq_depth"...
    NodeId node = invalidNode; ///< owning node (invalidNode = global)
    ProbeKind kind = ProbeKind::Gauge;
    /// Saturation denominator for gauges (ring capacity, window
    /// size); 0 = unbounded.  The bottleneck report only considers
    /// tracks with a capacity.
    double capacity = 0.0;
    /// Human name of the saturating resource ("NI recv ring"), used
    /// verbatim by the bottleneck report.
    std::string resource;
};

/** One retained sample. */
struct Sample
{
    Tick tick = 0;
    double value = 0.0;
};

/**
 * The sampling engine.
 */
class TeleSession : public TickHooks
{
  public:
    struct Config
    {
        Tick period = 16;       ///< sample-period boundary spacing
        std::size_t ringCapacity = 4096; ///< retained samples / track
    };

    /** Probe reader: must only observe (no charging, no scheduling). */
    using ReadFn = std::function<double()>;

    /** One track: descriptor, reader, and the sample ring. */
    struct Track
    {
        TrackDesc desc;
        std::string qual; ///< "layer.name" (stable for export)
        ReadFn read;      ///< cleared when the probe is retired
        Ring<Sample> ring; ///< oldest first
        std::uint64_t observed = 0;
        std::uint64_t dropped = 0;
    };

    TeleSession();
    explicit TeleSession(const Config &cfg);

    TeleSession(const TeleSession &) = delete;
    TeleSession &operator=(const TeleSession &) = delete;

    // ------------------------------------------------------------
    // Clock binding (attach()/detach() come from TickHooks).
    // ------------------------------------------------------------

    /** Sample instants come from @p sim's clock. */
    void bindClock(const Simulator *sim) { clock_ = sim; }

    // ------------------------------------------------------------
    // Probe registry.
    // ------------------------------------------------------------

    /** Register a probe; returns its track index. */
    std::size_t addProbe(const TrackDesc &desc, ReadFn read);

    /**
     * Retire every probe with index >= @p firstIndex: their tracks
     * (and recorded samples) remain, but the readers are dropped so
     * the probed objects may be destroyed.  Used when a workload's
     * short-lived objects (a StreamMux) outlive their scenario but
     * not the session.
     */
    void retireProbesFrom(std::size_t firstIndex);

    /** Retire all probes (tracks and samples remain). */
    void retireAllProbes() { retireProbesFrom(0); }

    // ------------------------------------------------------------
    // Sampling.
    // ------------------------------------------------------------

    /** TickHooks: called by Simulator::step() on clock advances. */
    void onTickAdvance(const Simulator &sim, Tick prev,
                       Tick next) override;

    /**
     * Snapshot all live probes at @p when immediately (used for the
     * initial baseline and the end-of-run flush).  No-op when a
     * sample at @p when was already taken.
     */
    void sampleAt(Tick when);

    // ------------------------------------------------------------
    // Inspection.
    // ------------------------------------------------------------

    const Config &config() const { return cfg_; }
    const std::vector<Track> &tracks() const { return tracks_; }

    /** Snapshot instants taken (each covers every live probe). */
    std::uint64_t snapshots() const { return snapshots_; }

    /** Samples recorded across all tracks (including evicted). */
    std::uint64_t samplesObserved() const { return samplesObserved_; }

    /** Samples evicted from rings across all tracks. */
    std::uint64_t samplesDropped() const { return samplesDropped_; }

    /** First / last snapshot instants (0/0 before any snapshot). */
    Tick firstSampleTick() const { return first_; }
    Tick lastSampleTick() const { return last_; }

    /** Retained samples of track @p t, oldest first. */
    std::vector<Sample> samples(std::size_t t) const;

    /** Largest retained value of track @p t (0 when empty). */
    double peakValue(std::size_t t) const;

    // ------------------------------------------------------------
    // Export.
    // ------------------------------------------------------------

    /**
     * Canonical byte-exact text serialization of every track (golden
     * material): one header line and one samples line per track.
     */
    std::string tracksText() const;

    /** The same data as a JSON document. */
    Json tracksJson() const;

    /**
     * Replay every retained sample into @p ts as counter records
     * (Chrome ph:"C" on export), merging the sampled series onto the
     * span/flow timeline.  The session must outlive @p ts's export:
     * counter names point into this session's tracks.
     */
    void exportCounters(TraceSession &ts) const;

    /** FNV-1a hash of tracksText(), as 16 hex digits (golden cell). */
    std::string tracksDigest() const;

  private:
    void record(Track &tr, Tick when, double value);

    Config cfg_;
    const Simulator *clock_ = nullptr;
    std::vector<Track> tracks_;
    bool haveSampled_ = false;
    Tick first_ = 0;
    Tick last_ = 0;
    std::uint64_t snapshots_ = 0;
    std::uint64_t samplesObserved_ = 0;
    std::uint64_t samplesDropped_ = 0;
};

/** Format @p v exactly: integers without decimals, else shortest. */
std::string formatValue(double v);

} // namespace tele
} // namespace msgsim

#endif // MSGSIM_TELE_TELE_HH
