/**
 * @file
 * Canonical telemetry scenarios, shared by the msgsim-tele CLI, the
 * lab's O1 experiment and the tests so every consumer samples the
 * same runs:
 *
 *  - "incast" on cm5 / cr / nicam: the TrafficEngine fan-in storm
 *    against a bounded NI receive ring — the destination's ring is
 *    the bottleneck the report must name;
 *  - "incast" on rdma: the same storm in verbs — phase one fills the
 *    receiver's completion queue to the brink, phase two overflows
 *    it (cqOverflowStalls, RNR retries) until a late simulated poll
 *    drains it — CQ-depth backpressure is what the report names;
 *  - "wire" on any classic substrate: the multi-stream mux workload
 *    with withheld wire acks, saturating the per-stream sliding
 *    windows.
 *
 * Every scenario runs identically with or without a TeleSession
 * attached (the determinism contract: pass nullptr and compare).
 */

#ifndef MSGSIM_TELE_TELE_RUN_HH
#define MSGSIM_TELE_TELE_RUN_HH

#include <string>
#include <vector>

#include "protocols/stack.hh"
#include "tele/report.hh"
#include "tele/tele.hh"

namespace msgsim::tele
{

/** Scenario selection and sampling knobs. */
struct ScenarioOptions
{
    std::string scenario = "incast"; ///< "incast" | "wire"
    Substrate substrate = Substrate::Cm5;
    Tick period = 16;                ///< sample period
    std::size_t ringCapacity = 4096; ///< per-track retained samples
    Tick windowTicks = 0;            ///< report window (0 = auto)
    double threshold = 0.9;          ///< report saturation threshold
    /// When set, the runner binds this span-trace session's clock to
    /// the scenario's simulator so a live --trace-out timeline gets
    /// correct timestamps (the sampler's counters merge onto it via
    /// TeleSession::exportCounters afterwards).
    TraceSession *trace = nullptr;
};

/**
 * What a scenario run yields.  The simulation-result fields are
 * filled whether or not a sampler was attached — they must be
 * bit-identical either way.  The telemetry-derived fields are empty
 * or zero on unsampled runs.
 */
struct ScenarioResult
{
    // Simulation results (sampler-independent by contract).
    bool ok = false;
    Tick elapsed = 0;
    double instrTotal = 0;        ///< charged instructions, all nodes
    std::uint64_t completions = 0; ///< fragments / recvs / frames
    std::uint64_t backpressure = 0; ///< retries / CQ stalls / window stalls
    double latencyP50 = 0;        ///< traffic scenarios only
    double latencyP95 = 0;
    double latencyP99 = 0;

    // Telemetry-derived (zero / empty when tele == nullptr).
    std::uint64_t snapshots = 0;
    std::size_t trackCount = 0;
    std::string digest;           ///< TeleSession::tracksDigest()
    std::string topResource;      ///< report's top bottleneck label
    std::size_t saturatedWindows = 0;
    std::size_t reportWindows = 0;
    double peakFraction = 0;      ///< max occupancy/capacity anywhere
};

/** Every scenario runScenario() runs, in its table's order. */
std::vector<std::string> scenarioNames();

/**
 * Run @p opt's scenario, sampling into @p tele when non-null (the
 * session is bound, attached and detached by the runner; it must be
 * fresh).  The caller keeps the session for heatmap / report /
 * timeline export.
 */
ScenarioResult runScenario(const ScenarioOptions &opt,
                           TeleSession *tele);

} // namespace msgsim::tele

#endif // MSGSIM_TELE_TELE_RUN_HH
