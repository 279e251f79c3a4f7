/**
 * @file
 * Profiled protocol runs and the differential cost report.
 *
 * runProtocol() executes one protocol exchange (single / am4 / xfer
 * / stream / wire) on one substrate; runProfiled() runs the same
 * exchange with the full observability kit attached: a
 * LineageSession stamping causal lineage onto every packet, and a
 * CostProfiler folding span-resolved instruction deltas into
 * flamegraph stacks.  The lineage flows are exported into the
 * attached TraceSession when one exists (--trace-out), so the
 * Perfetto timeline gains send → deliver → handler arrows.  Every
 * session attaches on the calling thread only, so concurrent lab
 * workers profile side by side.
 *
 * differential() diffs two such runs per messaging feature — the
 * paper's headline experiment: run the same transfer on the CM-5
 * substrate (CMAM pays for buffering, ordering and fault tolerance
 * in software) and on the CR substrate (the hardware provides them),
 * and watch three of the four feature rows vanish while the base
 * cost stays put (Sections 3-4, Tables 2/3).
 *
 * The modern substrates extend the two-column table into a
 * substrate × feature matrix: on rdma the 1994 overheads vanish but
 * completion-poll and registration rows appear; on nicam the host's
 * dispatch instructions (tracked by the layers' dispatchOps()
 * mirrors) move into the NIC.  The extra rows are emitted only when
 * a modern substrate is on either side, so the classic cm5-vs-cr
 * artifacts are byte-identical to before.
 */

#ifndef MSGSIM_PROF_PROFILE_HH
#define MSGSIM_PROF_PROFILE_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/json.hh"
#include "prof/lineage.hh"
#include "protocols/result.hh"
#include "protocols/stack.hh"

namespace msgsim::prof
{

/** What to run and where. */
struct ProfConfig
{
    std::string protocol = "xfer"; ///< single | am4 | xfer | stream | wire
    Substrate substrate = Substrate::Cm5;
    std::uint32_t nodes = 4;
    int dataWords = 4;
    std::uint32_t words = 64; ///< transfer volume (xfer / stream)
    int groupAck = 1;         ///< stream: ack every G packets
};

/** One profiled run: protocol result plus the derived artifacts. */
struct ProfRun
{
    RunResult result;
    std::string folded; ///< flamegraph folded-stack text
    WaterfallReport waterfall;
    std::uint64_t packetsTracked = 0;
    std::uint64_t lineageEdges = 0;
};

/** Every protocol runProtocol() runs, in its driver table's order. */
std::vector<std::string> protocols();

/**
 * Run @p cfg's protocol on a fresh stack of its substrate, attaching
 * nothing.  @p onStack, when set, sees the stack's machine once it
 * is built and before the protocol starts.
 */
RunResult
runProtocol(const ProfConfig &cfg,
            const std::function<void(Machine &)> &onStack = {});

/**
 * Run @p cfg's protocol with lineage + profiling attached.  Uses the
 * attached TraceSession when one exists (so spans and flows land in
 * the --trace-out timeline); otherwise attaches a private session
 * for the duration so span costs still fold.
 */
ProfRun runProfiled(const ProfConfig &cfg);

/** One feature row of the differential table. */
struct DiffRow
{
    Feature feature = Feature::BaseCost;
    std::uint64_t primary = 0;  ///< instructions, primary run
    std::uint64_t baseline = 0; ///< instructions, baseline run
    /// vanishes | unchanged | reduced | increased | appears
    std::string status;
};

/** The paper's "overhead that vanishes" comparison. */
struct Differential
{
    ProfConfig primaryCfg;
    ProfConfig baselineCfg;
    /// The four paper features; plus completion-poll and
    /// registration when a modern substrate is on either side.
    std::vector<DiffRow> rows;
    std::uint64_t primaryTotal = 0;
    std::uint64_t baselineTotal = 0;
    /// True when rdma/nicam is on either side: the extra feature
    /// rows and the host-dispatch row are emitted.
    bool modern = false;
    std::uint64_t primaryDispatch = 0;  ///< host dispatchOps, primary
    std::uint64_t baselineDispatch = 0; ///< host dispatchOps, baseline
    std::string dispatchStatus;         ///< same vocabulary as rows

    /** Render as a markdown table. */
    std::string markdown() const;

    /** Machine-readable form (no wall-clock: byte-deterministic). */
    Json toJson() const;
};

/**
 * Diff two runs per feature.  Status thresholds: "vanishes" when the
 * baseline keeps at most 10% of the primary's instructions,
 * "appears" when the primary had at most 10% of the baseline's,
 * "unchanged" within +/-10%, otherwise "reduced" / "increased".
 */
Differential differential(const ProfConfig &primaryCfg,
                          const ProfRun &primary,
                          const ProfConfig &baselineCfg,
                          const ProfRun &baseline);

} // namespace msgsim::prof

#endif // MSGSIM_PROF_PROFILE_HH
