/**
 * @file
 * Host-side self-profiler: where does the *simulator's* time go?
 *
 * The paper asks where message time goes in the modeled machine; this
 * subsystem turns the same methodology inward and attributes the
 * simulator's real TSC-cycle cost (plus heap allocation traffic) to
 * the subsystem that spent it — the event loop's heap pop / dispatch
 * / handler phases, both substrates' route/deliver paths, the NI ring
 * operations, the CMAM layer, and the protocol drivers.
 *
 * Design rules, identical to every other observer:
 *
 *  - the profiler lives in the host slot of obs::context and
 *    attaches by its one rule (sim/obs_context.hh), so a profiler
 *    attached on one lab worker thread is invisible to every other
 *    thread, and a disabled scope costs one thread-local load
 *    (HostScope's constructor), nothing else;
 *  - the profiler NEVER touches Accounting — simulation results are
 *    bit-identical with the profiler attached or not (tested).
 *
 * Scopes nest into a calling-context tree; a node's *self* cost is
 * its total minus its children's totals, so self costs sum exactly to
 * the root total and the per-subsystem shares sum to 100% by
 * construction.  Heap traffic is captured by interposing the global
 * operator new/delete (see hostprof.cc): a process-wide relaxed
 * atomic count is always maintained (two increments per allocation),
 * and when a profiler is attached on the allocating thread the
 * allocation is also attributed to the innermost open scope.
 *
 * Results export as folded flamegraph stacks (the PR 5 grammar:
 * ';'-joined space-free frames, one space, a count), a core/json
 * document, and MetricsRegistry gauges.
 */

#ifndef MSGSIM_HOSTPROF_HOSTPROF_HH
#define MSGSIM_HOSTPROF_HOSTPROF_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#else
#include <chrono>
#endif

#include "core/json.hh"
#include "sim/obs_context.hh"

namespace msgsim
{

class MetricsRegistry;

namespace hostprof
{

/** One instrumented code region.  Names are "<subsystem>.<what>". */
enum class Site : std::uint8_t
{
    SimStep,     ///< one event-loop iteration (self = dispatch cost)
    SimHeapPop,  ///< event-queue pop (named sim.heap_pop)
    SimHandler,  ///< scheduled event execution
    NetInject,   ///< Network::inject, injectParked (stamp, seal, hand off)
    NetDeliver,  ///< Network::presentToSink
    Cm5Route,    ///< CM-5 latency calc + scheduling the arrival
    Cm5Deliver,  ///< CM-5 edge arrival: order policy + delivery
    CrRoute,     ///< CR inject: hw retry probe, flow ordering
    CrDeliver,   ///< CR edge arrival: flow queue drain
    NiSend,      ///< NI send-side ring ops (ctl/word/double writes)
    NiRecv,      ///< NI recv-side ring ops (status/header/data reads)
    NiHwDeliver, ///< NI hardware delivery (CRC check, FIFO push)
    NiDma,       ///< NI DMA gather/scatter
    CmamSend,    ///< CMAM send paths (single packet, xfer loops)
    CmamPoll,    ///< CMAM poll / interrupt entry + drain loop
    CmamHandler, ///< one CMAM handler dispatch
    ProtoSingle, ///< single-packet protocol driver
    ProtoXfer,   ///< finite-xfer protocol driver
    ProtoStream, ///< stream protocol driver
    ProtoSocket, ///< socket protocol driver
    RdmaRoute,   ///< CrRoute's work on an rdma fabric
    RdmaDeliver, ///< CrDeliver's work on an rdma fabric
    RdmaPost,    ///< RDMA host layer: WQE build + doorbell
    RdmaPoll,    ///< RDMA host layer: CQ poll / completion harvest
    NicamRoute,  ///< Cm5Route's work on a nicam fabric
    NicamDeliver,///< Cm5Deliver's work + the on-NIC handler table
    NicamSend,   ///< nicam host layer: send paths
    TrafficSend, ///< traffic engine: one injection round
    TrafficDrain,///< traffic engine: settle + poll sweep
    CollSend,    ///< collectives: one active-message send
    CollProgress,///< collectives: the settle/poll progress loop
    WireEncode,  ///< wire layer: marshal + COBS + CRC on send
    WireDecode,  ///< wire layer: delimiter scan + CRC + parse on recv
    WireMux,     ///< wire layer: stream demux / window state machine
};

constexpr int numSites = static_cast<int>(Site::WireMux) + 1;

/** "sim.step", "ni.send", ... (space- and semicolon-free). */
const char *siteName(Site s);

/** Subsystem names, aggregation targets for the share table. */
constexpr int numSubsystems = 12;
const char *subsystemName(int idx);

/** Which subsystem a site belongs to (index into subsystemName). */
int siteSubsystem(Site s);

/** Monotonic cycle counter: TSC on x86, steady_clock ns elsewhere. */
inline std::uint64_t
tscNow()
{
#if defined(__x86_64__) || defined(__i386__)
    return __rdtsc();
#else
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
#endif
}

// Process-wide allocation counters, maintained by the interposed
// operator new whether or not any profiler is attached (two relaxed
// atomic increments per allocation).  Monotonic; diff two snapshots
// to meter a region.
std::uint64_t globalAllocCount();
std::uint64_t globalAllocBytes();

/**
 * The per-thread self-profiler: a calling-context tree of Sites.
 *
 * Typical use brackets a workload at top level:
 *
 *     hostprof::HostProfiler hp;
 *     hp.attach();
 *     ... run the simulation ...
 *     hp.detach();
 *     std::string folded = hp.foldedStacks();
 *
 * attach()/detach() bind to the *calling thread* only.  All scopes
 * opened while attached must close before the profiler is destroyed.
 */
class HostProfiler
{
  public:
    HostProfiler();
    ~HostProfiler() { detach(); }

    HostProfiler(const HostProfiler &) = delete;
    HostProfiler &operator=(const HostProfiler &) = delete;

    /** Bind to the calling thread. */
    void attach() { obs::attach(obs::context.host, this, "HostProfiler"); }

    /** Unbind; recorded data stays readable. */
    void detach() { obs::detach(obs::context.host, this); }

    /** The calling thread's attached profiler (nullptr = disabled). */
    static HostProfiler *current() { return obs::context.host; }

    // ---------------- hot path (via HostScope) ----------------

    void enterSite(Site s);
    void exitSite();

    /** Attribute one allocation to the innermost open scope. */
    void noteAlloc(std::size_t bytes);

    // ---------------- results ----------------

    /** One calling-context-tree node, path = ';'-joined site names. */
    struct Row
    {
        std::string path;
        Site site = Site::SimStep;
        int depth = 0;
        std::uint64_t enters = 0;
        std::uint64_t totalCycles = 0;
        std::uint64_t selfCycles = 0; ///< total minus children
        std::uint64_t allocs = 0;
        std::uint64_t allocBytes = 0;
    };

    /** Aggregated per-subsystem costs; shares sum to 1 exactly. */
    struct SubsystemRow
    {
        std::string name;
        std::uint64_t enters = 0;
        std::uint64_t selfCycles = 0;
        std::uint64_t allocs = 0;
        std::uint64_t allocBytes = 0;
        double share = 0.0; ///< selfCycles / root total
    };

    /** All tree nodes, sorted by path. */
    std::vector<Row> rows() const;

    /** Per-subsystem aggregation (every subsystem, active or not). */
    std::vector<SubsystemRow> subsystems() const;

    /** Scope entries / exits over the profiler's lifetime. */
    std::uint64_t totalEnters() const { return enters_; }
    std::uint64_t totalExits() const { return exits_; }

    /** True when every opened scope has closed. */
    bool balanced() const { return stack_.empty(); }

    /** Sum of top-level scope costs (== sum of all self costs). */
    std::uint64_t rootCycles() const;

    /** Allocations attributed to some open scope. */
    std::uint64_t scopedAllocs() const { return scopedAllocs_; }
    std::uint64_t scopedAllocBytes() const { return scopedAllocBytes_; }

    /** Allocations while attached but outside any scope. */
    std::uint64_t unscopedAllocs() const { return unscopedAllocs_; }
    std::uint64_t unscopedAllocBytes() const
    {
        return unscopedAllocBytes_;
    }

    /**
     * Folded flamegraph stacks (counts = self cycles):
     *
     *     <prefix>;sim.step;sim.handler;cmam.poll 12345
     */
    std::string foldedStacks(const std::string &prefix = "host") const;

    /** Full machine-readable report. */
    Json toJson() const;

    /**
     * Publish per-subsystem counters/gauges under "<prefix>.":
     * enters, self_cycles, allocs, alloc_bytes per subsystem plus
     * scope/alloc totals.
     */
    void publishMetrics(MetricsRegistry &reg,
                        const std::string &prefix = "hostprof") const;

  private:
    struct Node
    {
        Site site = Site::SimStep;
        int parent = -1;
        std::vector<int> children;
        std::uint64_t enters = 0;
        std::uint64_t cycles = 0;
        std::uint64_t allocs = 0;
        std::uint64_t allocBytes = 0;
    };

    struct Frame
    {
        int node = 0;
        std::uint64_t start = 0;
    };

    int findOrAddChild(int parent, Site s);
    void buildRow(int node, std::string path, int depth,
                  std::vector<Row> &out) const;

    std::vector<Node> nodes_; ///< [0] is the root (no site, no timer)
    std::vector<Frame> stack_;
    int cur_ = 0;
    bool inProfiler_ = false; ///< route bookkeeping allocs to overhead
    std::uint64_t enters_ = 0;
    std::uint64_t exits_ = 0;
    std::uint64_t scopedAllocs_ = 0;
    std::uint64_t scopedAllocBytes_ = 0;
    std::uint64_t unscopedAllocs_ = 0;
    std::uint64_t unscopedAllocBytes_ = 0;
    std::uint64_t overheadAllocs_ = 0;
    std::uint64_t overheadAllocBytes_ = 0;
};

/**
 * RAII scope: one thread-local load when no profiler is attached —
 * the same discipline as ScopedSpan / LineageHooks.
 */
class HostScope
{
  public:
    explicit HostScope(Site s)
    {
        if (HostProfiler *hp = HostProfiler::current()) {
            hp_ = hp;
            hp->enterSite(s);
        }
    }

    ~HostScope()
    {
        if (hp_ != nullptr)
            hp_->exitSite();
    }

    HostScope(const HostScope &) = delete;
    HostScope &operator=(const HostScope &) = delete;

  private:
    HostProfiler *hp_ = nullptr;
};

} // namespace hostprof
} // namespace msgsim

#endif // MSGSIM_HOSTPROF_HOSTPROF_HH
