/**
 * @file
 * The observation context (sim/obs_context.hh): all five observer
 * kinds attach to four slots by one rule, and threads that each attach
 * a full set observe only their own run.  The packet hook's slot takes
 * a LineageSession or a PacketTracer, so every run is made once with
 * each.
 */

#include <latch>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "hostprof/hostprof.hh"
#include "net/tracer.hh"
#include "prof/lineage.hh"
#include "protocols/finite_xfer.hh"
#include "sim/log.hh"
#include "sim/trace_session.hh"
#include "tele/probes.hh"
#include "tele/tele.hh"

namespace msgsim
{
namespace
{

/** The observer that holds the packet hook's slot. */
enum class PacketHook
{
    Lineage, ///< a prof::LineageSession
    Tracer,  ///< a PacketTracer
};

using EdgeKind = prof::LineageSession::EdgeKind;

/** Each hardware event, and the edge a LineageSession records for it. */
constexpr std::pair<TraceEvent, EdgeKind> hwEvents[] = {
    {TraceEvent::Inject, EdgeKind::Inject},
    {TraceEvent::Deliver, EdgeKind::Deliver},
    {TraceEvent::Drop, EdgeKind::Drop},
    {TraceEvent::Corrupt, EdgeKind::Corrupt},
    {TraceEvent::Reject, EdgeKind::Reject},
    {TraceEvent::HwRetry, EdgeKind::HwRetry},
    {TraceEvent::Duplicate, EdgeKind::Duplicate}};

/** What each observer kind recorded over one run. */
struct Observed
{
    bool dataOk = false;
    std::map<std::string, std::uint64_t> spans;
    /// Records the packet hook kept: lineage edges, or tracer events.
    std::size_t lineageEdges = 0;
    std::vector<std::uint64_t> packetEvents; ///< by TraceEvent
    std::uint64_t hostEnters = 0;
    std::uint64_t teleSamples = 0;
};

/**
 * Attach one observer of every kind on the calling thread, with
 * @p hook in the packet hook's slot, wait at @p start (when given)
 * so concurrent callers overlap, then run a 16-word FiniteXfer on a
 * private Stack.
 */
Observed
observedRun(PacketHook hook, std::latch *start)
{
    TraceSession trace;
    prof::LineageSession lineage;
    hostprof::HostProfiler host;
    tele::TeleSession tick;
    PacketTracer packets;
    trace.attach();
    if (hook == PacketHook::Lineage)
        lineage.attach();
    else
        packets.attach();
    host.attach();
    tick.attach();
    if (start != nullptr)
        start->arrive_and_wait();

    Observed out;
    {
        StackConfig cfg;
        cfg.nodes = 2;
        Stack stack(cfg);
        trace.bindClock(&stack.sim());
        tick.bindClock(&stack.sim());
        tele::registerSimProbes(tick, stack.sim());
        FiniteXfer proto(stack);
        FiniteXferParams p;
        p.words = 16;
        out.dataOk = proto.run(p).dataOk;
        trace.bindClock(nullptr);
        tick.retireAllProbes();
    }
    out.spans = trace.spanCounts();
    const bool traced = hook == PacketHook::Tracer;
    out.lineageEdges = traced ? packets.observed() : lineage.edges().size();
    for (auto [ev, kind] : hwEvents) {
        std::uint64_t n = 0;
        for (const auto &e : lineage.edges())
            n += e.kind == kind;
        out.packetEvents.push_back(traced ? packets.observed(ev) : n);
    }
    out.hostEnters = host.totalEnters();
    out.teleSamples = tick.samplesObserved();
    return out;
}

TEST(ObsContext, ConcurrentObserversSeeOnlyTheirOwnRun)
{
    std::vector<std::uint64_t> lineageEvents;
    for (PacketHook hook : {PacketHook::Lineage, PacketHook::Tracer}) {
        SCOPED_TRACE(hook == PacketHook::Lineage ? "LineageSession"
                                                 : "PacketTracer");
        const Observed ref = observedRun(hook, nullptr);
        ASSERT_TRUE(ref.dataOk);
        // Every kind saw the reference run, so no comparison is vacuous.
        EXPECT_FALSE(ref.spans.empty());
        EXPECT_GT(ref.lineageEdges, 0u);
        EXPECT_GT(ref.packetEvents[0], 0u);
        EXPECT_GT(ref.hostEnters, 0u);
        EXPECT_GT(ref.teleSamples, 0u);
        // Either observer in the slot sees the same hardware events.
        if (hook == PacketHook::Lineage)
            lineageEvents = ref.packetEvents;
        else
            EXPECT_EQ(ref.packetEvents, lineageEvents);

        constexpr int kThreads = 4;
        std::latch start(kThreads);
        std::vector<Observed> got(kThreads);
        std::vector<std::thread> workers;
        for (int t = 0; t < kThreads; ++t)
            workers.emplace_back(
                [&, t] { got[t] = observedRun(hook, &start); });
        for (auto &w : workers)
            w.join();

        for (int t = 0; t < kThreads; ++t) {
            EXPECT_TRUE(got[t].dataOk) << "thread " << t;
            EXPECT_EQ(got[t].spans, ref.spans) << "thread " << t;
            EXPECT_EQ(got[t].lineageEdges, ref.lineageEdges)
                << "thread " << t;
            EXPECT_EQ(got[t].packetEvents, ref.packetEvents)
                << "thread " << t;
            EXPECT_EQ(got[t].hostEnters, ref.hostEnters)
                << "thread " << t;
            EXPECT_EQ(got[t].teleSamples, ref.teleSamples)
                << "thread " << t;
        }
    }
}

/** The one attach rule, on two observers of kind @p T. */
template <typename T>
void
expectOneAttachRule()
{
    T first;
    T second;
    first.attach();
    first.attach(); // the same observer again: a no-op
    EXPECT_THROW(second.attach(), log_detail::SimError);
    EXPECT_EQ(T::current(), &first);
    second.detach(); // not the holder: the slot is left alone
    EXPECT_EQ(T::current(), &first);
    first.detach();
    second.attach(); // the freed slot takes the other observer
    EXPECT_EQ(T::current(), &second);
    second.detach();
    EXPECT_EQ(T::current(), nullptr);
}

TEST(ObsContext, SecondAttachOfADifferentObserverThrows)
{
    log_detail::throwOnError = true;
    expectOneAttachRule<TraceSession>();
    expectOneAttachRule<prof::LineageSession>();
    expectOneAttachRule<hostprof::HostProfiler>();
    expectOneAttachRule<tele::TeleSession>();
    expectOneAttachRule<PacketTracer>();

    // The two packet hooks share one slot: either one refuses the
    // other.
    {
        prof::LineageSession lineage;
        PacketTracer tracer;
        lineage.attach();
        EXPECT_THROW(tracer.attach(), log_detail::SimError);
        EXPECT_EQ(LineageHooks::current(), &lineage);
        lineage.detach();
        tracer.attach();
        EXPECT_THROW(lineage.attach(), log_detail::SimError);
        EXPECT_EQ(LineageHooks::current(), &tracer);
        tracer.detach();
        EXPECT_EQ(LineageHooks::current(), nullptr);
    }
    log_detail::throwOnError = false;
}

} // namespace
} // namespace msgsim
