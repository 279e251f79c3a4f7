/**
 * @file
 * Host self-profiler tests (PR 6): the non-negotiables first —
 * simulation results are bit-identical with the profiler attached or
 * not, and a HostScope with no profiler attached performs zero heap
 * allocations — then the reporting surface (calling-context tree
 * self-cost arithmetic, shares summing to 100%, the folded-stack
 * grammar, metrics publication), allocation attribution, thread-local
 * isolation, and the perf_event_open probe's graceful fallback.
 */

#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "hostprof/hostprof.hh"
#include "hostprof/hw_counters.hh"
#include "net/tracer.hh"
#include "prof/lineage.hh"
#include "protocols/finite_xfer.hh"
#include "protocols/stream.hh"
#include "sim/metrics.hh"
#include "sim/trace_session.hh"
#include "tele/tele.hh"

namespace msgsim
{
namespace
{

using hostprof::HostProfiler;
using hostprof::HostScope;
using hostprof::Site;

StackConfig
baseConfig()
{
    StackConfig cfg;
    cfg.nodes = 4;
    return cfg;
}

RunResult
runXfer(Word words)
{
    Stack stack(baseConfig());
    FiniteXfer proto(stack);
    FiniteXferParams p;
    p.words = words;
    return proto.run(p);
}

/** Everything a RunResult reports, as one comparable tuple. */
void
expectIdentical(const RunResult &a, const RunResult &b)
{
    EXPECT_TRUE(a.counts.src == b.counts.src);
    EXPECT_TRUE(a.counts.dst == b.counts.dst);
    EXPECT_EQ(a.dataOk, b.dataOk);
    EXPECT_EQ(a.elapsed, b.elapsed);
    EXPECT_EQ(a.packets, b.packets);
    EXPECT_EQ(a.oooArrivals, b.oooArrivals);
    EXPECT_EQ(a.acksSent, b.acksSent);
    EXPECT_EQ(a.retransmissions, b.retransmissions);
    EXPECT_EQ(a.duplicates, b.duplicates);
}

// ------------------------------------------------------------------
// The two invariants everything else depends on.
// ------------------------------------------------------------------

TEST(HostProf, SimulationIsBitIdenticalProfilerOnOrOff)
{
    const RunResult off1 = runXfer(64);

    HostProfiler hp;
    hp.attach();
    const RunResult on = runXfer(64);
    hp.detach();

    const RunResult off2 = runXfer(64);

    expectIdentical(off1, on);
    expectIdentical(off1, off2);

    // And the profiler actually saw the run it rode along on.
    EXPECT_GT(hp.totalEnters(), 0u);
    EXPECT_EQ(hp.totalEnters(), hp.totalExits());
}

TEST(HostProf, DisabledScopesAllocateNothing)
{
    ASSERT_EQ(HostProfiler::current(), nullptr);
    // Warm up any lazy TLS/runtime allocation before measuring.
    {
        HostScope warm(Site::SimStep);
    }
    const std::uint64_t before = hostprof::globalAllocCount();
    for (int i = 0; i < 1000; ++i) {
        HostScope a(Site::SimStep);
        HostScope b(Site::SimHandler);
        HostScope c(Site::CmamPoll);
    }
    EXPECT_EQ(hostprof::globalAllocCount(), before);
}

// ------------------------------------------------------------------
// The packet path in steady state: not one heap allocation.
// ------------------------------------------------------------------

TEST(HostProf, SteadyStatePacketPathAllocatesNothing)
{
    // Every substrate, then the two whose injection port can refuse a
    // packet with the port busy half the time: a refused send's pool
    // slot must come back for the re-push.
    struct Case
    {
        Substrate sub;
        double injectBusyRate;
    };
    std::vector<Case> cases;
    for (Substrate sub : allSubstrates)
        cases.push_back({sub, 0.0});
    cases.push_back({Substrate::Cm5, 0.5});
    cases.push_back({Substrate::Nicam, 0.5});
    for (const Case &c : cases) {
        SCOPED_TRACE(c.injectBusyRate);
        const Substrate sub = c.sub;
        StackConfig cfg;
        cfg.substrate = sub;
        cfg.nodes = 2;
        cfg.injectBusyRate = c.injectBusyRate;
        Stack stack(cfg);
        Cmam &src = stack.cmam(0);
        Cmam &dst = stack.cmam(1);
        std::uint64_t got = 0;
        const int h = dst.registerHandler(
            [&got](NodeId, const std::vector<Word> &) { ++got; });
        const std::vector<Word> args = {1, 2, 3, 4};
        const auto round = [&] {
            src.am4(1, h, args);
            stack.settle();
            dst.poll();
        };

        // Warm-up sizes the pool, rings, flow tables and buffers.
        for (int i = 0; i < 64; ++i)
            round();
        const std::uint64_t before = hostprof::globalAllocCount();
        for (int i = 0; i < 1000; ++i)
            round();
        const std::uint64_t allocs =
            hostprof::globalAllocCount() - before;

        EXPECT_EQ(allocs, 0u) << toString(sub);
        EXPECT_EQ(got, 1064u) << toString(sub);
        if (c.injectBusyRate > 0) {
            EXPECT_GT(stack.node(0).ni().sendBusyEvents(), 0u)
                << toString(sub);
        }
    }
}

// ------------------------------------------------------------------
// Calling-context-tree arithmetic.
// ------------------------------------------------------------------

TEST(HostProf, NestedSelfCostExcludesChildren)
{
    HostProfiler hp;
    hp.attach();
    {
        HostScope outer(Site::SimStep);
        {
            HostScope inner1(Site::SimHeapPop);
        }
        {
            HostScope inner2(Site::SimHandler);
        }
    }
    hp.detach();

    ASSERT_TRUE(hp.balanced());
    const auto rows = hp.rows();
    ASSERT_EQ(rows.size(), 3u);

    // Top-level scopes sit at depth 1 (the implicit root is depth 0).
    const HostProfiler::Row *outer = nullptr;
    std::uint64_t childTotal = 0;
    for (const auto &r : rows) {
        if (r.depth == 1) {
            outer = &r;
        } else {
            EXPECT_EQ(r.depth, 2);
            EXPECT_EQ(r.selfCycles, r.totalCycles); // leaves
            childTotal += r.totalCycles;
        }
    }
    ASSERT_NE(outer, nullptr);
    EXPECT_EQ(outer->site, Site::SimStep);
    EXPECT_EQ(outer->selfCycles, outer->totalCycles - childTotal);

    // Self costs telescope: they sum exactly to the root total.
    std::uint64_t selfSum = 0;
    for (const auto &r : rows)
        selfSum += r.selfCycles;
    EXPECT_EQ(selfSum, hp.rootCycles());
}

TEST(HostProf, SubsystemSharesSumToOneHundredPercent)
{
    HostProfiler hp;
    hp.attach();
    const RunResult r = runXfer(32);
    hp.detach();
    ASSERT_TRUE(r.dataOk);
    ASSERT_TRUE(hp.balanced());

    double shareSum = 0.0;
    std::uint64_t selfSum = 0;
    int active = 0;
    for (const auto &sub : hp.subsystems()) {
        shareSum += sub.share;
        selfSum += sub.selfCycles;
        if (sub.enters > 0)
            ++active;
    }
    EXPECT_EQ(selfSum, hp.rootCycles());
    EXPECT_NEAR(shareSum, 1.0, 1e-9);
    // An xfer run exercises the whole stack: sim, net, a substrate,
    // ni, cmam, hl and proto should all be live.
    EXPECT_GE(active, 6);
}

TEST(HostProf, FoldedStacksFollowTheGrammar)
{
    HostProfiler hp;
    hp.attach();
    (void)runXfer(16);
    hp.detach();

    const std::string folded = hp.foldedStacks("host");
    ASSERT_FALSE(folded.empty());
    ASSERT_EQ(folded.back(), '\n');

    std::istringstream lines(folded);
    std::string line;
    std::uint64_t countSum = 0;
    while (std::getline(lines, line)) {
        // Exactly one space, separating the frame path from the count.
        const auto space = line.find(' ');
        ASSERT_NE(space, std::string::npos) << line;
        ASSERT_EQ(line.find(' ', space + 1), std::string::npos) << line;

        const std::string path = line.substr(0, space);
        const std::string count = line.substr(space + 1);
        EXPECT_EQ(path.rfind("host;", 0), 0u) << line;
        ASSERT_FALSE(path.empty());
        EXPECT_NE(path.front(), ';');
        EXPECT_NE(path.back(), ';');
        EXPECT_EQ(path.find(";;"), std::string::npos) << line;

        ASSERT_FALSE(count.empty()) << line;
        for (char c : count)
            ASSERT_TRUE(c >= '0' && c <= '9') << line;
        countSum += std::stoull(count);
    }
    // Folded counts are self cycles, so they also telescope.
    EXPECT_EQ(countSum, hp.rootCycles());
}

// ------------------------------------------------------------------
// Allocation attribution.
// ------------------------------------------------------------------

TEST(HostProf, AllocationsAttributeToTheInnermostScope)
{
    HostProfiler hp;
    hp.attach();
    {
        HostScope outer(Site::CmamSend);
        {
            HostScope inner(Site::NiSend);
            auto p = std::make_unique<char[]>(4096);
            // Keep the allocation alive across the scope close so the
            // optimizer cannot elide it.
            EXPECT_NE(p.get(), nullptr);
        }
    }
    hp.detach();

    EXPECT_GE(hp.scopedAllocs(), 1u);
    EXPECT_GE(hp.scopedAllocBytes(), 4096u);
    bool attributed = false;
    for (const auto &r : hp.rows())
        if (r.site == Site::NiSend && r.allocs >= 1 &&
            r.allocBytes >= 4096)
            attributed = true;
    EXPECT_TRUE(attributed);
}

TEST(HostProf, UnscopedAllocationsAreCountedSeparately)
{
    HostProfiler hp;
    hp.attach();
    auto p = std::make_unique<char[]>(512);
    EXPECT_NE(p.get(), nullptr);
    hp.detach();

    EXPECT_GE(hp.unscopedAllocs(), 1u);
    EXPECT_GE(hp.unscopedAllocBytes(), 512u);
}

TEST(HostProf, GlobalAllocCountersAreAlwaysMaintained)
{
    const std::uint64_t count0 = hostprof::globalAllocCount();
    const std::uint64_t bytes0 = hostprof::globalAllocBytes();
    auto p = std::make_unique<char[]>(2048);
    EXPECT_NE(p.get(), nullptr);
    EXPECT_GT(hostprof::globalAllocCount(), count0);
    EXPECT_GE(hostprof::globalAllocBytes(), bytes0 + 2048);
}

// ------------------------------------------------------------------
// Thread-local attachment, the same for every observer kind.
// ------------------------------------------------------------------

TEST(HostProf, AttachmentIsThreadLocal)
{
    TraceSession trace;
    prof::LineageSession lineage;
    HostProfiler host;
    tele::TeleSession tick;
    PacketTracer packets;
    // The packet hook's slot holds one of lineage and packets: one
    // pass with each.
    LineageHooks *const hooks[] = {&lineage, &packets};
    for (LineageHooks *hook : hooks) {
        auto forEachKind = [&](auto &&fn) {
            fn(trace);
            fn(*hook);
            fn(host);
            fn(tick);
        };

        forEachKind([](auto &obs) {
            obs.attach();
            EXPECT_EQ(obs.current(), &obs);
        });
        std::thread other([&] {
            // Another thread sees none of them, and its run feeds none.
            forEachKind(
                [](auto &obs) { EXPECT_EQ(obs.current(), nullptr); });
            runXfer(16);
        });
        other.join();
        EXPECT_TRUE(trace.spanCounts().empty());
        EXPECT_TRUE(lineage.edges().empty());
        EXPECT_EQ(host.totalEnters(), 0u);
        EXPECT_EQ(packets.observed(), 0u);

        forEachKind([](auto &obs) {
            obs.detach();
            EXPECT_EQ(obs.current(), nullptr);
        });
    }
}

// ------------------------------------------------------------------
// Reporting surfaces.
// ------------------------------------------------------------------

TEST(HostProf, PublishMetricsEmitsPerSubsystemCells)
{
    HostProfiler hp;
    hp.attach();
    (void)runXfer(16);
    hp.detach();

    MetricsRegistry reg;
    hp.publishMetrics(reg, "hostprof");
    EXPECT_TRUE(reg.has("hostprof.scope_enters"));
    EXPECT_TRUE(reg.has("hostprof.scope_exits"));
    EXPECT_TRUE(reg.has("hostprof.root_cycles"));
    EXPECT_TRUE(
        reg.has("hostprof.enters", {{"subsystem", "sim"}}));
    EXPECT_TRUE(
        reg.has("hostprof.self_cycles", {{"subsystem", "cmam"}}));
    EXPECT_TRUE(reg.has("hostprof.share", {{"subsystem", "proto"}}));
    EXPECT_EQ(reg.counter("hostprof.scope_enters"),
              hp.totalEnters());
}

TEST(HostProf, JsonReportHasTheAdvertisedShape)
{
    HostProfiler hp;
    hp.attach();
    (void)runXfer(16);
    hp.detach();

    const Json doc = hp.toJson();
    ASSERT_NE(doc.find("scopes"), nullptr);
    ASSERT_NE(doc.find("alloc"), nullptr);
    ASSERT_NE(doc.find("subsystems"), nullptr);
    ASSERT_NE(doc.find("rows"), nullptr);
    const Json *subs = doc.find("subsystems");
    EXPECT_EQ(subs->size(),
              static_cast<std::size_t>(hostprof::numSubsystems));
}

// ------------------------------------------------------------------
// perf_event_open fallback.
// ------------------------------------------------------------------

TEST(HostProf, HwCountersNeverCrash)
{
    std::string reason;
    const bool available = hostprof::HwCounters::probe(&reason);
    EXPECT_FALSE(reason.empty());

    hostprof::HwCounters hw;
    const bool started = hw.start();
    // start() must agree with probe() about this environment.
    EXPECT_EQ(started, available);
    const auto sample = hw.sample();
    if (!started) {
        EXPECT_FALSE(sample.ok);
        EXPECT_FALSE(hw.reason().empty());
    } else {
        hw.stop();
        EXPECT_TRUE(hw.sample().ok);
        EXPECT_GT(hw.sample().instructions, 0u);
    }

    MetricsRegistry reg;
    hostprof::publishHwAvailability(reg, "hostprof");
    ASSERT_TRUE(reg.has("hostprof.counters_available"));
    EXPECT_EQ(reg.gauge("hostprof.counters_available"),
              available ? 1.0 : 0.0);
}

// ------------------------------------------------------------------
// A second protocol driver, to pin the proto.* site split.
// ------------------------------------------------------------------

TEST(HostProf, StreamRunsAttributeToTheStreamSite)
{
    HostProfiler hp;
    hp.attach();
    {
        Stack stack(baseConfig());
        StreamProtocol proto(stack);
        StreamParams p;
        p.words = 32;
        const RunResult r = proto.run(p);
        EXPECT_TRUE(r.dataOk);
    }
    hp.detach();

    bool sawStream = false, sawXfer = false;
    for (const auto &r : hp.rows()) {
        if (r.site == Site::ProtoStream)
            sawStream = true;
        if (r.site == Site::ProtoXfer)
            sawXfer = true;
    }
    EXPECT_TRUE(sawStream);
    EXPECT_FALSE(sawXfer);
}

} // namespace
} // namespace msgsim
