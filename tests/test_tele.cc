/**
 * Time-series telemetry (src/tele): sampling engine mechanics, the
 * zero-perturbation contract over the canonical scenarios, bottleneck
 * attribution, heatmap / report / counter-track export, and the
 * histogram-merge machinery the latency percentiles ride on.
 */

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>

#include "core/json.hh"
#include "sim/event.hh"
#include "sim/stats.hh"
#include "sim/trace_session.hh"
#include "tele/heatmap.hh"
#include "tele/probes.hh"
#include "tele/report.hh"
#include "tele/tele_run.hh"
#include "traffic/engine.hh"

namespace msgsim
{
namespace
{

// ------------------------------------------------------------------
// Histogram merging (the satellite machinery).
// ------------------------------------------------------------------

TEST(HistogramMerge, EmptyIsIdentity)
{
    Histogram a(0, 100, 10);
    a.sample(5);
    a.sample(42);
    Histogram empty(0, 100, 10);
    a.merge(empty);
    EXPECT_EQ(a.stat().count(), 2u);
    EXPECT_DOUBLE_EQ(a.stat().min(), 5.0);
    EXPECT_DOUBLE_EQ(a.stat().max(), 42.0);

    Histogram b(0, 100, 10);
    b.merge(a);
    EXPECT_EQ(b.bins(), a.bins());
    EXPECT_EQ(b.stat().count(), a.stat().count());
}

TEST(HistogramMerge, SingleBinCountsAdd)
{
    Histogram a(0, 10, 1);
    Histogram b(0, 10, 1);
    a.sample(1);
    a.sample(2);
    b.sample(9);
    a.merge(b);
    ASSERT_EQ(a.bins().size(), 1u);
    EXPECT_EQ(a.bins()[0], 3u);
    EXPECT_EQ(a.stat().count(), 3u);
    EXPECT_DOUBLE_EQ(a.stat().max(), 9.0);
}

TEST(HistogramMerge, IsAssociative)
{
    auto mk = [](std::initializer_list<double> xs) {
        Histogram h(0, 64, 8);
        for (double x : xs)
            h.sample(x);
        return h;
    };
    const Histogram a = mk({1, 2, 3});
    const Histogram b = mk({10, 20});
    const Histogram c = mk({40, 50, 63, 70});

    Histogram ab = a;
    ab.merge(b);
    Histogram ab_c = ab;
    ab_c.merge(c);

    Histogram bc = b;
    bc.merge(c);
    Histogram a_bc = a;
    a_bc.merge(bc);

    EXPECT_EQ(ab_c.bins(), a_bc.bins());
    EXPECT_EQ(ab_c.stat().count(), a_bc.stat().count());
    EXPECT_DOUBLE_EQ(ab_c.stat().sum(), a_bc.stat().sum());
    EXPECT_DOUBLE_EQ(ab_c.stat().min(), a_bc.stat().min());
    EXPECT_DOUBLE_EQ(ab_c.stat().max(), a_bc.stat().max());
    EXPECT_DOUBLE_EQ(ab_c.percentile(50), a_bc.percentile(50));
}

TEST(WindowedHistogramTest, WindowsAndMergeRange)
{
    WindowedHistogram wh(100, 0, 64, 8);
    wh.sample(10, 1);   // window 0
    wh.sample(150, 2);  // window 1
    wh.sample(199, 3);  // window 1
    wh.sample(420, 60); // window 4
    EXPECT_EQ(wh.windowCount(), 5u);
    EXPECT_EQ(wh.window(0).stat().count(), 1u);
    EXPECT_EQ(wh.window(1).stat().count(), 2u);
    EXPECT_EQ(wh.window(2).stat().count(), 0u);
    EXPECT_EQ(wh.total().stat().count(), 4u);

    const Histogram head = wh.mergeRange(0, 2);
    EXPECT_EQ(head.stat().count(), 3u);
    const Histogram all = wh.mergeRange(0, 99);
    EXPECT_EQ(all.bins(), wh.total().bins());
}

// ------------------------------------------------------------------
// Sampling engine mechanics on a bare simulator.
// ------------------------------------------------------------------

/** A probed level that typed events set (arg) or merely touch. */
struct Level
{
    double value = 0;
    void set(std::uint32_t v) { value = v; }
    void touch(std::uint32_t) {}
};

TEST(TeleSession, SamplesAtPeriodBoundariesOnly)
{
    Simulator sim;
    tele::TeleSession s({10, 64});
    Level level;
    s.addProbe({"t", "level", invalidNode, tele::ProbeKind::Gauge, 0.0, ""},
               [&level] { return level.value; });
    s.bindClock(&sim);
    s.attach();
    // Clock advances 0 -> 7 -> 23 -> 23 (no advance) -> 40.
    sim.scheduleAt<&Level::set>(7, &level, 1);
    sim.scheduleAt<&Level::set>(23, &level, 2);
    sim.scheduleAt<&Level::set>(23, &level, 3);
    sim.scheduleAt<&Level::touch>(40, &level, 0);
    sim.run();
    s.detach();

    // Boundaries crossed: 10 (at the 0->7? no — 7 < 10), so the
    // advances 7->23 (boundary 10), 23->40 (boundary 30), plus
    // nothing for the equal-time event.  State sampled is the value
    // *before* the destination event runs.
    const auto samples = s.samples(0);
    ASSERT_EQ(samples.size(), 2u);
    EXPECT_EQ(samples[0].tick, 10u);
    EXPECT_DOUBLE_EQ(samples[0].value, 1.0); // after the t=7 event
    EXPECT_EQ(samples[1].tick, 30u);
    EXPECT_DOUBLE_EQ(samples[1].value, 3.0); // after both t=23 events
}

TEST(TeleSession, RingEvictsOldestAndCounts)
{
    Simulator sim;
    tele::TeleSession s({1, 4}); // tiny ring: 4 retained samples
    s.addProbe({"t", "tick", invalidNode, tele::ProbeKind::Counter, 0.0, ""},
               [&sim] { return double(sim.now()); });
    s.bindClock(&sim);
    s.attach();
    Level idle;
    for (Tick t = 1; t <= 10; ++t)
        sim.scheduleAt<&Level::touch>(t, &idle, 0);
    sim.run();
    s.detach();

    EXPECT_GT(s.samplesDropped(), 0u);
    const auto samples = s.samples(0);
    ASSERT_EQ(samples.size(), 4u);
    // Oldest evicted; retained run is the last four, oldest first.
    EXPECT_EQ(samples.front().tick, 7u);
    EXPECT_EQ(samples.back().tick, 10u);
    EXPECT_EQ(s.tracks()[0].dropped, s.samplesDropped());
}

TEST(TeleSession, RetiredProbesKeepTheirSamples)
{
    Simulator sim;
    tele::TeleSession s({1, 16});
    {
        // Short-lived probed object, destroyed before the session.
        auto counter = std::make_unique<Level>();
        s.addProbe({"t", "x", invalidNode, tele::ProbeKind::Gauge, 0.0, ""},
                   [p = counter.get()] { return p->value; });
        s.bindClock(&sim);
        s.attach();
        sim.scheduleAt<&Level::set>(1, counter.get(), 7);
        sim.scheduleAt<&Level::touch>(2, counter.get(), 0);
        sim.run();
        s.retireProbesFrom(0); // then the object may die
    }
    s.detach();
    ASSERT_EQ(s.tracks().size(), 1u);
    EXPECT_FALSE(s.tracks()[0].read);
    const auto samples = s.samples(0);
    ASSERT_EQ(samples.size(), 2u);
    EXPECT_DOUBLE_EQ(samples[1].value, 7.0);
}

// ------------------------------------------------------------------
// The zero-perturbation contract over the canonical scenarios.
// ------------------------------------------------------------------

void
expectUnperturbed(const tele::ScenarioResult &bare,
                  const tele::ScenarioResult &sampled)
{
    EXPECT_EQ(bare.ok, sampled.ok);
    EXPECT_EQ(bare.elapsed, sampled.elapsed);
    EXPECT_EQ(bare.instrTotal, sampled.instrTotal);
    EXPECT_EQ(bare.completions, sampled.completions);
    EXPECT_EQ(bare.backpressure, sampled.backpressure);
    EXPECT_EQ(bare.latencyP50, sampled.latencyP50);
    EXPECT_EQ(bare.latencyP95, sampled.latencyP95);
    EXPECT_EQ(bare.latencyP99, sampled.latencyP99);
}

tele::ScenarioResult
runSampled(tele::ScenarioOptions opt, Tick period = 16)
{
    opt.period = period;
    tele::TeleSession s({period, opt.ringCapacity});
    return tele::runScenario(opt, &s);
}

TEST(TeleScenarios, SamplerCannotPerturbAnySubstrate)
{
    for (const char *scen : {"incast", "wire"})
        for (const Substrate sub : allSubstrates) {
            if (std::string(scen) == "wire" && sub == Substrate::Rdma)
                continue; // wire scenario targets classic substrates
            tele::ScenarioOptions opt;
            opt.scenario = scen;
            opt.substrate = sub;
            const tele::ScenarioResult bare =
                tele::runScenario(opt, nullptr);
            EXPECT_TRUE(bare.ok) << scen << "/" << toString(sub);
            const tele::ScenarioResult sampled = runSampled(opt);
            expectUnperturbed(bare, sampled);
        }
}

TEST(TeleScenarios, PeriodCannotPerturbAndDigestIsStable)
{
    tele::ScenarioOptions opt; // incast on cm5
    const tele::ScenarioResult bare = tele::runScenario(opt, nullptr);
    std::string digest16;
    for (const Tick period : {Tick(8), Tick(16), Tick(64)}) {
        const tele::ScenarioResult sampled = runSampled(opt, period);
        expectUnperturbed(bare, sampled);
        if (period == 16)
            digest16 = sampled.digest;
    }
    // Bit-deterministic: the same period reproduces the same bytes.
    const tele::ScenarioResult again = runSampled(opt, 16);
    EXPECT_EQ(again.digest, digest16);
    EXPECT_FALSE(digest16.empty());
}

// ------------------------------------------------------------------
// Bottleneck attribution: the same congestion, two substrates, two
// different named causes.
// ------------------------------------------------------------------

TEST(TeleScenarios, IncastOnCm5NamesTheDestinationRecvRing)
{
    tele::ScenarioOptions opt;
    const tele::ScenarioResult res = runSampled(opt);
    EXPECT_TRUE(res.ok);
    EXPECT_EQ(res.topResource, "ni.recv_ring[0]");
    EXPECT_GT(res.saturatedWindows, 0u);
    EXPECT_GT(res.peakFraction, 0.9);
    EXPECT_GT(res.latencyP50, 0.0);
    EXPECT_GE(res.latencyP99, res.latencyP50);
}

TEST(TeleScenarios, IncastOnRdmaNamesCqBackpressure)
{
    tele::ScenarioOptions opt;
    opt.substrate = Substrate::Rdma;
    const tele::ScenarioResult res = runSampled(opt);
    EXPECT_TRUE(res.ok);
    EXPECT_EQ(res.topResource, "rdma.cq_depth[0]");
    EXPECT_GT(res.saturatedWindows, 0u);
    EXPECT_DOUBLE_EQ(res.peakFraction, 1.0); // pinned at 64/64
    EXPECT_GT(res.backpressure, 0u);         // cqOverflowStalls
}

TEST(TeleScenarios, WireNamesAStreamSendWindow)
{
    tele::ScenarioOptions opt;
    opt.scenario = "wire";
    const tele::ScenarioResult res = runSampled(opt);
    EXPECT_TRUE(res.ok);
    EXPECT_EQ(res.topResource.rfind("wire.window_s", 0), 0u);
    EXPECT_GT(res.backpressure, 0u); // window stalls
}

// ------------------------------------------------------------------
// Report / heatmap / timeline export.
// ------------------------------------------------------------------

TEST(TeleExport, ReportNamesResourceInProse)
{
    tele::ScenarioOptions opt;
    tele::TeleSession s({opt.period, opt.ringCapacity});
    const tele::ScenarioResult res = tele::runScenario(opt, &s);
    ASSERT_TRUE(res.ok);
    const tele::BottleneckReport rep = tele::buildReport(s);
    EXPECT_GT(rep.windows, 0u);
    ASSERT_FALSE(rep.saturated.empty());
    const std::string text = rep.renderText();
    EXPECT_NE(text.find("NI recv ring"), std::string::npos);
    EXPECT_NE(text.find("ni.recv_ring[0]"), std::string::npos);
    const std::string json = rep.toJson().dump(2);
    EXPECT_NE(json.find("\"top_resource\""), std::string::npos);
}

TEST(TeleExport, HeatmapBinsEveryActiveTrack)
{
    tele::ScenarioOptions opt;
    tele::TeleSession s({opt.period, opt.ringCapacity});
    ASSERT_TRUE(tele::runScenario(opt, &s).ok);
    const tele::Heatmap hm = tele::buildHeatmap(s, 32);
    EXPECT_GT(hm.bins, 0u);
    EXPECT_LE(hm.bins, 32u);
    EXPECT_EQ(hm.binTicks % s.config().period, 0u);
    ASSERT_FALSE(hm.rows.empty());
    bool sawRing = false;
    for (const auto &row : hm.rows) {
        EXPECT_EQ(row.values.size(), hm.bins);
        if (row.label == "ni.recv_ring[0]") {
            sawRing = true;
            EXPECT_GT(row.peak, 0.9 * row.capacity);
        }
    }
    EXPECT_TRUE(sawRing);
    EXPECT_FALSE(hm.renderAscii().empty());
}

TEST(TeleExport, CounterTracksMergeOntoATimeline)
{
    tele::ScenarioOptions opt;
    tele::TeleSession s({opt.period, opt.ringCapacity});
    ASSERT_TRUE(tele::runScenario(opt, &s).ok);
    TraceSession ts;
    s.exportCounters(ts);
    const std::string json = ts.chromeTraceJson();
    EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
    EXPECT_NE(json.find("ni.recv_ring"), std::string::npos);

    // Every counter sample is well formed, and every layer the
    // sampler probes has counter tracks on the timeline: a track
    // "node3/link.delivered" is layer "link".
    Json doc;
    ASSERT_TRUE(Json::parse(json, doc));
    const Json &events = *doc.find("traceEvents");
    std::set<std::string> layers;
    for (std::size_t i = 0; i < events.size(); ++i) {
        const Json &ev = events.at(i);
        if (ev.find("ph")->asString() != "C")
            continue;
        ASSERT_NE(ev.find("ts"), nullptr);
        ASSERT_NE(ev.find("args"), nullptr);
        ASSERT_NE(ev.find("name"), nullptr);
        std::string name = ev.find("name")->asString();
        name = name.substr(name.rfind('/') + 1);
        layers.insert(name.substr(0, name.find('.')));
    }
    for (const char *layer : {"sim", "link", "ni", "traffic"})
        EXPECT_TRUE(layers.count(layer)) << layer;
}

// ------------------------------------------------------------------
// Closed-loop latency percentiles (the traffic satellite).
// ------------------------------------------------------------------

TEST(TrafficLatency, EveryMessageGetsOneTiming)
{
    TrafficSpec spec;
    spec.pattern = TrafficPattern::UniformRandom;
    spec.nodes = 8;
    spec.messagesPerNode = 4;
    spec.sizeWords = 4;
    spec.seed = 3;
    for (const TrafficProto proto :
         {TrafficProto::Am, TrafficProto::Seq, TrafficProto::Acked}) {
        spec.proto = proto;
        Stack stack(trafficStackConfig(spec, Substrate::Cm5));
        TrafficEngine eng(stack);
        const TrafficResult res = eng.run(spec);
        ASSERT_TRUE(res.ok);
        EXPECT_EQ(res.timings.size(),
                  std::size_t(spec.nodes) * spec.messagesPerNode);
        for (const MsgTiming &t : res.timings)
            EXPECT_GT(t.done, t.birth);
    }
}

TEST(TrafficLatency, PercentilesAreDeterministic)
{
    TrafficSpec spec;
    spec.pattern = TrafficPattern::Incast;
    spec.nodes = 8;
    spec.messagesPerNode = 4;
    spec.sizeWords = 6;
    spec.seed = 11;
    spec.deliverGap = 2;
    auto once = [&] {
        Stack stack(trafficStackConfig(spec, Substrate::Cm5));
        TrafficEngine eng(stack);
        return eng.run(spec);
    };
    const TrafficResult a = once();
    const TrafficResult b = once();
    ASSERT_TRUE(a.ok);
    const WindowedHistogram ha = a.latencyHistogram(64);
    const WindowedHistogram hb = b.latencyHistogram(64);
    EXPECT_EQ(ha.total().bins(), hb.total().bins());
    EXPECT_DOUBLE_EQ(ha.total().percentile(50),
                     hb.total().percentile(50));
    EXPECT_DOUBLE_EQ(ha.total().percentile(99),
                     hb.total().percentile(99));
    EXPECT_GT(ha.total().percentile(50), 0.0);
    EXPECT_GT(ha.windowCount(), 1u); // spread over simulated time
}

} // namespace
} // namespace msgsim
