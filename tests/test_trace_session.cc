/**
 * @file
 * Tests of the observability layer: TraceSession span recording and
 * Chrome-trace export, the MetricsRegistry, histogram percentiles,
 * and — critically — that tracing is a pure observer that never
 * perturbs an instruction count.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <fstream>
#include <string>

#include "net/tracer.hh"
#include "protocols/finite_xfer.hh"
#include "protocols/stream.hh"
#include "sim/log.hh"
#include "sim/metrics.hh"
#include "sim/obs_cli.hh"
#include "sim/trace_session.hh"

namespace msgsim
{
namespace
{

// ----------------------------------------------------------------
// A minimal recursive-descent JSON well-formedness checker (values
// are validated but not materialized) — enough to prove the exported
// trace parses without an external JSON library.
// ----------------------------------------------------------------

class JsonChecker
{
  public:
    explicit JsonChecker(const std::string &text) : s_(text) {}

    bool
    valid()
    {
        skipWs();
        if (!value())
            return false;
        skipWs();
        return pos_ == s_.size();
    }

  private:
    bool
    value()
    {
        if (pos_ >= s_.size())
            return false;
        switch (s_[pos_]) {
          case '{': return object();
          case '[': return array();
          case '"': return string();
          case 't': return literal("true");
          case 'f': return literal("false");
          case 'n': return literal("null");
          default:  return number();
        }
    }

    bool
    object()
    {
        ++pos_; // '{'
        skipWs();
        if (peek() == '}') {
            ++pos_;
            return true;
        }
        for (;;) {
            skipWs();
            if (!string())
                return false;
            skipWs();
            if (peek() != ':')
                return false;
            ++pos_;
            skipWs();
            if (!value())
                return false;
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == '}') {
                ++pos_;
                return true;
            }
            return false;
        }
    }

    bool
    array()
    {
        ++pos_; // '['
        skipWs();
        if (peek() == ']') {
            ++pos_;
            return true;
        }
        for (;;) {
            skipWs();
            if (!value())
                return false;
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == ']') {
                ++pos_;
                return true;
            }
            return false;
        }
    }

    bool
    string()
    {
        if (peek() != '"')
            return false;
        ++pos_;
        while (pos_ < s_.size() && s_[pos_] != '"') {
            if (s_[pos_] == '\\') {
                ++pos_;
                if (pos_ >= s_.size())
                    return false;
            }
            ++pos_;
        }
        if (pos_ >= s_.size())
            return false;
        ++pos_; // closing quote
        return true;
    }

    bool
    number()
    {
        const std::size_t start = pos_;
        if (peek() == '-')
            ++pos_;
        while (pos_ < s_.size() &&
               (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
                s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
                s_[pos_] == '+' || s_[pos_] == '-'))
            ++pos_;
        return pos_ > start;
    }

    bool
    literal(const char *word)
    {
        const std::size_t len = std::string(word).size();
        if (s_.compare(pos_, len, word) != 0)
            return false;
        pos_ += len;
        return true;
    }

    char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }

    void
    skipWs()
    {
        while (pos_ < s_.size() &&
               std::isspace(static_cast<unsigned char>(s_[pos_])))
            ++pos_;
    }

    const std::string &s_;
    std::size_t pos_ = 0;
};

// ----------------------------------------------------------------
// TraceSession core behavior.
// ----------------------------------------------------------------

TEST(TraceSession, SpansNestPerNodeAndRecordAtEnd)
{
    TraceSession ts;
    ts.beginSpan(0, "outer", "a");
    ts.beginSpan(0, "inner", "b");
    EXPECT_EQ(ts.openSpans(), 2u);
    EXPECT_EQ(ts.snapshot().size(), 0u); // complete-at-end
    ts.endSpan(0);
    ts.endSpan(0);
    EXPECT_EQ(ts.openSpans(), 0u);

    const auto recs = ts.snapshot();
    ASSERT_EQ(recs.size(), 2u);
    // LIFO: the inner span completes (and is recorded) first.
    EXPECT_STREQ(recs[0].cat, "inner");
    EXPECT_STREQ(recs[1].cat, "outer");
    EXPECT_EQ(recs[0].kind, TraceSession::Kind::Span);
}

TEST(TraceSession, SpansOnDifferentNodesAreIndependent)
{
    TraceSession ts;
    ts.beginSpan(0, "c", "n0");
    ts.beginSpan(1, "c", "n1");
    ts.endSpan(0);
    const auto recs = ts.snapshot();
    ASSERT_EQ(recs.size(), 1u);
    EXPECT_EQ(recs[0].node, 0u);
    EXPECT_EQ(ts.openSpans(), 1u);
}

TEST(TraceSession, RingEvictsOldestButKeepsCounting)
{
    TraceSession::Config cfg;
    cfg.capacity = 4;
    TraceSession ts(cfg);
    for (int i = 0; i < 10; ++i)
        ts.instant(0, "t", "e", i);
    EXPECT_EQ(ts.observed(), 10u);
    EXPECT_EQ(ts.dropped(), 6u);
    const auto recs = ts.snapshot();
    ASSERT_EQ(recs.size(), 4u);
    EXPECT_EQ(recs.front().value, 6.0); // oldest retained
    EXPECT_EQ(recs.back().value, 9.0);
}

TEST(TraceSession, CapacityZeroClampsToOne)
{
    TraceSession::Config cfg;
    cfg.capacity = 0;
    TraceSession ts(cfg);
    ts.instant(0, "t", "a");
    ts.instant(0, "t", "b");
    EXPECT_EQ(ts.snapshot().size(), 1u);
    EXPECT_EQ(ts.observed(), 2u);
}

TEST(TraceSession, UnmatchedEndIsCountedNotRecorded)
{
    TraceSession ts;
    ts.endSpan(3);
    EXPECT_EQ(ts.unmatchedEnds(), 1u);
    EXPECT_EQ(ts.snapshot().size(), 0u);
}

TEST(TraceSession, SpanCountsSurviveClear)
{
    TraceSession ts;
    ts.beginSpan(0, "p", "x");
    ts.endSpan(0);
    ts.beginSpan(0, "p", "x");
    ts.endSpan(0);
    ts.beginSpan(1, "p", "y");
    ts.endSpan(1);
    ts.clear();
    EXPECT_EQ(ts.snapshot().size(), 0u);
    const auto &counts = ts.spanCounts();
    EXPECT_EQ(counts.at("p/x"), 2u);
    EXPECT_EQ(counts.at("p/y"), 1u);
}

TEST(TraceSession, AttachDetachControlsCurrent)
{
    EXPECT_EQ(TraceSession::current(), nullptr);
    {
        TraceSession ts;
        ts.attach();
        EXPECT_EQ(TraceSession::current(), &ts);
        // ScopedSpan goes through the attached session.
        { ScopedSpan span(0, "s", "scoped"); }
        EXPECT_EQ(ts.snapshot().size(), 1u);
    } // destructor detaches
    EXPECT_EQ(TraceSession::current(), nullptr);
    // With no session attached the RAII hook is a no-op.
    { ScopedSpan span(0, "s", "ignored"); }
}

/** Typed-event target: opens and closes a span on the node in arg. */
struct SpanEvents
{
    TraceSession &ts;
    void begin(std::uint32_t node) { ts.beginSpan(node, "c", "work"); }
    void end(std::uint32_t node) { ts.endSpan(node); }
};

TEST(TraceSession, ClockBindingTimestampsSpans)
{
    Simulator sim;
    TraceSession ts;
    ts.bindClock(&sim);
    EXPECT_TRUE(ts.clockIs(&sim));

    SpanEvents work{ts};
    sim.scheduleAt<&SpanEvents::begin>(5, &work, 0);
    sim.scheduleAt<&SpanEvents::end>(12, &work, 0);
    sim.run();

    const auto recs = ts.snapshot();
    ASSERT_EQ(recs.size(), 1u);
    EXPECT_EQ(recs[0].start, 5u);
    EXPECT_EQ(recs[0].end, 12u);
}

// ----------------------------------------------------------------
// Chrome-trace export.
// ----------------------------------------------------------------

TEST(TraceExport, JsonIsWellFormedAndCarriesEveryRecordKind)
{
    Simulator sim;
    TraceSession ts;
    ts.bindClock(&sim);
    ts.beginSpan(0, "proto", "phase \"one\""); // exercises escaping
    ts.endSpan(0);
    ts.instant(1, "hw", "deliver", 7);
    ts.counterSample(0, "depth", 3);
    ts.counterSample("global", 1);

    const std::string json = ts.chromeTraceJson();
    JsonChecker checker(json);
    EXPECT_TRUE(checker.valid()) << json;
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
    EXPECT_NE(json.find("phase \\\"one\\\""), std::string::npos);
    EXPECT_NE(json.find("node0/depth"), std::string::npos);
}

TEST(TraceExport, OpenSpansAreFlushedAtExport)
{
    TraceSession ts;
    ts.beginSpan(0, "c", "unclosed");
    const std::string json = ts.chromeTraceJson();
    EXPECT_EQ(ts.openSpans(), 0u);
    EXPECT_NE(json.find("unclosed"), std::string::npos);
}

TEST(TraceExport, TracedProtocolRunContainsAllSixStepsAndHwEvents)
{
    TraceSession ts;
    ts.attach();

    StackConfig cfg;
    cfg.nodes = 2;
    Stack stack(cfg);
    ts.bindClock(&stack.sim());
    PacketTracer tracer;
    tracer.attach();
    attachTraceBridge(tracer, ts);

    FiniteXfer proto(stack);
    FiniteXferParams p;
    p.words = 16;
    const auto res = proto.run(p);
    ASSERT_TRUE(res.dataOk);
    ts.detach();

    // The six finite-sequence protocol steps all opened spans...
    const auto &counts = ts.spanCounts();
    for (const char *step : {"alloc_req", "seg_alloc", "alloc_reply",
                             "data", "seg_free", "ack"}) {
        const std::string key = std::string("finite_xfer/") + step;
        ASSERT_TRUE(counts.count(key)) << key;
        EXPECT_GE(counts.at(key), 1u) << key;
    }

    // ... and the JSON timeline carries them plus the bridged
    // hardware instants, all parseable.
    const std::string json = ts.chromeTraceJson();
    JsonChecker checker(json);
    EXPECT_TRUE(checker.valid());
    for (const char *name : {"alloc_req", "seg_alloc", "alloc_reply",
                             "seg_free", "ack", "inject", "deliver"})
        EXPECT_NE(json.find(name), std::string::npos) << name;

    // Bridged hardware events share the protocol spans' clock: every
    // timestamp lies within the simulated run.
    const Tick end = stack.sim().now();
    for (const auto &rec : ts.snapshot()) {
        EXPECT_LE(rec.start, end);
        EXPECT_LE(rec.end, end);
    }
}

TEST(TraceExport, WriteChromeTraceRoundTripsThroughAFile)
{
    TraceSession ts;
    ts.instant(0, "t", "marker", 42);
    const std::string path = ::testing::TempDir() + "trace_rt.json";
    ASSERT_TRUE(ts.writeChromeTrace(path));

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    JsonChecker checker(text);
    EXPECT_TRUE(checker.valid());
    EXPECT_NE(text.find("marker"), std::string::npos);
    std::remove(path.c_str());
}

// ----------------------------------------------------------------
// Tracing must never perturb the paper's instruction counts.
// ----------------------------------------------------------------

struct CountPair
{
    InstrCounter src;
    InstrCounter dst;
};

CountPair
runInstrumented(bool traced)
{
    TraceSession ts;
    if (traced)
        ts.attach();

    StackConfig cfg;
    cfg.nodes = 2;
    CountPair out;
    {
        // Finite-sequence protocol, calibration then event mode.
        Stack stack(cfg);
        PacketTracer tracer;
        if (traced) {
            ts.bindClock(&stack.sim());
            tracer.attach();
            attachTraceBridge(tracer, ts);
        }
        FiniteXfer proto(stack);
        FiniteXferParams p;
        p.words = 64;
        const auto r1 = proto.run(p);
        EXPECT_TRUE(r1.dataOk);
        p.eventMode = true;
        const auto r2 = proto.run(p);
        EXPECT_TRUE(r2.dataOk);
        out.src += stack.node(0).acct().counter();
        out.dst += stack.node(1).acct().counter();
    }
    {
        // Indefinite-sequence protocol, event mode.
        Stack stack(cfg);
        PacketTracer tracer;
        if (traced) {
            ts.bindClock(&stack.sim());
            tracer.attach();
            attachTraceBridge(tracer, ts);
        }
        StreamProtocol proto(stack);
        StreamParams p;
        p.words = 64;
        p.eventMode = true;
        const auto r = proto.run(p);
        EXPECT_TRUE(r.dataOk);
        out.src += stack.node(0).acct().counter();
        out.dst += stack.node(1).acct().counter();
    }
    if (traced) {
        EXPECT_GT(ts.observed(), 0u);
        ts.detach();
    }
    return out;
}

TEST(TraceOverhead, InstructionCountsAreBitIdenticalWithTracingOn)
{
    const CountPair off = runInstrumented(false);
    const CountPair on = runInstrumented(true);
    // Full-structure equality: every per-(feature, row, opclass)
    // bucket of the Table 2/3 accounting must match bit for bit.
    EXPECT_TRUE(off.src == on.src);
    EXPECT_TRUE(off.dst == on.dst);
}

// ----------------------------------------------------------------
// MetricsRegistry.
// ----------------------------------------------------------------

TEST(Metrics, CounterGaugeStatHistogramRoundTrip)
{
    MetricsRegistry reg;
    reg.counter("a.count") += 3;
    reg.counter("a.count") += 2;
    reg.gauge("a.level") = 7.5;
    reg.stat("a.stat").sample(1);
    reg.stat("a.stat").sample(3);
    reg.histogram("a.hist", 0, 10, 10).sample(4.2);

    EXPECT_EQ(reg.size(), 4u);
    EXPECT_EQ(reg.counter("a.count"), 5u);
    EXPECT_EQ(reg.gauge("a.level"), 7.5);
    EXPECT_EQ(reg.stat("a.stat").count(), 2u);
    EXPECT_EQ(reg.stat("a.stat").mean(), 2.0);
    EXPECT_EQ(reg.histogram("a.hist", 0, 10, 10).stat().count(), 1u);
}

TEST(Metrics, LabelsDistinguishSeriesAndFlattenCanonically)
{
    MetricsRegistry reg;
    reg.counter("ni.drops", {{"node", "0"}}) = 1;
    reg.counter("ni.drops", {{"node", "1"}}) = 2;
    EXPECT_EQ(reg.size(), 2u);
    EXPECT_TRUE(reg.has("ni.drops", {{"node", "0"}}));
    EXPECT_FALSE(reg.has("ni.drops", {{"node", "2"}}));
    EXPECT_FALSE(reg.has("ni.drops"));
    EXPECT_EQ(MetricsRegistry::flatKey(
                  "m", {{"a", "1"}, {"b", "2"}}),
              "m{a=1,b=2}");
    EXPECT_EQ(MetricsRegistry::flatKey("m", {}), "m");
}

TEST(Metrics, KindMismatchIsFatal)
{
    log_detail::throwOnError = true;
    MetricsRegistry reg;
    reg.counter("x");
    EXPECT_THROW(reg.gauge("x"), log_detail::SimError);
    log_detail::throwOnError = false;
}

TEST(Metrics, DumpsAreWellFormed)
{
    MetricsRegistry reg;
    reg.counter("c", {{"node", "3"}}) = 9;
    reg.gauge("g") = 1.25;
    auto &h = reg.histogram("h", 0, 100, 4);
    for (int i = 0; i < 100; ++i)
        h.sample(i);

    const std::string text = reg.dumpText();
    EXPECT_NE(text.find("c{node=3}"), std::string::npos);
    EXPECT_NE(text.find("9"), std::string::npos);

    const std::string json = reg.dumpJson();
    JsonChecker checker(json);
    EXPECT_TRUE(checker.valid()) << json;
    EXPECT_NE(json.find("\"metrics\""), std::string::npos);
    EXPECT_NE(json.find("\"p99\""), std::string::npos);
}

TEST(Metrics, EachScopeDumpsItsOwnRegistry)
{
    // No registry is shared: what one scope's dump holds was
    // published to that scope alone.
    const std::string pathA = ::testing::TempDir() + "metrics_a.json";
    const std::string pathB = ::testing::TempDir() + "metrics_b.json";
    obs::Scope a(obs::Options{"", pathA});
    obs::Scope b(obs::Options{"", pathB});
    a.metrics().counter("test.scope.a") = 1;
    b.metrics().counter("test.scope.b") = 2;
    ASSERT_EQ(a.finish(0), 0);
    ASSERT_EQ(b.finish(0), 0);

    auto slurp = [](const std::string &path) {
        std::ifstream in(path);
        return std::string((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    };
    const std::string textA = slurp(pathA);
    const std::string textB = slurp(pathB);
    EXPECT_NE(textA.find("test.scope.a"), std::string::npos) << textA;
    EXPECT_EQ(textA.find("test.scope.b"), std::string::npos) << textA;
    EXPECT_NE(textB.find("test.scope.b"), std::string::npos) << textB;
    EXPECT_EQ(textB.find("test.scope.a"), std::string::npos) << textB;
    std::remove(pathA.c_str());
    std::remove(pathB.c_str());
}

// ----------------------------------------------------------------
// Histogram extensions (percentile + ASCII rendering).
// ----------------------------------------------------------------

TEST(HistogramExt, PercentileInterpolatesAndClamps)
{
    Histogram h(0, 100, 100);
    for (int i = 0; i < 100; ++i)
        h.sample(i + 0.5);
    EXPECT_NEAR(h.percentile(50), 50.0, 1.5);
    EXPECT_NEAR(h.percentile(99), 99.0, 1.5);
    EXPECT_GE(h.percentile(0), h.stat().min());
    EXPECT_LE(h.percentile(100), h.stat().max());
    EXPECT_EQ(Histogram(0, 1, 4).percentile(50), 0.0); // empty
}

TEST(HistogramExt, ZeroBinConstructionIsSafe)
{
    Histogram h(0, 10, 0); // clamps to one bin instead of crashing
    h.sample(5);
    h.sample(50); // above range: saturates into the last bin
    EXPECT_EQ(h.bins().size(), 1u);
    EXPECT_EQ(h.bins()[0], 2u);
}

TEST(HistogramExt, RenderAsciiScalesToPeak)
{
    Histogram h(0, 4, 4);
    for (int i = 0; i < 9; ++i)
        h.sample(0.5); // bin 0 is the peak
    h.sample(2.5);     // bin 2 lightly filled
    const std::string art = h.renderAscii();
    ASSERT_EQ(art.size(), 6u); // "[....]"
    EXPECT_EQ(art.front(), '[');
    EXPECT_EQ(art.back(), ']');
    EXPECT_EQ(art[1], '@');  // peak bin renders at max level
    EXPECT_EQ(art[2], ' ');  // empty bin renders blank
    EXPECT_NE(art[3], ' ');  // non-empty bin renders something
}

} // namespace
} // namespace msgsim
