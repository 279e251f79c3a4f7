/**
 * @file
 * msgsim-perfbench: how fast does the simulator itself run?
 *
 * One single-threaded process runs one workload on every substrate
 * (cm5, cr, rdma, nicam), each rep a closed loop on a freshly built
 * Stack:
 *
 *  - am_single   : 2 nodes, am4(0 -> 1, 4 words) -> settle -> poll,
 *                  one message outstanding (per-packet fixed cost);
 *  - incast      : TrafficEngine, 16 nodes fanning into node 0, acked
 *                  8-word messages (traffic bookkeeping, deep heap);
 *  - wire_stream : runWireWorkload, 8 streams of 6-word frames,
 *                  window 4, every 64th frame CRC-corrupted (COBS +
 *                  CRC framing and the stream recovery path).
 *
 * After one discarded warm-up rep per substrate, reps rotate across
 * the substrates until --seconds have passed, so a host-wide slow
 * phase lands on every substrate alike.  Every rep checks payload
 * integrity and hashes its simulated outputs (packets delivered,
 * ticks, the per-feature instruction bill, and for incast the
 * latency p50/p99) into a digest that must equal --expect (when
 * given) and the first rep's digest.
 *
 * --trace 0 reports end-to-end numbers from uninstrumented reps.
 * --trace 1 adds three more rep kinds per round: a spanned rep that
 * times calls into each layer from this file, a rep with the host
 * self-profiler attached, and a bare-fabric probe (Network::inject +
 * Simulator::run, no NI, no CMAM).  Spans stay in memory and are
 * written to --trace-out at the end.
 *
 * The last stdout line is one JSON object holding every metric; the
 * lines before it are a readable table.  perfbench/run.py builds this
 * binary, supplies the stored digests and trims the JSON to the
 * metrics BENCHMARK.json names.
 */

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "hostprof/hostprof.hh"
#include "protocols/stack.hh"
#include "traffic/engine.hh"
#include "wire/cobs.hh"
#include "wire/header.hh"
#include "wire/wire_run.hh"

using namespace msgsim;

namespace
{

using Clock = std::chrono::steady_clock;

double
nsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::nano>(b - a).count();
}

double
secondsSince(Clock::time_point t0)
{
    return nsBetween(t0, Clock::now()) * 1e-9;
}

constexpr Substrate kSubstrates[] = {Substrate::Cm5, Substrate::Cr,
                                     Substrate::Rdma, Substrate::Nicam};

// Work per rep: enough that one rep takes a millisecond or more, so
// the clock reads around it are noise-free, and little enough that a
// 30 s run holds thousands of reps per substrate (see quietMedian).
constexpr std::uint32_t kAmRounds = 4000;
constexpr std::uint32_t kIncastNodes = 16;
constexpr std::uint32_t kIncastMsgsPerNode = 16;
constexpr std::uint32_t kIncastWords = 8;
constexpr std::uint32_t kWireStreams = 8;
constexpr std::uint32_t kWireFrames = 24;
constexpr std::uint32_t kWireWords = 6;
constexpr std::uint8_t kWireWindow = 4;
constexpr std::uint32_t kWireCorruptEvery = 64;
constexpr std::uint32_t kProbePackets = 4000;
/// Per-call spans kept per spanned rep (the per-call means use every
/// call; this only bounds the trace file).
constexpr std::uint32_t kSpanCalls = 16;
constexpr int kMinRounds = 3;

/** FNV-1a over 64-bit values: the digest of a rep's outputs. */
struct Digest
{
    std::uint64_t h = 0xcbf29ce484222325ULL;

    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xffu;
            h *= 0x100000001b3ULL;
        }
    }
};

/** Fold the machine-wide instruction bill, cell by cell. */
void
addBill(Digest &d, Stack &stack)
{
    InstrCounter bill;
    for (NodeId id = 0; id < stack.machine().nodeCount(); ++id)
        bill += stack.node(id).acct().counter();
    for (int f = 0; f < numFeatures; ++f)
        for (int c = 0; c < numOpClasses; ++c)
            d.add(bill.get(static_cast<Feature>(f),
                           static_cast<OpClass>(c)));
}

// ------------------------------------------------------------------
// Spans of the traced run.
// ------------------------------------------------------------------

struct Span
{
    std::uint32_t id = 0;
    std::uint32_t parent = 0; ///< 0 = root
    std::uint32_t rep = 0;    ///< spans of one rep share this
    const char *name = "";
    Substrate sub = Substrate::Cm5;
    double startNs = 0;
    double durNs = 0;
};

class SpanLog
{
  public:
    /** Keep at most @p capacity spans; later ones are counted, not kept. */
    explicit SpanLog(std::size_t capacity) { spans_.reserve(capacity); }

    std::uint32_t nextId() { return ++lastId_; }

    /** Record a finished span (ids come from nextId()). */
    void
    add(std::uint32_t id, std::uint32_t parent, std::uint32_t rep,
        const char *name, Substrate sub, Clock::time_point a,
        Clock::time_point b)
    {
        if (spans_.size() == spans_.capacity()) {
            ++dropped_;
            return;
        }
        spans_.push_back(Span{id, parent, rep, name, sub,
                              nsBetween(origin_, a), nsBetween(a, b)});
    }

    std::size_t size() const { return spans_.size(); }

    /** Chrome trace-event JSON (chrome://tracing, Perfetto). */
    bool
    write(const std::string &path) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (f == nullptr)
            return false;
        std::fprintf(f, "{\"traceEvents\":[");
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            std::fprintf(f,
                         "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                         "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":"
                         "{\"id\":%u,\"parent\":%u,\"rep\":%u,"
                         "\"substrate\":\"%s\"}}",
                         i ? "," : "", s.name, s.startNs * 1e-3,
                         s.durNs * 1e-3, s.id, s.parent, s.rep,
                         toString(s.sub));
        }
        std::fprintf(f, "\n],\"dropped\":%" PRIu64 "}\n", dropped_);
        return std::fclose(f) == 0;
    }

  private:
    Clock::time_point origin_ = Clock::now();
    std::vector<Span> spans_;
    std::uint32_t lastId_ = 0;
    std::uint64_t dropped_ = 0;
};

// ------------------------------------------------------------------
// One rep.
// ------------------------------------------------------------------

enum class Mode
{
    Plain,    ///< uninstrumented: the end-to-end numbers
    Spanned,  ///< per-layer call timing from this file
    Profiled, ///< host self-profiler attached
};

/** What a rep reports.  Counts cover the timed region only. */
struct RepOut
{
    bool ok = false;
    std::uint64_t digest = 0;
    std::uint64_t msgs = 0;    ///< application messages completed
    std::uint64_t packets = 0; ///< fabric packets injected
    std::uint64_t events = 0;  ///< simulator events scheduled
    std::uint64_t maxDepth = 0;
    std::uint64_t allocs = 0;  ///< heap allocations
    double heapMb = 0;         ///< plain reps: heap in use at the region end
                               ///< (absolute; the caller subtracts its base)
    double setupS = 0;
    double runS = 0;
    std::map<std::string, double> layer; ///< spanned-rep layer values
};

/** Per-rep context handed to a workload. */
struct RepCtx
{
    Substrate sub;
    std::uint64_t seed;
    Mode mode;
    SpanLog &spans;
    std::uint32_t rep;
    std::uint32_t repSpan; ///< parent of every span this rep records
    hostprof::HostProfiler &prof;
};

/**
 * Heap in use, in MB: bytes in allocated chunks, including mmapped
 * ones.  Unlike the resident set it does not depend on the page cache,
 * address-space layout or heap trimming, so it repeats exactly.
 */
double
heapInUseMb()
{
    const struct mallinfo2 mi = mallinfo2();
    return static_cast<double>(mi.uordblks + mi.hblkhd) / (1024.0 * 1024.0);
}

/**
 * Brackets a workload's timed region: clock, allocation and event
 * counters, and the profiler attach in Profiled mode.
 */
class Region
{
  public:
    Region(RepCtx &ctx, Stack &stack)
        : ctx_(ctx), stack_(stack), span_(ctx.spans.nextId())
    {
        events0_ = stack_.sim().eventsScheduled();
        injected0_ = stack_.network().stats().injected;
        if (ctx_.mode == Mode::Profiled)
            ctx_.prof.attach();
        allocs0_ = hostprof::globalAllocCount();
        t0_ = Clock::now();
    }

    /** Span id of the region: the parent of per-call spans. */
    std::uint32_t span() const { return span_; }

    /** Close the region and fill @p out's counters. */
    void
    finish(RepOut &out)
    {
        const auto t1 = Clock::now();
        out.allocs = hostprof::globalAllocCount() - allocs0_;
        if (ctx_.mode == Mode::Profiled)
            ctx_.prof.detach();
        out.runS = nsBetween(t0_, t1) * 1e-9;
        out.events = stack_.sim().eventsScheduled() - events0_;
        out.packets = stack_.network().stats().injected - injected0_;
        out.maxDepth = stack_.sim().maxQueueDepth();
        if (ctx_.mode == Mode::Plain)
            out.heapMb = heapInUseMb();
        if (ctx_.mode == Mode::Spanned)
            ctx_.spans.add(span_, ctx_.repSpan, ctx_.rep, "run",
                           ctx_.sub, t0_, t1);
    }

  private:
    RepCtx &ctx_;
    Stack &stack_;
    std::uint32_t span_;
    std::uint64_t events0_ = 0;
    std::uint64_t injected0_ = 0;
    std::uint64_t allocs0_ = 0;
    Clock::time_point t0_;
};

/** Time Stack construction (the rep's setup) and record its span. */
template <typename Build>
auto
timedSetup(RepCtx &ctx, RepOut &out, Build build)
{
    const auto t0 = Clock::now();
    auto built = build();
    const auto t1 = Clock::now();
    out.setupS = nsBetween(t0, t1) * 1e-9;
    if (ctx.mode == Mode::Spanned)
        ctx.spans.add(ctx.spans.nextId(), ctx.repSpan, ctx.rep, "setup",
                      ctx.sub, t0, t1);
    return built;
}

StackConfig
twoNodeConfig(Substrate sub, std::uint64_t seed)
{
    StackConfig cfg;
    cfg.substrate = sub;
    cfg.nodes = 2;
    cfg.seed = seed ^ 0xc0ffeeULL;
    return cfg;
}

// ---------------- am_single ----------------

RepOut
runAmSingle(RepCtx &ctx)
{
    RepOut out;
    auto stack = timedSetup(ctx, out, [&] {
        return std::make_unique<Stack>(twoNodeConfig(ctx.sub, ctx.seed));
    });
    Cmam &src = stack->cmam(0);
    Cmam &dst = stack->cmam(1);

    std::vector<Word> args(4);
    std::uint64_t got = 0;
    std::uint64_t bad = 0;
    Digest pay;
    const int h = dst.registerHandler(
        [&](NodeId from, const std::vector<Word> &a) {
            ++got;
            if (from != 0 || a != args)
                ++bad;
            pay.add(a[0] ^ (static_cast<std::uint64_t>(a[3]) << 32));
        });
    std::uint64_t rng = ctx.seed;

    double am4Ns = 0, settleNs = 0, pollNs = 0;
    Region region(ctx, *stack);
    for (std::uint32_t r = 0; r < kAmRounds; ++r) {
        for (Word &w : args)
            w = static_cast<Word>(splitMix64(rng));
        if (ctx.mode != Mode::Spanned) {
            src.am4(1, h, args);
            stack->settle();
            dst.poll();
            continue;
        }
        const auto a = Clock::now();
        src.am4(1, h, args);
        const auto b = Clock::now();
        stack->settle();
        const auto c = Clock::now();
        dst.poll();
        const auto d = Clock::now();
        am4Ns += nsBetween(a, b);
        settleNs += nsBetween(b, c);
        pollNs += nsBetween(c, d);
        if (r < kSpanCalls) {
            SpanLog &s = ctx.spans;
            const std::uint32_t run = region.span();
            s.add(s.nextId(), run, ctx.rep, "cmam.am4", ctx.sub, a, b);
            s.add(s.nextId(), run, ctx.rep, "stack.settle", ctx.sub, b, c);
            s.add(s.nextId(), run, ctx.rep, "cmam.poll", ctx.sub, c, d);
        }
    }
    region.finish(out);

    out.msgs = got;
    out.ok = got == kAmRounds && bad == 0;
    Digest d;
    d.add(stack->network().stats().delivered);
    d.add(stack->sim().now());
    addBill(d, *stack);
    d.add(got);
    d.add(pay.h);
    out.digest = d.h;

    if (ctx.mode == Mode::Spanned) {
        const std::string s = toString(ctx.sub);
        out.layer["cmam.am4_ns." + s] = am4Ns / kAmRounds;
        out.layer["stack.settle_ns." + s] = settleNs / kAmRounds;
        out.layer["cmam.poll_ns." + s] = pollNs / kAmRounds;
    }
    return out;
}

// ---------------- incast ----------------

/** Nearest-rank percentile of sorted @p v. */
Tick
percentile(const std::vector<Tick> &v, double q)
{
    if (v.empty())
        return 0;
    std::size_t rank = static_cast<std::size_t>(
        q * static_cast<double>(v.size()) + 0.999999);
    rank = std::clamp<std::size_t>(rank, 1, v.size());
    return v[rank - 1];
}

RepOut
runIncast(RepCtx &ctx)
{
    TrafficSpec spec;
    spec.pattern = TrafficPattern::Incast;
    spec.proto = TrafficProto::Acked;
    spec.nodes = kIncastNodes;
    spec.messagesPerNode = kIncastMsgsPerNode;
    spec.sizeWords = kIncastWords;
    spec.seed = ctx.seed;

    RepOut out;
    struct Built
    {
        std::unique_ptr<Stack> stack;
        std::unique_ptr<TrafficEngine> engine;
    };
    Built b = timedSetup(ctx, out, [&] {
        Built x;
        x.stack = std::make_unique<Stack>(
            trafficStackConfig(spec, ctx.sub));
        x.engine = std::make_unique<TrafficEngine>(*x.stack);
        return x;
    });
    Stack &stack = *b.stack;

    Region region(ctx, stack);
    const TrafficResult res = b.engine->run(spec);
    region.finish(out);

    const std::uint64_t want =
        static_cast<std::uint64_t>(kIncastNodes) * kIncastMsgsPerNode;
    out.msgs = res.timings.size();
    out.ok = res.ok && out.msgs == want;

    std::vector<Tick> lat;
    lat.reserve(res.timings.size());
    for (const MsgTiming &t : res.timings)
        lat.push_back(t.latency());
    std::sort(lat.begin(), lat.end());
    const Tick p50 = percentile(lat, 0.50);
    const Tick p99 = percentile(lat, 0.99);

    const NetStats &ns = stack.network().stats();
    Digest d;
    d.add(ns.delivered);
    d.add(stack.sim().now());
    addBill(d, stack);
    d.add(p50);
    d.add(p99);
    d.add(out.msgs);
    out.digest = d.h;

    if (ctx.mode == Mode::Spanned) {
        const std::string s = toString(ctx.sub);
        const double msgs = static_cast<double>(std::max<std::uint64_t>(
            out.msgs, 1));
        const double pkts = static_cast<double>(
            std::max<std::uint64_t>(out.packets, 1));
        out.layer["traffic.run_ns_per_msg." + s] = out.runS * 1e9 / msgs;
        out.layer["traffic.acks_per_msg." + s] =
            static_cast<double>(res.shape.acksDelivered) / msgs;
        out.layer["traffic.useful_ratio." + s] =
            static_cast<double>(res.shape.fragmentsDelivered) / pkts;
        out.layer["net.delivery_retries_per_pkt." + s] =
            static_cast<double>(res.deliveryRetries) / pkts;
        out.layer["traffic.latency_p50_ticks." + s] =
            static_cast<double>(p50);
        out.layer["traffic.latency_p99_ticks." + s] =
            static_cast<double>(p99);
    }
    return out;
}

// ---------------- wire_stream ----------------

wire::WireWorkload
wireWorkload(std::uint64_t seed)
{
    wire::WireWorkload w;
    w.streams = kWireStreams;
    w.framesPerStream = kWireFrames;
    w.payloadWords = kWireWords;
    w.window = kWireWindow;
    w.corruptEvery = kWireCorruptEvery;
    w.fillSeed = seed ^ 0x5eedf00dULL;
    return w;
}

/**
 * The frame bodies (header || payload || crc) runWireWorkload sends:
 * the same payload words, stream ids 1..S in open order.
 */
std::vector<wire::Bytes>
wireFrameBodies(const wire::WireWorkload &w)
{
    std::vector<wire::Bytes> bodies;
    for (std::uint32_t f = 0; f < w.framesPerStream; ++f) {
        for (std::uint32_t s = 0; s < w.streams; ++s) {
            const auto sid = static_cast<std::uint16_t>(s + 1);
            std::uint64_t sm =
                w.fillSeed ^ (static_cast<std::uint64_t>(sid) << 32) ^ f;
            wire::Bytes body;
            wire::Writer wr(body);
            wire::StreamHeader hdr;
            hdr.sid = sid;
            hdr.type = wire::PacketType::Data;
            hdr.window = w.window;
            hdr.seq = f;
            hdr.encode(wr);
            for (std::uint32_t i = 0; i < w.payloadWords; ++i)
                wr.u32(static_cast<Word>(splitMix64(sm)));
            wr.u32(wire::crc32(body.data(), body.size()));
            bodies.push_back(std::move(body));
        }
    }
    return bodies;
}

/** Per-byte cost of COBS encode/decode and CRC32 on @p bodies. */
void
timeFraming(RepCtx &ctx, const std::vector<wire::Bytes> &bodies,
            std::map<std::string, double> &layer)
{
    std::size_t bytes = 0;
    for (const auto &b : bodies)
        bytes += b.size();
    std::vector<wire::Bytes> enc(bodies.size());
    for (std::size_t i = 0; i < bodies.size(); ++i)
        enc[i].reserve(wire::cobsMaxEncoded(bodies[i].size()));
    wire::Bytes dec;
    dec.reserve(256);
    std::uint32_t sink = 0;
    bool ok = true;

    SpanLog &s = ctx.spans;
    const auto a = Clock::now();
    for (std::size_t i = 0; i < bodies.size(); ++i)
        wire::cobsEncode(bodies[i].data(), bodies[i].size(), enc[i]);
    const auto b = Clock::now();
    for (const auto &e : enc) {
        dec.clear();
        ok = wire::cobsDecode(e.data(), e.size(), dec) && ok;
    }
    const auto c = Clock::now();
    for (const auto &body : bodies)
        sink ^= wire::crc32(body.data(), body.size());
    const auto d = Clock::now();
    s.add(s.nextId(), ctx.repSpan, ctx.rep, "wire.cobs_encode", ctx.sub,
          a, b);
    s.add(s.nextId(), ctx.repSpan, ctx.rep, "wire.cobs_decode", ctx.sub,
          b, c);
    s.add(s.nextId(), ctx.repSpan, ctx.rep, "wire.crc32", ctx.sub, c, d);

    // Every body ends in its own CRC, so the CRC of a whole body is
    // the CRC-32 residue; fold it so the loop cannot be elided.
    if (!ok || sink == 0x12345678u)
        std::fprintf(stderr, "perfbench: framing self-check failed\n");
    const double n = static_cast<double>(bytes);
    layer["wire.cobs_encode_ns_per_byte"] = nsBetween(a, b) / n;
    layer["wire.cobs_decode_ns_per_byte"] = nsBetween(b, c) / n;
    layer["wire.crc32_ns_per_byte"] = nsBetween(c, d) / n;
}

RepOut
runWireStream(RepCtx &ctx)
{
    const wire::WireWorkload w = wireWorkload(ctx.seed);
    RepOut out;
    auto stack = timedSetup(ctx, out, [&] {
        return std::make_unique<Stack>(twoNodeConfig(ctx.sub, ctx.seed));
    });

    Region region(ctx, *stack);
    const wire::WireRunResult r = wire::runWireWorkload(*stack, w);
    region.finish(out);

    const std::uint64_t want =
        static_cast<std::uint64_t>(kWireStreams) * kWireFrames;
    out.msgs = r.wire.dataDelivered;
    out.ok = r.run.dataOk && out.msgs == want && r.malformed == 0;

    Digest d;
    d.add(stack->network().stats().delivered);
    d.add(stack->sim().now());
    addBill(d, *stack);
    d.add(r.wire.framedBytes);
    d.add(r.wire.wireRetransmits);
    d.add(r.wire.wireAcks);
    d.add(r.crcRejects);
    d.add(out.msgs);
    out.digest = d.h;

    if (ctx.mode == Mode::Spanned) {
        const std::string s = toString(ctx.sub);
        const double frames = static_cast<double>(
            std::max<std::uint64_t>(out.msgs, 1));
        const double payloadBytes = frames * 4.0 * kWireWords;
        out.layer["wire.run_ns_per_frame." + s] =
            out.runS * 1e9 / frames;
        out.layer["wire.retransmits_per_frame." + s] =
            static_cast<double>(r.wire.wireRetransmits) / frames;
        out.layer["wire.acks_per_frame." + s] =
            static_cast<double>(r.wire.wireAcks) / frames;
        out.layer["wire.window_stalls_per_frame." + s] =
            static_cast<double>(r.wire.windowStalls) / frames;
        out.layer["wire.goodput_ratio." + s] =
            payloadBytes /
            static_cast<double>(std::max<std::uint64_t>(
                r.wire.framedBytes, 1));
        timeFraming(ctx, wireFrameBodies(w), out.layer);
    }
    return out;
}

// ---------------- bare fabric probe ----------------

/**
 * The am_single packet train through the substrate alone: a 2-node
 * Stack's network with node 1's NI sink replaced by a counter, so
 * neither the NI nor CMAM is on the path.
 */
RepOut
runFabricProbe(RepCtx &ctx)
{
    RepOut out;
    Stack stack(twoNodeConfig(ctx.sub, ctx.seed));
    std::uint64_t delivered = 0;
    Network &net = stack.network();
    Simulator &sim = stack.sim();
    net.attach(1, [&delivered](Packet &&) {
        ++delivered;
        return true;
    });
    std::uint64_t rng = ctx.seed;
    double injectNs = 0, runNs = 0;
    bool injected = true;
    for (std::uint32_t i = 0; i < kProbePackets; ++i) {
        std::vector<Word> words(4);
        for (Word &w : words)
            w = static_cast<Word>(splitMix64(rng));
        Packet pkt(0, 1, HwTag::UserAm, 0, std::move(words));
        const auto a = Clock::now();
        injected = net.inject(std::move(pkt)) && injected;
        const auto b = Clock::now();
        sim.run();
        const auto c = Clock::now();
        injectNs += nsBetween(a, b);
        runNs += nsBetween(b, c);
    }
    out.ok = injected && delivered == kProbePackets;
    const std::string s = toString(ctx.sub);
    out.layer["net.inject_ns." + s] = injectNs / kProbePackets;
    out.layer["sim.run_ns." + s] = runNs / kProbePackets;
    return out;
}

// ------------------------------------------------------------------
// Scheduling and statistics.
// ------------------------------------------------------------------

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/**
 * Median of the best twentieth of @p v: the smallest values, or the
 * largest when @p higherBetter.  The host this was tuned on runs for
 * seconds at a time at ~1/1.75 speed (another tenant on the core, or
 * on the memory bus); those phases cover from none to most of a run,
 * which moves a plain median by up to 40% between runs.  The best
 * twentieth needs only 1.5 s of quiet in a 30 s run, and is still the
 * median of a hundred or more reps.
 */
double
quietMedian(std::vector<double> v, bool higherBetter)
{
    if (v.empty())
        return 0;
    if (higherBetter)
        std::sort(v.begin(), v.end(), std::greater<>());
    else
        std::sort(v.begin(), v.end());
    v.resize(std::max<std::size_t>(1, v.size() / 20));
    return median(std::move(v));
}

/** Everything gathered for one substrate. */
struct UnitStats
{
    Substrate sub = Substrate::Cm5;
    std::optional<std::uint64_t> expect;
    std::optional<std::uint64_t> first;
    std::vector<double> rate;     ///< plain reps: msgs / run second
    std::vector<double> setup;    ///< plain reps: setup seconds
    std::vector<double> plainS;   ///< plain reps: run seconds
    std::vector<double> spannedS; ///< spanned reps: run seconds
    std::vector<double> profS;    ///< profiled reps: run seconds
    std::vector<std::uint64_t> allocs, events, packets, depth;
    std::uint64_t msgs = 0;
};

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string traceOut;
    std::map<std::string, std::uint64_t> expect;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: msgsim-perfbench --workload "
                 "am_single|incast|wire_stream [--seed N] "
                 "[--seconds S] [--trace 0|1] [--trace-out PATH] "
                 "[--expect SUBSTRATE=HEXDIGEST]...\n",
                 why);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        const std::string v = argv[++i];
        char *end = nullptr;
        if (a == "--workload") {
            o.workload = v;
        } else if (a == "--seed") {
            o.seed = std::strtoull(v.c_str(), &end, 0);
        } else if (a == "--seconds") {
            o.seconds = std::strtod(v.c_str(), &end);
        } else if (a == "--trace") {
            o.trace = v == "1";
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
        } else if (a == "--trace-out") {
            o.traceOut = v;
        } else if (a == "--expect") {
            const auto eq = v.find('=');
            Substrate sub = Substrate::Cm5;
            if (eq == std::string::npos ||
                !substrateFromString(v.substr(0, eq), sub))
                usage("--expect takes SUBSTRATE=HEXDIGEST");
            o.expect[v.substr(0, eq)] =
                std::strtoull(v.c_str() + eq + 1, &end, 16);
        } else {
            usage(("unknown option " + a).c_str());
        }
        if (end != nullptr && *end != '\0')
            usage(("malformed value for " + a).c_str());
    }
    if (o.workload.empty())
        usage("--workload is required");
    if (!(o.seconds > 0))
        usage("--seconds must be positive");
    return o;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("model name", 0) == 0) {
            const auto at = line.find_first_not_of(" \t:", 10);
            if (at != std::string::npos)
                return line.substr(at);
        }
    return "unknown";
}

std::string
compilerName()
{
#if defined(__clang__)
    return std::string("clang ") + __VERSION__;
#elif defined(__GNUC__)
    return std::string("gcc ") + __VERSION__;
#else
    return __VERSION__;
#endif
}

bool
sanitized()
{
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
    return true;
#else
    return false;
#endif
#else
    return false;
#endif
}

bool
optimized()
{
#if defined(__OPTIMIZE__) && defined(NDEBUG)
    return true;
#else
    return false;
#endif
}

/** JSON-safe copy of @p s (quotes and backslashes dropped). */
std::string
jsonText(const std::string &s)
{
    std::string out;
    for (char c : s)
        if (c != '"' && c != '\\' && static_cast<unsigned char>(c) >= 32)
            out += c;
    return out;
}

struct Metric
{
    double value;
    const char *unit;
};

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);

    RepOut (*workload)(RepCtx &) = nullptr;
    if (opt.workload == "am_single")
        workload = runAmSingle;
    else if (opt.workload == "incast")
        workload = runIncast;
    else if (opt.workload == "wire_stream")
        workload = runWireStream;
    else
        usage(("unknown workload " + opt.workload).c_str());

    std::vector<UnitStats> units;
    for (Substrate s : kSubstrates) {
        UnitStats u;
        u.sub = s;
        if (auto it = opt.expect.find(toString(s)); it != opt.expect.end())
            u.expect = it->second;
        units.push_back(std::move(u));
    }

    // Untraced runs reserve nothing, so peak_heap_mb is the workload's.
    SpanLog spans(opt.trace ? 1u << 16 : 0);
    hostprof::HostProfiler prof;
    /// Spanned-rep and probe layer values, by metric name.
    std::map<std::string, std::vector<double>> layer;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    double peakHeap = 0;
    std::uint32_t repNo = 0;

    const auto runRep = [&](UnitStats &u, Mode mode, bool keep) {
        const std::uint32_t rep = ++repNo;
        const std::uint32_t repSpan = spans.nextId();
        RepCtx ctx{u.sub, opt.seed, mode, spans, rep, repSpan, prof};
        // The rep's heap is measured from here: this loop's own sample
        // vectors grow with the run length and must not count.
        const double heap0 = heapInUseMb();
        const auto t0 = Clock::now();
        RepOut r = workload(ctx);
        if (mode == Mode::Spanned)
            spans.add(repSpan, 0, rep, opt.workload.c_str(), u.sub, t0,
                      Clock::now());

        ++attempted;
        bool good = r.ok;
        if (u.expect && r.digest != *u.expect)
            good = false;
        if (!u.first)
            u.first = r.digest;
        else if (r.digest != *u.first)
            good = false;
        if (!good) {
            ++failed;
            std::fprintf(stderr,
                         "perfbench: rep %u on %s failed (ok=%d digest "
                         "%016" PRIx64 ")\n",
                         rep, toString(u.sub), r.ok ? 1 : 0, r.digest);
        }
        if (!keep)
            return;
        u.msgs = r.msgs;
        if (mode == Mode::Plain) {
            u.rate.push_back(static_cast<double>(r.msgs) / r.runS);
            u.setup.push_back(r.setupS);
            u.plainS.push_back(r.runS);
            u.allocs.push_back(r.allocs);
            u.events.push_back(r.events);
            u.packets.push_back(r.packets);
            u.depth.push_back(r.maxDepth);
            peakHeap = std::max(peakHeap, r.heapMb - heap0);
        } else if (mode == Mode::Spanned) {
            u.spannedS.push_back(r.runS);
        } else {
            u.profS.push_back(r.runS);
        }
        for (const auto &[k, v] : r.layer)
            layer[k].push_back(v);
    };

    const auto runProbe = [&](UnitStats &u) {
        const std::uint32_t rep = ++repNo;
        RepCtx ctx{u.sub, opt.seed, Mode::Plain, spans, rep, 0, prof};
        RepOut r = runFabricProbe(ctx);
        ++attempted;
        if (!r.ok) {
            ++failed;
            std::fprintf(stderr, "perfbench: fabric probe on %s failed\n",
                         toString(u.sub));
        }
        for (const auto &[k, v] : r.layer)
            layer[k].push_back(v);
    };

    // Warm-up: one discarded (but checked) rep per substrate.
    for (UnitStats &u : units)
        runRep(u, Mode::Plain, false);

    const auto start = Clock::now();
    int rounds = 0;
    while (rounds < kMinRounds || secondsSince(start) < opt.seconds) {
        for (std::size_t k = 0; k < units.size(); ++k) {
            UnitStats &u = units[(k + rounds) % units.size()];
            if (!opt.trace) {
                runRep(u, Mode::Plain, true);
                continue;
            }
            // Alternate plain/spanned order so neither side always
            // runs on a warmer cache.
            if (rounds % 2 == 0) {
                runRep(u, Mode::Plain, true);
                runRep(u, Mode::Spanned, true);
            } else {
                runRep(u, Mode::Spanned, true);
                runRep(u, Mode::Plain, true);
            }
            runRep(u, Mode::Profiled, true);
            runProbe(u);
        }
        ++rounds;
    }

    // ---------------- metrics ----------------
    std::map<std::string, Metric> m;
    double setupS = 0;
    double plainSum = 0, spannedSum = 0, profSum = 0;
    bool countsStable = true;
    for (const UnitStats &u : units) {
        const std::string s = toString(u.sub);
        m["msgs_per_s." + s] = {quietMedian(u.rate, true), "1/s"};
        m["msgs_per_s_all_reps_median." + s] = {median(u.rate), "1/s"};
        m["reps." + s] = {static_cast<double>(u.rate.size()), "count"};
        setupS += quietMedian(u.setup, false);
        plainSum += quietMedian(u.plainS, false);
        spannedSum += quietMedian(u.spannedS, false);
        profSum += quietMedian(u.profS, false);

        const auto stable = [&](const std::vector<std::uint64_t> &v) {
            for (std::uint64_t x : v)
                if (x != v.front())
                    countsStable = false;
            return v.empty() ? 0.0 : static_cast<double>(v.front());
        };
        const double pkts = std::max(stable(u.packets), 1.0);
        m["proc.allocs_per_pkt." + s] = {stable(u.allocs) / pkts, "count"};
        m["sim.events_per_pkt." + s] = {stable(u.events) / pkts, "count"};
        m["sim.max_queue_depth." + s] = {stable(u.depth), "count"};
        m["sim.pkts_per_rep." + s] = {pkts, "count"};
        m["app.msgs_per_rep." + s] = {static_cast<double>(u.msgs),
                                      "count"};
    }
    for (const auto &[k, v] : layer) {
        if (k.find("_ns") != std::string::npos)
            m[k] = {quietMedian(v, false), "ns"};
        else
            m[k] = {median(v), k.find("ticks") != std::string::npos ? "ticks"
                               : k.find("ratio") != std::string::npos
                                   ? "ratio"
                                   : "count"};
    }
    m["setup_s"] = {setupS, "s"};
    m["peak_heap_mb"] = {peakHeap, "MB"};
    m["fail_frac"] = {attempted ? static_cast<double>(failed) /
                                      static_cast<double>(attempted)
                                : 1.0,
                      "ratio"};
    m["counts_stable"] = {countsStable ? 1.0 : 0.0, "bool"};
    if (opt.trace) {
        m["trace.overhead_ratio"] = {spannedSum / plainSum, "ratio"};
        m["hostprof.overhead_ratio"] = {profSum / plainSum, "ratio"};
        for (const auto &sub : prof.subsystems())
            m["hostprof.self_share." + sub.name] = {sub.share, "ratio"};
        m["trace.spans"] = {static_cast<double>(spans.size()), "count"};
        if (!opt.traceOut.empty() && !spans.write(opt.traceOut))
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         opt.traceOut.c_str());
    }

    // ---------------- report ----------------
    for (const auto &[k, v] : m)
        std::printf("%-40s %16.6g %s\n", k.c_str(), v.value, v.unit);

    std::string json = "{\"workload\":\"" + opt.workload + "\"";
    json += ",\"seed\":" + std::to_string(opt.seed);
    json += ",\"trace\":" + std::to_string(opt.trace ? 1 : 0);
    json += ",\"rounds\":" + std::to_string(rounds);
    json += ",\"attempted\":" + std::to_string(attempted);
    json += ",\"failed\":" + std::to_string(failed);
    json += ",\"digests\":{";
    for (std::size_t i = 0; i < units.size(); ++i) {
        char hex[32];
        std::snprintf(hex, sizeof hex, "%016" PRIx64,
                      units[i].first.value_or(0));
        json += std::string(i ? "," : "") + "\"" +
                toString(units[i].sub) + "\":\"" + hex + "\"";
    }
    json += "},\"provenance\":{\"build_type\":\"" PERFBENCH_BUILD_TYPE "\"";
    json += ",\"compiler\":\"" + jsonText(compilerName()) + "\"";
    json += ",\"cpu\":\"" + jsonText(cpuModel()) + "\"";
    json += ",\"nproc\":" + std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
    json += std::string(",\"optimized\":") +
            (optimized() ? "true" : "false");
    json += std::string(",\"sanitized\":") +
            (sanitized() ? "true" : "false");
    json += "},\"metrics\":{";
    bool firstMetric = true;
    for (const auto &[k, v] : m) {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g", v.value);
        json += std::string(firstMetric ? "" : ",") + "\"" + k +
                "\":{\"value\":" + buf + ",\"unit\":\"" + v.unit + "\"}";
        firstMetric = false;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return 0;
}
