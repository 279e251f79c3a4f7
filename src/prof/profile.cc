#include "prof/profile.hh"

#include <cstdio>
#include <memory>

#include "prof/profiler.hh"
#include "protocols/finite_xfer.hh"
#include "protocols/rpc.hh"
#include "protocols/single_packet.hh"
#include "protocols/stream.hh"
#include "sim/log.hh"
#include "sim/rng.hh"
#include "sim/trace_session.hh"
#include "wire/wire_run.hh"

namespace msgsim::prof
{

namespace
{

/**
 * The am4 round trip on the CMAM stack: one RPC call (request +
 * reply, both single packets), handler adds one to each word.
 */
RunResult
runAm4Round(Stack &stack)
{
    RpcEngine rpc(stack);
    const Word proc = 3;
    rpc.registerProcedure(
        1, proc, [](NodeId, const std::vector<Word> &req) {
            std::vector<Word> rep(req);
            for (Word &w : rep)
                w += 1;
            return rep;
        });

    RunResult res;
    const RunFrame frame(stack, 0, 1);
    const std::vector<Word> request{11, 22};
    const std::vector<Word> reply =
        rpc.callSync(0, 1, proc, request);
    frame.finish(res);
    res.packets = 2;
    // The reply packet pads its payload to the fixed packet size;
    // only the request-length prefix is meaningful.
    res.dataOk = reply.size() >= request.size();
    for (std::size_t i = 0; res.dataOk && i < request.size(); ++i)
        if (reply[i] != request[i] + 1)
            res.dataOk = false;
    return res;
}

/** Picks the payload words of the verbs and offload exchanges. */
constexpr std::uint64_t kFillSeed = 0x11d0'beefULL;

/**
 * The am4 round trip in verbs: the request and the reply each land in
 * a posted receive, and the destination's completion handler builds
 * the reply (args + 1) and sends it back.
 */
RunResult
runVerbsAm4(Stack &stack, const ProfConfig &)
{
    const auto n = static_cast<std::uint32_t>(stack.dataWords());
    Node &src = stack.node(0);
    Node &dst = stack.node(1);
    const Addr arg_buf = src.mem().alloc(n);  // request payload
    const Addr rep_buf = src.mem().alloc(n);  // reply lands here
    const Addr req_buf = dst.mem().alloc(n);  // request lands here
    const Addr hrep_buf = dst.mem().alloc(n); // handler's reply source
    fillWords(src, arg_buf, n, kFillSeed);

    int served = 0;
    int replied = 0;
    RunResult res;
    const RunFrame frame(stack, 0, 1);
    stack.postTransfer(0, 1, 1, req_buf, n, [&](Word) {
        FeatureScope fs(dst.acct(), Feature::BaseCost);
        Processor &p = dst.proc();
        for (std::uint32_t i = 0; i < n; ++i) {
            const Word w = p.loadWord(req_buf + i);
            p.regOps(1);
            p.storeWord(hrep_buf + i, w + 1);
        }
        stack.sendTransfer(1, 0, 2, hrep_buf, n);
        ++served;
    });
    stack.postTransfer(1, 0, 2, rep_buf, n,
                       [&replied](Word) { ++replied; });
    {
        FeatureScope fs(src.acct(), Feature::BaseCost);
        stack.sendTransfer(0, 1, 1, arg_buf, n);
    }
    // The destination's CQ poll takes the request in and sends the
    // reply; the source's takes the reply and the send completion.
    for (const NodeId id : {NodeId{1}, NodeId{0}}) {
        stack.settle();
        FeatureScope fs(stack.node(id).acct(), Feature::BaseCost);
        stack.nic(id).pollCq();
    }
    frame.finish(res);
    res.packets = 2;
    res.dataOk = served == 1 && replied == 1;
    for (std::uint32_t i = 0; res.dataOk && i < n; ++i)
        if (src.mem().read(rep_buf + i) != src.mem().read(arg_buf + i) + 1)
            res.dataOk = false;
    return res;
}

/**
 * One active message from node 0, dispatched on node 1's NIC, which
 * places it and raises a flag the host probes.  With @p reply (am4)
 * the NIC answers instead (args + 1) and node 0's NIC lands the
 * answer: no host instruction runs at node 1 either way.
 */
RunResult
runOffloadAm(Stack &stack, bool reply)
{
    const auto n = static_cast<std::uint32_t>(stack.dataWords());
    std::vector<Word> args(n);
    std::uint64_t seed = kFillSeed;
    for (Word &w : args)
        w = static_cast<Word>(splitMix64(seed));
    const NodeId lander = reply ? 0 : 1;
    Memory &mem = stack.node(lander).mem();
    const Addr buf = mem.alloc(n);
    const Addr flag = mem.alloc(1);
    const Word h = 5;
    const Word hReply = 6;
    bool installed = stack.offload(lander).installAmHandler(
        reply ? hReply : h,
        [&mem, buf, flag](NodeId, Word, const std::vector<Word> &a) {
            for (std::size_t i = 0; i < a.size(); ++i)
                mem.write(buf + static_cast<Addr>(i), a[i]);
            mem.write(flag, 1);
        });
    if (reply) {
        NicamLayer &nic = stack.offload(1);
        installed &= nic.installAmHandler(
            h, [&nic, hReply](NodeId from, Word,
                              const std::vector<Word> &a) {
                std::vector<Word> answer(a);
                for (Word &w : answer)
                    w += 1;
                nic.nicInject(from, hReply, answer);
            });
    }
    if (!installed)
        msgsim_panic("offload am: handler table full");

    RunResult res;
    const RunFrame frame(stack, 0, 1);
    {
        FeatureScope fs(stack.node(0).acct(), Feature::BaseCost);
        stack.offload(0).amSend(1, h, args);
    }
    stack.settle();
    {
        FeatureScope fs(stack.node(lander).acct(), Feature::BaseCost);
        res.dataOk = stack.offload(lander).probeFlag(flag);
    }
    frame.finish(res);
    res.packets = reply ? 2 : 1;
    for (std::uint32_t i = 0; res.dataOk && i < n; ++i)
        if (mem.read(buf + i) != args[i] + (reply ? 1 : 0))
            res.dataOk = false;
    return res;
}

using Driver = RunResult (*)(Stack &, const ProfConfig &);

/** The finite-sequence engine on @p cfg's volume. */
RunResult
runXfer(Stack &stack, const ProfConfig &cfg)
{
    FiniteXfer fx(stack);
    FiniteXferParams p;
    p.words = cfg.words;
    return fx.run(p);
}

/** The indefinite-sequence engine on @p cfg's volume. */
RunResult
runStream(Stack &stack, const ProfConfig &cfg)
{
    StreamProtocol sp(stack);
    StreamParams p;
    p.words = cfg.words;
    p.groupAck = cfg.groupAck;
    return sp.run(p);
}

/** One (host layer, protocol) cell of the driver table. */
struct DriverEntry
{
    HostLayer layer;
    const char *protocol;
    Driver run;
};

/**
 * Which driver runs each protocol on each host layer.  The wire
 * layer rides CMAM only: its framing cost model flips on the fabric
 * itself, so the substrate x feature comparison holds the protocol
 * machinery constant.
 */
constexpr DriverEntry drivers[] = {
    {HostLayer::Cmam, "single",
     [](Stack &s, const ProfConfig &) -> RunResult {
         return runSinglePacket(s, SinglePacketParams{});
     }},
    {HostLayer::Cmam, "am4",
     [](Stack &s, const ProfConfig &) { return runAm4Round(s); }},
    {HostLayer::Cmam, "xfer", runXfer},
    {HostLayer::Cmam, "stream", runStream},
    {HostLayer::Cmam, "wire",
     [](Stack &s, const ProfConfig &cfg) {
         wire::WireWorkload w;
         w.groupAck = cfg.groupAck;
         w.framesPerStream =
             cfg.words < w.streams * w.payloadWords
                 ? 1
                 : cfg.words / (w.streams * w.payloadWords);
         return wire::runWireWorkload(s, w).run;
     }},
    {HostLayer::Hl, "xfer", runXfer},
    {HostLayer::Hl, "stream", runStream},
    // verbs' single message is a one-packet transfer.
    {HostLayer::Verbs, "single",
     [](Stack &s, const ProfConfig &) {
         FiniteXfer fx(s);
         FiniteXferParams p;
         p.words = static_cast<std::uint32_t>(s.dataWords());
         return fx.run(p);
     }},
    {HostLayer::Verbs, "am4", runVerbsAm4},
    {HostLayer::Verbs, "xfer", runXfer},
    {HostLayer::Verbs, "stream", runStream},
    {HostLayer::Offload, "single",
     [](Stack &s, const ProfConfig &) { return runOffloadAm(s, false); }},
    {HostLayer::Offload, "am4",
     [](Stack &s, const ProfConfig &) { return runOffloadAm(s, true); }},
    {HostLayer::Offload, "xfer", runXfer},
    {HostLayer::Offload, "stream", runStream},
};

/** The driver table's entry for (@p layer, @p protocol), or null. */
const DriverEntry *
findDriver(HostLayer layer, const std::string &protocol)
{
    for (const DriverEntry &d : drivers)
        if (d.layer == layer && protocol == d.protocol)
            return &d;
    return nullptr;
}

/** True when @p s's own host layer is a 2020s one (verbs, offload). */
bool
isModern(Substrate s)
{
    const HostLayer l = nativeLayer(s);
    return l == HostLayer::Verbs || l == HostLayer::Offload;
}

} // namespace

std::vector<std::string>
protocols()
{
    // CMAM runs every protocol, so its rows name them all.
    std::vector<std::string> names;
    for (const DriverEntry &d : drivers)
        if (d.layer == HostLayer::Cmam)
            names.emplace_back(d.protocol);
    return names;
}

RunResult
runProtocol(const ProfConfig &cfg,
            const std::function<void(Machine &)> &onStack)
{
    // The fabric's own layer runs the protocol when it has a driver
    // for it; CMAM runs everything else.
    StackConfig sc;
    sc.substrate = cfg.substrate;
    sc.layer = nativeLayer(cfg.substrate);
    const DriverEntry *d = findDriver(sc.layer, cfg.protocol);
    if (d == nullptr) {
        sc.layer = HostLayer::Cmam;
        d = findDriver(sc.layer, cfg.protocol);
    }
    if (d == nullptr)
        msgsim_fatal("unknown protocol '", cfg.protocol, "'");
    sc.nodes = cfg.nodes;
    sc.dataWords = cfg.dataWords;
    Stack stack(sc);
    if (onStack)
        onStack(stack.machine());
    RunResult res = d->run(stack, cfg);
    res.dispatchOps = stack.dispatchOps(1);
    return res;
}

ProfRun
runProfiled(const ProfConfig &cfg)
{
    // Fold spans and flows into the caller's timeline when one is
    // attached; otherwise attach a private session for the run.
    std::unique_ptr<TraceSession> privateSession;
    TraceSession *ts = TraceSession::current();
    if (ts == nullptr) {
        privateSession = std::make_unique<TraceSession>();
        privateSession->attach();
        ts = privateSession.get();
    }
    LineageSession lineage;
    lineage.attach();
    CostProfiler profiler(toString(cfg.substrate));
    ts->setSpanObserver(&profiler);

    ProfRun out;
    out.result = runProtocol(cfg, [&](Machine &m) {
        ts->bindClock(&m.sim());
        for (NodeId n = 0; n < m.nodeCount(); ++n)
            profiler.bindNode(n, &m.node(n).proc().acct());
    });

    // The stack is gone: unbind the clock before anything (e.g. an
    // obs::Scope export) asks the session for "now".
    ts->setSpanObserver(nullptr);
    ts->bindClock(nullptr);
    lineage.exportTo(*ts);
    out.folded = profiler.foldedStacks();
    out.waterfall = lineage.waterfall();
    out.packetsTracked = lineage.packetsTracked();
    out.lineageEdges = lineage.edges().size();
    return out;
}

Differential
differential(const ProfConfig &primaryCfg, const ProfRun &primary,
             const ProfConfig &baselineCfg, const ProfRun &baseline)
{
    Differential d;
    d.primaryCfg = primaryCfg;
    d.baselineCfg = baselineCfg;
    d.primaryTotal = primary.result.counts.paperTotal();
    d.baselineTotal = baseline.result.counts.paperTotal();

    d.modern = isModern(primaryCfg.substrate) ||
               isModern(baselineCfg.substrate);

    auto statusOf = [](std::uint64_t p, std::uint64_t b) {
        if (p == 0 && b == 0)
            return std::string("unchanged");
        if (b * 10 <= p)
            return std::string("vanishes");
        if ((b > p ? b - p : p - b) * 10 <= p)
            return std::string("unchanged");
        if (p * 10 <= b)
            return std::string("appears");
        return std::string(b < p ? "reduced" : "increased");
    };

    std::vector<Feature> feats = {
        Feature::BaseCost,
        Feature::BufferMgmt,
        Feature::InOrderDelivery,
        Feature::FaultTolerance,
    };
    if (d.modern) {
        // The costs 2020s hardware charges instead: harvesting the
        // completion queue and registering memory with the NIC —
        // plus the wire layer's framing bill, which the rdma NIC
        // absorbs (zero-copy gather + inline CRC) while the software
        // substrates pay per byte.
        feats.push_back(Feature::CompletionPoll);
        feats.push_back(Feature::Registration);
        feats.push_back(Feature::Framing);
    }
    for (Feature feat : feats) {
        DiffRow row;
        row.feature = feat;
        row.primary = primary.result.counts.featureTotal(feat);
        row.baseline = baseline.result.counts.featureTotal(feat);
        row.status = statusOf(row.primary, row.baseline);
        d.rows.push_back(std::move(row));
    }
    if (d.modern) {
        d.primaryDispatch = primary.result.dispatchOps;
        d.baselineDispatch = baseline.result.dispatchOps;
        d.dispatchStatus =
            statusOf(d.primaryDispatch, d.baselineDispatch);
    }
    return d;
}

std::string
Differential::markdown() const
{
    auto col = [](const ProfConfig &cfg) {
        return std::string(toString(cfg.substrate)) + "/" +
               cfg.protocol;
    };
    std::string out;
    char line[200];
    std::snprintf(line, sizeof(line),
                  "| feature | %s | %s | delta | status |\n",
                  col(primaryCfg).c_str(), col(baselineCfg).c_str());
    out += line;
    out += "|---|---:|---:|---:|---|\n";
    for (const DiffRow &row : rows) {
        const long long delta =
            static_cast<long long>(row.baseline) -
            static_cast<long long>(row.primary);
        std::snprintf(line, sizeof(line),
                      "| %s | %llu | %llu | %+lld | %s |\n",
                      toString(row.feature),
                      static_cast<unsigned long long>(row.primary),
                      static_cast<unsigned long long>(row.baseline),
                      delta, row.status.c_str());
        out += line;
    }
    if (modern) {
        const long long ddelta =
            static_cast<long long>(baselineDispatch) -
            static_cast<long long>(primaryDispatch);
        std::snprintf(
            line, sizeof(line),
            "| dispatch (host) | %llu | %llu | %+lld | %s |\n",
            static_cast<unsigned long long>(primaryDispatch),
            static_cast<unsigned long long>(baselineDispatch), ddelta,
            dispatchStatus.c_str());
        out += line;
    }
    const long long tdelta = static_cast<long long>(baselineTotal) -
                             static_cast<long long>(primaryTotal);
    std::snprintf(line, sizeof(line),
                  "| **total** | **%llu** | **%llu** | %+lld | |\n",
                  static_cast<unsigned long long>(primaryTotal),
                  static_cast<unsigned long long>(baselineTotal),
                  tdelta);
    out += line;
    return out;
}

Json
Differential::toJson() const
{
    auto side = [](const ProfConfig &cfg, std::uint64_t total) {
        Json j = Json::object();
        j.set("protocol", cfg.protocol);
        j.set("substrate", toString(cfg.substrate));
        j.set("nodes", std::uint64_t(cfg.nodes));
        j.set("data_words", cfg.dataWords);
        j.set("words", std::uint64_t(cfg.words));
        j.set("paper_total", total);
        return j;
    };
    Json doc = Json::object();
    doc.set("primary", side(primaryCfg, primaryTotal));
    doc.set("baseline", side(baselineCfg, baselineTotal));
    Json features = Json::array();
    for (const DiffRow &row : rows) {
        Json j = Json::object();
        j.set("feature", featureSlug(row.feature));
        j.set("primary", row.primary);
        j.set("baseline", row.baseline);
        j.set("status", row.status);
        features.push(std::move(j));
    }
    doc.set("features", std::move(features));
    if (modern) {
        Json j = Json::object();
        j.set("primary", primaryDispatch);
        j.set("baseline", baselineDispatch);
        j.set("status", dispatchStatus);
        doc.set("dispatch_ops", std::move(j));
    }
    return doc;
}

} // namespace msgsim::prof
