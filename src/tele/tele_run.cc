#include "tele/tele_run.hh"

#include <algorithm>

#include "sim/log.hh"
#include "sim/trace_session.hh"
#include "tele/probes.hh"
#include "traffic/engine.hh"
#include "wire/wire_run.hh"

namespace msgsim::tele
{

namespace
{

/** Max occupancy/capacity over every capacity-bounded gauge track. */
double
peakFractionOf(const TeleSession &s)
{
    double peak = 0;
    for (std::size_t t = 0; t < s.tracks().size(); ++t) {
        const auto &tr = s.tracks()[t];
        if (tr.desc.kind != ProbeKind::Gauge || tr.desc.capacity <= 0)
            continue;
        peak = std::max(peak, s.peakValue(t) / tr.desc.capacity);
    }
    return peak;
}

void
fillTelemetry(ScenarioResult &r, const TeleSession &s,
              const ScenarioOptions &opt)
{
    r.snapshots = s.snapshots();
    r.trackCount = s.tracks().size();
    r.digest = s.tracksDigest();
    const BottleneckReport rep =
        buildReport(s, opt.windowTicks, opt.threshold);
    r.topResource = rep.topResourceLabel;
    r.saturatedWindows = rep.saturated.size();
    r.reportWindows = rep.windows;
    r.peakFraction = peakFractionOf(s);
}

/**
 * Incast through the traffic engine on a classic substrate: 15
 * senders fan 4 four-fragment messages each into node 0, whose NI
 * receive ring holds 64 packets and drains one packet per 2 ticks —
 * each send round parks 60 fragments in the ring (93.75%) before the
 * destination's poll empties it.
 */
ScenarioResult
runTrafficIncast(const ScenarioOptions &opt, TeleSession *tele)
{
    TrafficSpec spec;
    spec.pattern = TrafficPattern::Incast;
    spec.proto = TrafficProto::Am;
    spec.nodes = 16;
    spec.messagesPerNode = 4;
    spec.sizeWords = 8; // 4 fragments per message
    spec.seed = 7;
    spec.deliverGap = 2;

    StackConfig cfg = trafficStackConfig(spec, opt.substrate);
    cfg.recvCapacity = 64;
    Stack stack(cfg);
    TrafficEngine engine(stack);

    if (opt.trace)
        opt.trace->bindClock(&stack.sim());
    if (tele) {
        tele->bindClock(&stack.sim());
        registerSimProbes(*tele, stack.sim());
        registerStackProbes(*tele, stack);
        registerTrafficProbes(*tele, engine);
        tele->attach();
    }
    const TrafficResult res = engine.run(spec);
    if (tele) {
        tele->sampleAt(stack.sim().now());
        tele->detach();
    }

    ScenarioResult out;
    out.ok = res.ok;
    out.elapsed = res.elapsed;
    out.instrTotal = res.measuredGrandTotal();
    out.completions = res.timings.size();
    out.backpressure = res.deliveryRetries;
    const WindowedHistogram lh = res.latencyHistogram(0);
    out.latencyP50 = lh.total().percentile(50);
    out.latencyP95 = lh.total().percentile(95);
    out.latencyP99 = lh.total().percentile(99);
    if (tele)
        fillTelemetry(out, *tele, opt);
    return out;
}

/**
 * The same incast in verbs.  Phase one: 15 senders post 4
 * single-fragment messages each; the receiver never polls, so its
 * completion queue climbs to 60 of 64.  Phase two: one more message
 * per sender overflows the CQ — the NIC refuses the surplus
 * (cqOverflowStalls, RNR retry) and the queue sits pinned at 64/64
 * until a deliberately late simulated poll loop starts draining.
 */
ScenarioResult
runVerbsIncast(const ScenarioOptions &opt, TeleSession *tele)
{
    constexpr std::uint32_t kNodes = 16;
    constexpr std::uint32_t kPhase1 = 4; ///< messages/sender, phase 1
    constexpr std::uint32_t kPhase2 = 1; ///< messages/sender, phase 2
    constexpr Tick kFirstPoll = 400;     ///< CQ sits saturated till here
    constexpr Tick kPollGap = 50;

    StackConfig cfg = stackConfigFor(HostLayer::Verbs);
    cfg.nodes = kNodes;
    cfg.cqCapacity = 64;
    cfg.deliverGap = 2;
    Stack stack(cfg);
    if (opt.trace)
        opt.trace->bindClock(&stack.sim());
    const auto n = static_cast<std::uint32_t>(stack.dataWords());
    const std::uint32_t senders = kNodes - 1;
    const std::uint32_t perSender = kPhase1 + kPhase2;
    const std::uint32_t total = senders * perSender;

    std::vector<Word> qp(kNodes, 0);
    for (NodeId s = 1; s < kNodes; ++s)
        qp[s] = stack.connectQp(s, 0);

    // Receiver: register one arena, pre-post every receive.
    Node &recv = stack.node(0);
    const Addr rbuf = recv.mem().alloc(total * n);
    std::uint32_t recvDone = 0;
    stack.nic(0).setCompletionFn(
        [&recvDone](const RdmaNic::Completion &c) {
            if (c.kind == RdmaNic::Completion::Kind::Recv)
                ++recvDone;
        });
    {
        FeatureScope fs(recv.acct(), Feature::BaseCost);
        stack.nic(0).regMr(rbuf, total * n);
        std::uint32_t slot = 0;
        for (NodeId s = 1; s < kNodes; ++s)
            for (std::uint32_t m = 0; m < perSender; ++m, ++slot)
                stack.nic(0).postRecv(qp[s], rbuf + slot * n, n,
                                      slot);
    }

    // Senders: one registered buffer each, filled uncharged.
    std::vector<Addr> sbuf(kNodes, 0);
    for (NodeId s = 1; s < kNodes; ++s) {
        Node &nd = stack.node(s);
        sbuf[s] = nd.mem().alloc(perSender * n);
        fillWords(nd, sbuf[s], perSender * n, 0x7e1eULL ^ s);
        FeatureScope fs(nd.acct(), Feature::BaseCost);
        stack.nic(s).regMr(sbuf[s], perSender * n);
    }

    if (tele) {
        tele->bindClock(&stack.sim());
        registerSimProbes(*tele, stack.sim());
        registerStackProbes(*tele, stack);
        tele->attach();
    }
    const Tick t0 = stack.sim().now();

    // Phase 1: fill the receiver's CQ to the brink.
    for (std::uint32_t m = 0; m < kPhase1; ++m)
        for (NodeId s = 1; s < kNodes; ++s) {
            Node &nd = stack.node(s);
            FeatureScope fs(nd.acct(), Feature::BaseCost);
            if (!stack.nic(s).postSend(qp[s], sbuf[s] + m * n, n, m))
                msgsim_panic("tele verbs incast: sender CQ full");
        }
    stack.settle();

    // Phase 2: overflow it.  No settle here — the refused fragments
    // retry until the poll loop frees CQ slots.
    for (NodeId s = 1; s < kNodes; ++s) {
        Node &nd = stack.node(s);
        FeatureScope fs(nd.acct(), Feature::BaseCost);
        if (!stack.nic(s).postSend(qp[s], sbuf[s] + kPhase1 * n, n,
                                   kPhase1))
            msgsim_panic("tele verbs incast: sender CQ full");
    }
    // Node 0's simulated CQ-drain loop (the verbs progress thread).
    stack.startProgress(0, kFirstPoll, kPollGap, [&stack] {
        stack.nic(0).pollCq();
        return false;
    });
    stack.sim().runUntil(
        [&recvDone, total] { return recvDone == total; },
        50'000'000);
    stack.stopProgress();

    if (tele) {
        tele->sampleAt(stack.sim().now());
        tele->detach();
    }

    ScenarioResult out;
    out.ok = recvDone == total &&
             stack.nic(0).postedRecvCount() == 0;
    out.elapsed = stack.sim().now() - t0;
    double instr = 0;
    for (NodeId id = 0; id < kNodes; ++id)
        instr += static_cast<double>(
            stack.node(id).acct().counter().paperTotal());
    out.instrTotal = instr;
    out.completions = recvDone;
    out.backpressure = stack.nic(0).cqOverflowStalls();
    if (tele)
        fillTelemetry(out, *tele, opt);
    stack.nic(0).setCompletionFn(nullptr);
    return out;
}

/**
 * The multi-stream wire workload with withheld wire acks: window 4,
 * one ack per 4 frames, 16 frames per stream — every stream's
 * sliding window saturates and refills in waves.
 */
ScenarioResult
runWireScenario(const ScenarioOptions &opt, TeleSession *tele)
{
    StackConfig cfg;
    cfg.substrate = opt.substrate;
    cfg.nodes = 4;
    Stack stack(cfg);
    if (opt.trace)
        opt.trace->bindClock(&stack.sim());

    wire::WireWorkload w;
    w.streams = 4;
    w.framesPerStream = 16;
    w.payloadWords = 6;
    w.window = 4;
    w.ackEvery = 4;
    w.groupAck = 4;

    std::size_t shortLived = 0;
    if (tele) {
        tele->bindClock(&stack.sim());
        registerSimProbes(*tele, stack.sim());
        registerStackProbes(*tele, stack);
        w.onStart = [tele, &shortLived, &stack](
                        StreamProtocol &proto, wire::StreamMux &mux,
                        const std::vector<std::uint16_t> &) {
            (void)stack;
            shortLived = tele->tracks().size();
            registerChannelProbes(*tele, proto, mux.fwdChannel(),
                                  mux.sender(), mux.receiver());
            registerMuxProbes(*tele, mux);
        };
        w.onFinish = [tele, &shortLived,
                      &stack](wire::StreamMux &) {
            // Final flush while the mux still lives, then disarm the
            // probes that read it.
            tele->sampleAt(stack.sim().now());
            tele->retireProbesFrom(shortLived);
        };
        tele->attach();
    }
    const wire::WireRunResult res = wire::runWireWorkload(stack, w);
    if (tele)
        tele->detach();

    ScenarioResult out;
    out.ok = res.run.dataOk;
    out.elapsed = res.run.elapsed;
    out.instrTotal =
        static_cast<double>(res.run.counts.paperTotal());
    out.completions = res.wire.dataDelivered;
    out.backpressure = res.wire.windowStalls;
    if (tele)
        fillTelemetry(out, *tele, opt);
    return out;
}

/** The incast storm: verbs on a completion-queue fabric, else traffic. */
ScenarioResult
runIncast(const ScenarioOptions &opt, TeleSession *tele)
{
    return netFeatures(opt.substrate).completionQueue
               ? runVerbsIncast(opt, tele)
               : runTrafficIncast(opt, tele);
}

/** Every scenario: its name and its runner. */
constexpr struct
{
    const char *name;
    ScenarioResult (*run)(const ScenarioOptions &, TeleSession *);
} scenarios[] = {
    {"incast", runIncast},
    {"wire", runWireScenario},
};

} // namespace

std::vector<std::string>
scenarioNames()
{
    std::vector<std::string> names;
    for (const auto &s : scenarios)
        names.emplace_back(s.name);
    return names;
}

ScenarioResult
runScenario(const ScenarioOptions &opt, TeleSession *tele)
{
    for (const auto &s : scenarios)
        if (opt.scenario == s.name)
            return s.run(opt, tele);
    msgsim_fatal("unknown tele scenario '", opt.scenario, "'");
}

} // namespace msgsim::tele
