#include "protocols/layer_drivers.hh"

#include <functional>
#include <initializer_list>

#include "sim/log.hh"
#include "sim/rng.hh"

namespace msgsim
{

namespace
{

/** Event-mode polling period of the verbs and offload drivers. */
constexpr Tick kPollGap = 8;

bool
sameWords(Node &a, Addr abuf, Node &b, Addr bbuf, std::uint32_t words)
{
    for (std::uint32_t i = 0; i < words; ++i)
        if (a.mem().read(abuf + i) != b.mem().read(bbuf + i))
            return false;
    return true;
}

/** True when @p node's memory at @p buf holds exactly @p want. */
bool
holds(Node &node, Addr buf, const std::vector<Word> &want)
{
    for (std::size_t i = 0; i < want.size(); ++i)
        if (node.mem().read(buf + static_cast<Addr>(i)) != want[i])
            return false;
    return true;
}

/**
 * Install NIC handler @p h on @p layer: place the args at @p buf in
 * @p node's memory and raise @p flag.  No host instructions run at
 * @p node until its completion probe.
 */
void
installLanding(NicamLayer &layer, Node &node, Word h, Addr buf,
               Addr flag, const char *what)
{
    const bool offloaded = layer.installAmHandler(
        h, [&node, buf, flag](NodeId, Word,
                              const std::vector<Word> &args) {
            for (std::size_t i = 0; i < args.size(); ++i)
                node.mem().write(buf + static_cast<Addr>(i), args[i]);
            node.mem().write(flag, 1);
        });
    if (!offloaded)
        msgsim_panic(what, ": handler table full");
}

/** @p words / n; fatal unless it is a positive multiple of n. */
std::uint32_t
packetsOf(const char *what, std::uint32_t words, std::uint32_t n)
{
    if (words == 0 || words % n != 0)
        msgsim_fatal(what, " of ", words,
                     " words: not a multiple of packet size ", n);
    return words / n;
}

std::vector<Word>
seededWords(std::uint32_t words, std::uint64_t seed)
{
    std::vector<Word> out(words);
    for (Word &w : out)
        w = static_cast<Word>(splitMix64(seed));
    return out;
}

/**
 * Drive a verbs exchange to completion.  Settled mode settles and
 * polls each of @p pollers' CQs in turn; event mode runs a progress
 * loop on each until @p done.
 */
void
verbsComplete(Stack &stack, bool eventMode,
              std::initializer_list<NodeId> pollers,
              const std::function<bool()> &done)
{
    if (!eventMode) {
        for (NodeId id : pollers) {
            stack.settle();
            FeatureScope fs(stack.node(id).acct(), Feature::BaseCost);
            stack.nic(id).pollCq();
        }
        return;
    }
    for (NodeId id : pollers)
        stack.startProgress(id, kPollGap, kPollGap, [&stack, id] {
            stack.nic(id).pollCq();
            return false;
        });
    stack.sim().runUntil(done, 50'000'000);
    stack.stopProgress();
}

/**
 * Wait for an offloaded exchange: settled mode settles, then runs
 * @p probe once on node @p at; event mode runs it from the
 * simulated clock until it reports true.  Returns the final probe.
 */
bool
offloadComplete(Stack &stack, bool eventMode, NodeId at,
                const std::function<bool()> &probe)
{
    if (!eventMode) {
        stack.settle();
        FeatureScope fs(stack.node(at).acct(), Feature::BaseCost);
        return probe();
    }
    stack.startProgress(at, kPollGap, kPollGap, probe);
    const bool done = stack.sim().runUntil(
        [&stack, at] { return !stack.progressing(at); }, 50'000'000);
    stack.stopProgress();
    return done;
}

/**
 * Verbs one-way transfer of @p words as messages of @p msgWords,
 * work requests numbered from @p firstWr.
 */
RunResult
rdmaOneWay(Stack &stack, const RunParams &params, std::uint32_t words,
           std::uint32_t msgWords, Word firstWr)
{
    const auto n = static_cast<std::uint32_t>(stack.dataWords());
    const std::uint32_t messages = words / msgWords;
    Node &src = stack.node(params.src);
    Node &dst = stack.node(params.dst);
    RdmaNic &snic = stack.nic(params.src);
    RdmaNic &dnic = stack.nic(params.dst);

    const Word qp = stack.connectQp(params.src, params.dst);
    const Addr src_buf = src.mem().alloc(words);
    const Addr dst_buf = dst.mem().alloc(words);
    fillWords(src, src_buf, words, params.fillSeed);

    std::uint32_t recvDone = 0;
    dnic.setCompletionFn([&recvDone](const RdmaNic::Completion &c) {
        if (c.kind == RdmaNic::Completion::Kind::Recv)
            ++recvDone;
    });

    const RunFrame frame(stack, params.src, params.dst);
    {
        // One registration covers the whole buffer, so a single
        // message costs the same at any size: this is why the
        // per-packet software vanishes.  Each message still needs
        // its posted receive (the verbs per-message tax).
        FeatureScope fs(dst.acct(), Feature::BaseCost);
        dnic.regMr(dst_buf, words);
        for (std::uint32_t m = 0; m < messages; ++m)
            dnic.postRecv(qp, dst_buf + m * msgWords, msgWords,
                          firstWr + m);
    }
    {
        FeatureScope fs(src.acct(), Feature::BaseCost);
        snic.regMr(src_buf, words);
        for (std::uint32_t m = 0; m < messages; ++m) {
            int attempts = 0;
            while (!snic.postSend(qp, src_buf + m * msgWords, msgWords,
                                  firstWr + m)) {
                // Send CQ full: harvest completions and retry.
                if (++attempts > 1000)
                    msgsim_panic("rdma send livelock");
                snic.pollCq();
            }
        }
    }
    verbsComplete(stack, params.eventMode, {params.dst},
                  [&recvDone, messages] { return recvDone == messages; });
    {
        FeatureScope fs(src.acct(), Feature::BaseCost);
        snic.pollCq(); // harvest the send completions
    }

    RunResult res;
    frame.finish(res);
    res.packets = words / n;
    res.dataOk = recvDone == messages &&
                 sameWords(src, src_buf, dst, dst_buf, words);
    dnic.setCompletionFn(nullptr);
    return res;
}

} // namespace

void
fillWords(Node &node, Addr buf, std::uint32_t words, std::uint64_t seed)
{
    for (std::uint32_t i = 0; i < words; ++i)
        node.mem().write(buf + i, static_cast<Word>(splitMix64(seed)));
}

RunResult
runRdmaSingle(Stack &stack, const RunParams &params)
{
    const auto n = static_cast<std::uint32_t>(stack.dataWords());
    return rdmaOneWay(stack, params, n, n, 1);
}

RunResult
runRdmaAm4(Stack &stack, const RunParams &params)
{
    const auto n = static_cast<std::uint32_t>(stack.dataWords());
    Node &src = stack.node(params.src);
    Node &dst = stack.node(params.dst);
    RdmaNic &snic = stack.nic(params.src);
    RdmaNic &dnic = stack.nic(params.dst);

    const Word qp = stack.connectQp(params.src, params.dst);
    const Addr arg_buf = src.mem().alloc(n);  // request payload
    const Addr rep_buf = src.mem().alloc(n);  // reply lands here
    const Addr req_buf = dst.mem().alloc(n);  // request lands here
    const Addr hrep_buf = dst.mem().alloc(n); // handler's reply source
    fillWords(src, arg_buf, n, params.fillSeed);

    // The destination's completion handler: consume the request,
    // build the reply (args + 1) and send it back on the same QP.
    int served = 0;
    dnic.setCompletionFn([&](const RdmaNic::Completion &c) {
        if (c.kind != RdmaNic::Completion::Kind::Recv)
            return;
        FeatureScope fs(dst.acct(), Feature::BaseCost);
        Processor &p = dst.proc();
        for (std::uint32_t i = 0; i < n; ++i) {
            const Word w = p.loadWord(req_buf + i);
            p.regOps(1);
            p.storeWord(hrep_buf + i, w + 1);
        }
        dnic.regMr(hrep_buf, n);
        dnic.postSend(qp, hrep_buf, n, 2);
        ++served;
    });
    int replied = 0;
    snic.setCompletionFn([&replied](const RdmaNic::Completion &c) {
        if (c.kind == RdmaNic::Completion::Kind::Recv)
            ++replied;
    });

    const RunFrame frame(stack, params.src, params.dst);
    {
        FeatureScope fs(dst.acct(), Feature::BaseCost);
        dnic.regMr(req_buf, n);
        dnic.postRecv(qp, req_buf, n, 1);
    }
    {
        FeatureScope fs(src.acct(), Feature::BaseCost);
        snic.regMr(rep_buf, n);
        snic.postRecv(qp, rep_buf, n, 2);
        snic.regMr(arg_buf, n);
        snic.postSend(qp, arg_buf, n, 1);
    }
    // The destination's poll takes the request in and sends the
    // reply; the source's takes the reply and the send completion.
    verbsComplete(stack, params.eventMode, {params.dst, params.src},
                  [&replied] { return replied > 0; });

    RunResult res;
    frame.finish(res);
    res.packets = 2;
    res.dataOk = served == 1 && replied == 1;
    for (std::uint32_t i = 0; res.dataOk && i < n; ++i)
        if (src.mem().read(rep_buf + i) !=
            src.mem().read(arg_buf + i) + 1)
            res.dataOk = false;
    snic.setCompletionFn(nullptr);
    dnic.setCompletionFn(nullptr);
    return res;
}

RunResult
runRdmaFinite(Stack &stack, const RunParams &params)
{
    const auto n = static_cast<std::uint32_t>(stack.dataWords());
    packetsOf("rdma finite transfer", params.words, n);
    return rdmaOneWay(stack, params, params.words, params.words, 1);
}

RunResult
runRdmaStream(Stack &stack, const RunParams &params)
{
    const auto n = static_cast<std::uint32_t>(stack.dataWords());
    packetsOf("rdma stream", params.words, n);
    return rdmaOneWay(stack, params, params.words, n, 0);
}

RunResult
runNicamSingle(Stack &stack, const RunParams &params)
{
    const auto n = static_cast<std::uint32_t>(stack.dataWords());
    Node &dst = stack.node(params.dst);
    NicamLayer &dl = stack.offload(params.dst);

    const Addr dst_buf = dst.mem().alloc(n);
    const Addr flag = dst.mem().alloc(1);
    const std::vector<Word> payload = seededWords(n, params.fillSeed);

    const Word h = 5;
    installLanding(dl, dst, h, dst_buf, flag, "nicam single");

    const RunFrame frame(stack, params.src, params.dst, true);
    {
        FeatureScope fs(stack.node(params.src).acct(), Feature::BaseCost);
        stack.offload(params.src).amSend(params.dst, h, payload);
    }
    const bool done = offloadComplete(stack, params.eventMode, params.dst,
                                      [&] { return dl.probeFlag(flag); });

    RunResult res;
    frame.finish(res);
    res.packets = 1;
    res.dataOk = done && holds(dst, dst_buf, payload);
    return res;
}

RunResult
runNicamAm4(Stack &stack, const RunParams &params)
{
    const auto n = static_cast<std::uint32_t>(stack.dataWords());
    Node &src = stack.node(params.src);
    NicamLayer &sl = stack.offload(params.src);
    NicamLayer &dl = stack.offload(params.dst);

    const Addr rep_buf = src.mem().alloc(n);
    const Addr flag = src.mem().alloc(1);
    const std::vector<Word> args = seededWords(n, params.fillSeed);

    // Request handler runs on the destination NIC and injects the
    // reply from there: the destination host never executes one
    // instruction for this round trip.
    const Word hReq = 5, hRep = 6;
    if (!dl.installAmHandler(
            hReq, [&dl, hRep, srcId = params.src](
                      NodeId, Word, const std::vector<Word> &a) {
                std::vector<Word> reply(a.size());
                for (std::size_t i = 0; i < a.size(); ++i)
                    reply[i] = a[i] + 1;
                dl.nicInject(srcId, hRep, reply);
            }))
        msgsim_panic("nicam am4: handler table full");
    installLanding(sl, src, hRep, rep_buf, flag, "nicam am4");

    const RunFrame frame(stack, params.src, params.dst, true);
    {
        FeatureScope fs(src.acct(), Feature::BaseCost);
        sl.amSend(params.dst, hReq, args);
    }
    const bool done = offloadComplete(stack, params.eventMode, params.src,
                                      [&] { return sl.probeFlag(flag); });

    RunResult res;
    frame.finish(res);
    res.packets = 2;
    res.dataOk = done;
    for (std::uint32_t i = 0; res.dataOk && i < n; ++i)
        if (src.mem().read(rep_buf + i) != args[i] + 1)
            res.dataOk = false;
    return res;
}

RunResult
runNicamFinite(Stack &stack, const RunParams &params)
{
    const auto n = static_cast<std::uint32_t>(stack.dataWords());
    const std::uint32_t packets =
        packetsOf("nicam finite transfer", params.words, n);
    Node &src = stack.node(params.src);
    Node &dst = stack.node(params.dst);
    NicamLayer &dl = stack.offload(params.dst);

    const Word sid = 3;
    const Addr src_buf = src.mem().alloc(params.words);
    const Addr dst_buf = dst.mem().alloc(params.words);
    fillWords(src, src_buf, params.words, params.fillSeed);

    const RunFrame frame(stack, params.src, params.dst, true);
    {
        FeatureScope fs(dst.acct(), Feature::BaseCost);
        if (!dl.postXfer(sid, dst_buf, params.words))
            msgsim_panic("nicam finite: offload table full");
    }
    {
        FeatureScope fs(src.acct(), Feature::BaseCost);
        stack.offload(params.src).xferSend(params.dst, sid, src_buf,
                                           params.words);
    }
    // Settled, the host asks xferDone(); its progress loop reads the
    // completion flag directly.
    const Addr flag = dl.xferFlagAddr(sid);
    const bool done = offloadComplete(
        stack, params.eventMode, params.dst, [&] {
            return params.eventMode ? dl.probeFlag(flag)
                                    : dl.xferDone(sid);
        });

    RunResult res;
    frame.finish(res);
    res.packets = packets;
    res.dataOk =
        done && sameWords(src, src_buf, dst, dst_buf, params.words);
    return res;
}

RunResult
runNicamStream(Stack &stack, const RunParams &params)
{
    const auto n = static_cast<std::uint32_t>(stack.dataWords());
    const std::uint32_t messages =
        packetsOf("nicam stream", params.words, n);
    Node &src = stack.node(params.src);
    Node &dst = stack.node(params.dst);
    NicamLayer &dl = stack.offload(params.dst);

    const Word chan = 7;
    const Addr src_buf = src.mem().alloc(params.words);
    const Addr ring = dst.mem().alloc(params.words);
    fillWords(src, src_buf, params.words, params.fillSeed);
    if (!dl.openStream(chan, ring, messages))
        msgsim_panic("nicam stream: offload table full");

    std::vector<Word> received;

    const RunFrame frame(stack, params.src, params.dst, true);
    {
        FeatureScope fs(src.acct(), Feature::BaseCost);
        for (std::uint32_t m = 0; m < messages; ++m) {
            std::vector<Word> pkt(n);
            for (std::uint32_t i = 0; i < n; ++i)
                pkt[i] = src.mem().read(src_buf + m * n + i);
            stack.offload(params.src).streamSend(params.dst, chan, pkt);
        }
    }
    // Harvest until every message has landed.
    offloadComplete(stack, params.eventMode, params.dst, [&] {
        dl.streamHarvest(chan, received);
        return received.size() >= params.words;
    });

    RunResult res;
    frame.finish(res);
    res.packets = messages;
    res.dataOk =
        received.size() == params.words && holds(src, src_buf, received);
    return res;
}

} // namespace msgsim
