#include "protocols/rpc.hh"

#include "sim/log.hh"

namespace msgsim
{

RpcEngine::RpcEngine(Stack &stack) : stack_(stack)
{
    const std::uint32_t n = stack_.machine().nodeCount();
    reqHandler_.resize(n);
    replyHandler_.resize(n);
    for (NodeId id = 0; id < n; ++id) {
        reqHandler_[id] = stack_.cmam(id).registerHandler(
            [this, id](NodeId from, const std::vector<Word> &args) {
                onRequest(id, from, args);
            });
        replyHandler_[id] = stack_.cmam(id).registerHandler(
            [this, id](NodeId from, const std::vector<Word> &args) {
                onReply(id, from, args);
            });
    }
}

void
RpcEngine::registerProcedure(NodeId server, Word proc, RpcHandler fn)
{
    procedures_[{server, proc}] = std::move(fn);
}

RpcEngine::CallHandle
RpcEngine::call(NodeId client, NodeId server, Word proc,
                const std::vector<Word> &request)
{
    if (request.size() > 2)
        msgsim_fatal("rpc request limited to 2 payload words (got ",
                     request.size(), ")");
    const CallHandle h = nextCall_++;
    calls_[h].client = client;

    // Request AM payload: [callId, proc, req...].
    std::vector<Word> args{h, proc};
    for (Word w : request)
        args.push_back(w);
    Node &node = stack_.node(client);
    FeatureScope fs(node.acct(), Feature::BaseCost);
    stack_.cmam(client).am4(server, reqHandler_[server], args);
    return h;
}

void
RpcEngine::onRequest(NodeId self, NodeId from,
                     const std::vector<Word> &args)
{
    Node &node = stack_.node(self);
    Processor &p = node.proc();
    // Demultiplex (call id, procedure) and marshal the reply.
    p.regOps(3);
    const Word call_id = args.at(0);
    const Word proc = args.at(1);
    auto it = procedures_.find({self, proc});
    if (it == procedures_.end())
        msgsim_panic("rpc: node ", self, " serves no procedure ",
                     proc);
    const std::vector<Word> request(args.begin() + 2, args.end());
    std::vector<Word> result = it->second(from, request);
    if (result.size() > 3)
        msgsim_fatal("rpc reply limited to 3 payload words");

    std::vector<Word> reply{call_id};
    for (Word w : result)
        reply.push_back(w);
    FeatureScope fs(node.acct(), Feature::BaseCost);
    // The reply travels the reply network (footnote 6): it can always
    // drain past backed-up requests, making the round trip safe.
    stack_.cmam(self).sendTagged(
        HwTag::UserAm, from,
        hdr::pack(static_cast<std::uint32_t>(replyHandler_[from]), 0),
        reply, 4, /*vnet=*/1);
}

void
RpcEngine::onReply(NodeId self, NodeId from,
                   const std::vector<Word> &args)
{
    (void)self;
    (void)from;
    const Word call_id = args.at(0);
    auto it = calls_.find(call_id);
    if (it == calls_.end())
        msgsim_panic("rpc: reply for unknown call ", call_id);
    it->second.reply.assign(args.begin() + 1, args.end());
    it->second.done = true;
}

bool
RpcEngine::done(CallHandle h) const
{
    return calls_.at(h).done;
}

const std::vector<Word> &
RpcEngine::reply(CallHandle h) const
{
    const Pending &p = calls_.at(h);
    if (!p.done)
        msgsim_panic("rpc: reply() before completion");
    return p.reply;
}

bool
RpcEngine::wait(CallHandle h, int maxRounds)
{
    for (int round = 0; round < maxRounds; ++round) {
        if (done(h))
            return true;
        stack_.pollPending();
    }
    return done(h);
}

std::vector<Word>
RpcEngine::callSync(NodeId client, NodeId server, Word proc,
                    const std::vector<Word> &request)
{
    const CallHandle h = call(client, server, proc, request);
    if (!wait(h))
        msgsim_panic("rpc: call ", h, " to node ", server,
                     " never completed");
    return reply(h);
}

} // namespace msgsim
