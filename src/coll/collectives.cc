#include "coll/collectives.hh"

#include <algorithm>

#include "hostprof/hostprof.hh"
#include "sim/log.hh"

namespace msgsim
{

namespace
{

/** Pack (kind, seq) into the first payload word. */
Word
packMeta(Word kind, Word seq, Word round)
{
    return (kind << 24) | ((round & 0xffu) << 16) | (seq & 0xffffu);
}

Word metaKind(Word w) { return w >> 24; }
Word metaRound(Word w) { return (w >> 16) & 0xffu; }
Word metaSeq(Word w) { return w & 0xffffu; }

} // namespace

Collectives::Collectives(Stack &stack) : stack_(stack)
{
    const std::uint32_t n = nodes();
    handlerIds_.resize(n);
    for (NodeId id = 0; id < n; ++id)
        handlerIds_[id] = stack_.cmam(id).registerHandler(
            [this, id](NodeId src, const std::vector<Word> &args) {
                onMessage(id, src, args);
            });
}

std::uint32_t
Collectives::rounds() const
{
    std::uint32_t r = 0;
    while ((1u << r) < nodes())
        ++r;
    return r;
}

void
Collectives::amSend(NodeId self, NodeId dst, Kind kind, Word a, Word b)
{
    hostprof::HostScope hs(hostprof::Site::CollSend);
    Node &node = stack_.node(self);
    FeatureScope fs(node.acct(), Feature::BaseCost);
    stack_.cmam(self).am4(
        dst, handlerIds_[dst],
        {packMeta(static_cast<Word>(kind), seq_, a), b});
    ++messages_;
}

void
Collectives::onMessage(NodeId self, NodeId src,
                       const std::vector<Word> &args)
{
    Node &node = stack_.node(self);
    Processor &p = node.proc();
    const Word meta = args.at(0);
    // Handler prologue: unpack kind/seq/round, staleness check.
    p.regOps(4);
    if (metaSeq(meta) != (seq_ & 0xffffu))
        return; // straggler from a previous collective

    switch (static_cast<Kind>(metaKind(meta))) {
      case Kind::BarrierToken: {
        const std::uint32_t round = metaRound(meta);
        gotToken_[self][round] = true;
        p.regOps(2); // token bookkeeping
        barrierAdvance(self);
        break;
      }
      case Kind::BcastValue: {
        if (!hasValue_[self]) {
            hasValue_[self] = true;
            bcastValue_[self] = args.at(1);
            p.regOps(2); // store value, mark
            bcastForward(self, metaRound(meta));
        }
        break;
      }
      case Kind::GatherValue:
      case Kind::AllToAllValue: {
        // args.at(1) = value; sender identity from the AM itself.
        p.regOps(2); // table index + store
        exchange_[self][src] = args.at(1);
        ++exchangeGot_[self];
        break;
      }
      case Kind::ReduceContrib: {
        // Combine the contribution into the local accumulator.
        p.regOps(2);
        combineInto(accum_[self], args.at(1));
        ++contribGot_[self];
        reduceTrySend(self);
        break;
      }
      case Kind::RingAcc: {
        // Combine the running total; forward unless we are the root.
        p.regOps(2);
        combineInto(accum_[self], args.at(1));
        ringGot_[self] = true;
        if (self != reduceRoot_)
            amSend(self, static_cast<NodeId>((self + 1) % nodes()),
                   Kind::RingAcc, 0, accum_[self]);
        break;
      }
      case Kind::RingFwd: {
        // Store the value; forward unless the next hop is the root.
        if (!hasValue_[self]) {
            hasValue_[self] = true;
            bcastValue_[self] = args.at(1);
            p.regOps(2);
            const NodeId next =
                static_cast<NodeId>((self + 1) % nodes());
            if (next != bcastRoot_)
                amSend(self, next, Kind::RingFwd, 0,
                       bcastValue_[self]);
        }
        break;
      }
      case Kind::RdExchange: {
        // Stash the round-tagged partial; advance as far as possible.
        p.regOps(2);
        const std::uint32_t round = metaRound(meta);
        rdGot_[self][round] = args.at(1);
        rdHave_[self][round] = true;
        rdAdvance(self);
        break;
      }
      default:
        msgsim_panic("collectives: bad message kind from node ", src);
    }
}

void
Collectives::combineInto(Word &acc, Word v) const
{
    switch (reduceOp_) {
      case ReduceOp::Sum:
        acc += v;
        break;
      case ReduceOp::Max:
        acc = std::max(acc, v);
        break;
      case ReduceOp::Min:
        acc = std::min(acc, v);
        break;
      case ReduceOp::BitOr:
        acc |= v;
        break;
    }
}

bool
Collectives::progress(const std::function<bool()> &done)
{
    hostprof::HostScope hs(hostprof::Site::CollProgress);
    for (int round = 0; round < 256; ++round) {
        if (done())
            return true;
        const std::uint32_t polled = stack_.pollPending();
        polls_ += polled;
        if (polled == 0)
            return done();
    }
    return done();
}

std::uint64_t
Collectives::totalInstructions()
{
    std::uint64_t sum = 0;
    for (NodeId id = 0; id < nodes(); ++id)
        sum += stack_.node(id).acct().counter().paperTotal();
    return sum;
}

// ------------------------------------------------------------------
// Barrier (dissemination).
// ------------------------------------------------------------------

void
Collectives::barrierAdvance(NodeId self)
{
    const std::uint32_t r = rounds();
    while (waitRound_[self] < r && gotToken_[self][waitRound_[self]]) {
        ++waitRound_[self];
        if (waitRound_[self] < r) {
            const NodeId peer = static_cast<NodeId>(
                (self + (1u << waitRound_[self])) % nodes());
            amSend(self, peer, Kind::BarrierToken, waitRound_[self],
                   0);
        }
    }
    if (waitRound_[self] >= r)
        barrierDone_[self] = true;
}

Collectives::CollResult
Collectives::barrier()
{
    CollResult res;
    const std::uint32_t n = nodes();
    const std::uint32_t r = rounds();
    ++seq_;
    messages_ = 0;
    polls_ = 0;
    gotToken_.assign(n, std::vector<bool>(std::max(r, 1u), false));
    waitRound_.assign(n, 0);
    barrierDone_.assign(n, r == 0);

    const std::uint64_t instr0 = totalInstructions();
    const Tick t0 = stack_.sim().now();
    if (r > 0)
        for (NodeId id = 0; id < n; ++id)
            amSend(id, static_cast<NodeId>((id + 1) % n),
                   Kind::BarrierToken, 0, 0);
    res.ok = progress([this] {
        for (bool d : barrierDone_)
            if (!d)
                return false;
        return true;
    });
    res.messages = messages_;
    res.instructions = totalInstructions() - instr0;
    res.polls = polls_;
    res.elapsed = stack_.sim().now() - t0;
    return res;
}

// ------------------------------------------------------------------
// Broadcast (binomial tree).
// ------------------------------------------------------------------

void
Collectives::bcastForward(NodeId self, std::uint32_t from_round)
{
    const std::uint32_t n = nodes();
    const std::uint32_t rel = (self + n - bcastRoot_) % n;
    for (std::uint32_t k = from_round; k < rounds(); ++k) {
        const std::uint32_t peer_rel = rel + (1u << k);
        if (rel < (1u << k) && peer_rel < n) {
            const NodeId peer =
                static_cast<NodeId>((bcastRoot_ + peer_rel) % n);
            amSend(self, peer, Kind::BcastValue, k + 1,
                   bcastValue_[self]);
        }
    }
}

Collectives::CollResult
Collectives::broadcast(NodeId root, Word value, std::vector<Word> &out,
                       Algo algo)
{
    // Recursive doubling's dissemination IS the binomial tree.
    if (algo == Algo::Ring)
        return ringBroadcast(root, value, out);
    CollResult res;
    const std::uint32_t n = nodes();
    ++seq_;
    messages_ = 0;
    polls_ = 0;
    bcastRoot_ = root;
    hasValue_.assign(n, false);
    bcastValue_.assign(n, 0);
    hasValue_[root] = true;
    bcastValue_[root] = value;

    const std::uint64_t instr0 = totalInstructions();
    const Tick t0 = stack_.sim().now();
    bcastForward(root, 0);
    res.ok = progress([this] {
        for (bool h : hasValue_)
            if (!h)
                return false;
        return true;
    });
    out = bcastValue_;
    res.messages = messages_;
    res.instructions = totalInstructions() - instr0;
    res.polls = polls_;
    res.elapsed = stack_.sim().now() - t0;
    return res;
}

// ------------------------------------------------------------------
// Reduce (binomial combining tree).
// ------------------------------------------------------------------

void
Collectives::reduceTrySend(NodeId self)
{
    if (contribSent_[self])
        return;
    if (contribGot_[self] < contribWant_[self])
        return;
    const std::uint32_t n = nodes();
    const std::uint32_t rel = (self + n - reduceRoot_) % n;
    if (rel == 0)
        return; // the root only collects
    // Parent: clear the lowest set bit of the relative rank.
    const std::uint32_t lsb = rel & (~rel + 1);
    const NodeId parent =
        static_cast<NodeId>((reduceRoot_ + (rel - lsb)) % n);
    contribSent_[self] = true;
    amSend(self, parent, Kind::ReduceContrib, 0, accum_[self]);
}

Collectives::CollResult
Collectives::reduce(ReduceOp op, const std::vector<Word> &in,
                    Word &out, NodeId root, Algo algo)
{
    // Recursive doubling's combining tree IS the binomial tree.
    if (algo == Algo::Ring)
        return ringReduce(op, in, out, root);
    CollResult res;
    const std::uint32_t n = nodes();
    if (in.size() != n)
        msgsim_fatal("reduce: need one contribution per node (", n,
                     "), got ", in.size());
    ++seq_;
    messages_ = 0;
    polls_ = 0;
    reduceOp_ = op;
    reduceRoot_ = root;
    accum_ = in;
    contribWant_.assign(n, 0);
    contribGot_.assign(n, 0);
    contribSent_.assign(n, false);

    // Node at relative rank r expects one contribution per child
    // r + 2^j for j < lsb-index(r) (all j for the root).
    for (NodeId id = 0; id < n; ++id) {
        const std::uint32_t rel = (id + n - root) % n;
        std::uint32_t want = 0;
        for (std::uint32_t j = 0; j < rounds(); ++j) {
            if (rel != 0 && (rel & (1u << j)))
                break; // j reached the lsb of rel
            if (rel + (1u << j) < n)
                ++want;
        }
        contribWant_[id] = want;
    }

    const std::uint64_t instr0 = totalInstructions();
    const Tick t0 = stack_.sim().now();
    for (NodeId id = 0; id < n; ++id)
        reduceTrySend(id); // leaves fire immediately
    const NodeId rootId = root;
    res.ok = progress([this, rootId] {
        return contribGot_[rootId] >= contribWant_[rootId];
    });
    out = accum_[root];
    res.messages = messages_;
    res.instructions = totalInstructions() - instr0;
    res.polls = polls_;
    res.elapsed = stack_.sim().now() - t0;
    return res;
}

Collectives::CollResult
Collectives::gather(const std::vector<Word> &in, std::vector<Word> &out,
                    NodeId root)
{
    CollResult res;
    const std::uint32_t n = nodes();
    if (in.size() != n)
        msgsim_fatal("gather: need one contribution per node");
    ++seq_;
    messages_ = 0;
    polls_ = 0;
    exchange_.assign(n, std::vector<Word>(n, 0));
    exchangeGot_.assign(n, 0);

    const std::uint64_t instr0 = totalInstructions();
    const Tick t0 = stack_.sim().now();
    for (NodeId id = 0; id < n; ++id) {
        if (id == root)
            continue;
        amSend(id, root, Kind::GatherValue, 0, in[id]);
    }
    const NodeId rootId = root;
    const std::uint32_t want = n - 1;
    res.ok = progress([this, rootId, want] {
        return exchangeGot_[rootId] >= want;
    });
    out = exchange_[root];
    out[root] = in[root];
    res.messages = messages_;
    res.instructions = totalInstructions() - instr0;
    res.polls = polls_;
    res.elapsed = stack_.sim().now() - t0;
    return res;
}

Collectives::CollResult
Collectives::allToAll(const std::vector<std::vector<Word>> &in,
                      std::vector<std::vector<Word>> &out)
{
    CollResult res;
    const std::uint32_t n = nodes();
    if (in.size() != n)
        msgsim_fatal("allToAll: need one row per node");
    ++seq_;
    messages_ = 0;
    polls_ = 0;
    exchange_.assign(n, std::vector<Word>(n, 0));
    exchangeGot_.assign(n, 0);

    const std::uint64_t instr0 = totalInstructions();
    const Tick t0 = stack_.sim().now();
    for (NodeId i = 0; i < n; ++i) {
        if (in[i].size() != n)
            msgsim_fatal("allToAll: row ", i, " has ", in[i].size(),
                         " entries, want ", n);
        for (NodeId j = 0; j < n; ++j) {
            if (i == j) {
                exchange_[i][i] = in[i][i];
                continue;
            }
            amSend(i, j, Kind::AllToAllValue, 0, in[i][j]);
        }
    }
    const std::uint32_t want = n - 1;
    res.ok = progress([this, want] {
        for (auto got : exchangeGot_)
            if (got < want)
                return false;
        return true;
    });
    out = exchange_;
    res.messages = messages_;
    res.instructions = totalInstructions() - instr0;
    res.polls = polls_;
    res.elapsed = stack_.sim().now() - t0;
    return res;
}

Collectives::CollResult
Collectives::allReduce(ReduceOp op, const std::vector<Word> &in,
                       std::vector<Word> &out, Algo algo)
{
    if (algo == Algo::RecursiveDoubling)
        return rdAllReduce(op, in, out);
    Word total = 0;
    CollResult r1 = reduce(op, in, total, 0, algo);
    CollResult r2 = broadcast(0, total, out, algo);
    CollResult res;
    res.ok = r1.ok && r2.ok;
    res.messages = r1.messages + r2.messages;
    res.instructions = r1.instructions + r2.instructions;
    res.polls = r1.polls + r2.polls;
    res.elapsed = r1.elapsed + r2.elapsed;
    return res;
}

// ------------------------------------------------------------------
// Ring chains: serial accumulate toward the root, serial forward
// around the ring.  N-1 messages each; fully latency-bound — the
// classic bandwidth-optimal ring in its one-word degenerate form.
// ------------------------------------------------------------------

Collectives::CollResult
Collectives::ringReduce(ReduceOp op, const std::vector<Word> &in,
                        Word &out, NodeId root)
{
    CollResult res;
    const std::uint32_t n = nodes();
    if (in.size() != n)
        msgsim_fatal("ringReduce: need one contribution per node (",
                     n, "), got ", in.size());
    ++seq_;
    messages_ = 0;
    polls_ = 0;
    reduceOp_ = op;
    reduceRoot_ = root;
    accum_ = in;
    ringGot_.assign(n, false);

    const std::uint64_t instr0 = totalInstructions();
    const Tick t0 = stack_.sim().now();
    if (n > 1) {
        // The chain starts one past the root and accumulates around
        // the ring; the last hop lands on the root.
        const NodeId first = static_cast<NodeId>((root + 1) % n);
        amSend(first, static_cast<NodeId>((first + 1) % n),
               Kind::RingAcc, 0, accum_[first]);
    } else {
        ringGot_[root] = true;
    }
    const NodeId rootId = root;
    res.ok = progress([this, rootId] { return ringGot_[rootId]; });
    out = accum_[root];
    res.messages = messages_;
    res.instructions = totalInstructions() - instr0;
    res.polls = polls_;
    res.elapsed = stack_.sim().now() - t0;
    return res;
}

Collectives::CollResult
Collectives::ringBroadcast(NodeId root, Word value,
                           std::vector<Word> &out)
{
    CollResult res;
    const std::uint32_t n = nodes();
    ++seq_;
    messages_ = 0;
    polls_ = 0;
    bcastRoot_ = root;
    hasValue_.assign(n, false);
    bcastValue_.assign(n, 0);
    hasValue_[root] = true;
    bcastValue_[root] = value;

    const std::uint64_t instr0 = totalInstructions();
    const Tick t0 = stack_.sim().now();
    if (n > 1)
        amSend(root, static_cast<NodeId>((root + 1) % n),
               Kind::RingFwd, 0, value);
    res.ok = progress([this] {
        for (bool h : hasValue_)
            if (!h)
                return false;
        return true;
    });
    out = bcastValue_;
    res.messages = messages_;
    res.instructions = totalInstructions() - instr0;
    res.polls = polls_;
    res.elapsed = stack_.sim().now() - t0;
    return res;
}

// ------------------------------------------------------------------
// Recursive-doubling allreduce: the butterfly.  Round k pairs node i
// with i ^ 2^k; both exchange partials and combine, so after log2 N
// rounds every node holds the total.  A node may receive a peer's
// round-k partial before finishing round k-1 — arrivals stash by
// round and rdAdvance() consumes them in order.
// ------------------------------------------------------------------

void
Collectives::rdAdvance(NodeId self)
{
    const std::uint32_t r = rounds();
    while (rdRound_[self] < r && rdHave_[self][rdRound_[self]]) {
        combineInto(rdVal_[self], rdGot_[self][rdRound_[self]]);
        ++rdRound_[self];
        if (rdRound_[self] < r) {
            const NodeId peer = static_cast<NodeId>(
                self ^ (1u << rdRound_[self]));
            amSend(self, peer, Kind::RdExchange, rdRound_[self],
                   rdVal_[self]);
        }
    }
}

Collectives::CollResult
Collectives::rdAllReduce(ReduceOp op, const std::vector<Word> &in,
                         std::vector<Word> &out)
{
    CollResult res;
    const std::uint32_t n = nodes();
    if ((n & (n - 1)) != 0)
        msgsim_fatal("recursive-doubling allreduce needs a "
                     "power-of-two node count, got ", n);
    if (in.size() != n)
        msgsim_fatal("rdAllReduce: need one contribution per node (",
                     n, "), got ", in.size());
    ++seq_;
    messages_ = 0;
    polls_ = 0;
    reduceOp_ = op;
    const std::uint32_t r = rounds();
    rdRound_.assign(n, 0);
    rdVal_ = in;
    rdGot_.assign(n, std::vector<Word>(std::max(r, 1u), 0));
    rdHave_.assign(n, std::vector<bool>(std::max(r, 1u), false));

    const std::uint64_t instr0 = totalInstructions();
    const Tick t0 = stack_.sim().now();
    for (NodeId id = 0; id < n && r > 0; ++id)
        amSend(id, static_cast<NodeId>(id ^ 1u), Kind::RdExchange, 0,
               rdVal_[id]);
    res.ok = progress([this, r] {
        for (auto round : rdRound_)
            if (round < r)
                return false;
        return true;
    });
    out = rdVal_;
    res.messages = messages_;
    res.instructions = totalInstructions() - instr0;
    res.polls = polls_;
    res.elapsed = stack_.sim().now() - t0;
    return res;
}

const char *
toString(Collectives::Algo a)
{
    switch (a) {
      case Collectives::Algo::Tree:              return "tree";
      case Collectives::Algo::Ring:              return "ring";
      case Collectives::Algo::RecursiveDoubling: return "rd";
      default:                                   return "?";
    }
}

bool
algoFromString(const std::string &name, Collectives::Algo &out)
{
    if (name == "tree")
        out = Collectives::Algo::Tree;
    else if (name == "ring")
        out = Collectives::Algo::Ring;
    else if (name == "rd" || name == "recursive-doubling")
        out = Collectives::Algo::RecursiveDoubling;
    else
        return false;
    return true;
}

} // namespace msgsim
