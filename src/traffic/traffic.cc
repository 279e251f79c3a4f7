#include "traffic/traffic.hh"

#include "sim/log.hh"

namespace msgsim
{

const char *
toString(TrafficPattern p)
{
    switch (p) {
      case TrafficPattern::UniformRandom: return "uniform-random";
      case TrafficPattern::Permutation:   return "permutation";
      case TrafficPattern::Hotspot:       return "hotspot";
      case TrafficPattern::Ring:          return "ring";
      case TrafficPattern::Transpose:     return "transpose";
      case TrafficPattern::Incast:        return "incast";
      case TrafficPattern::AllToAll:      return "alltoall";
      default:                            return "?";
    }
}

bool
patternFromString(const std::string &name, TrafficPattern &out)
{
    if (name == "uniform" || name == "uniform-random")
        out = TrafficPattern::UniformRandom;
    else if (name == "permutation")
        out = TrafficPattern::Permutation;
    else if (name == "hotspot")
        out = TrafficPattern::Hotspot;
    else if (name == "ring")
        out = TrafficPattern::Ring;
    else if (name == "transpose")
        out = TrafficPattern::Transpose;
    else if (name == "incast")
        out = TrafficPattern::Incast;
    else if (name == "alltoall" || name == "all-to-all")
        out = TrafficPattern::AllToAll;
    else
        return false;
    return true;
}

TrafficGen::TrafficGen(std::uint32_t nodes, TrafficPattern pattern,
                       std::uint64_t seed, double hotFraction)
    : nodes_(nodes), pattern_(pattern), rng_(seed),
      hotFraction_(hotFraction)
{
    if (nodes_ < 2)
        msgsim_fatal("traffic needs at least 2 nodes");
    switch (pattern_) {
      case TrafficPattern::Permutation: {
        // A fixed derangement-ish bijection: shuffle, then patch any
        // fixed points by swapping with a neighbor.
        mapping_.resize(nodes_);
        for (std::uint32_t i = 0; i < nodes_; ++i)
            mapping_[i] = i;
        rng_.shuffle(mapping_);
        for (std::uint32_t i = 0; i < nodes_; ++i)
            if (mapping_[i] == i)
                std::swap(mapping_[i],
                          mapping_[(i + 1) % nodes_]);
        break;
      }
      case TrafficPattern::Ring: {
        mapping_.resize(nodes_);
        for (std::uint32_t i = 0; i < nodes_; ++i)
            mapping_[i] = (i + 1) % nodes_;
        break;
      }
      case TrafficPattern::Transpose: {
        mapping_.resize(nodes_);
        for (std::uint32_t i = 0; i < nodes_; ++i) {
            NodeId d = (i + nodes_ / 2) % nodes_;
            if (d == i)
                d = (d + 1) % nodes_;
            mapping_[i] = d;
        }
        break;
      }
      case TrafficPattern::Incast: {
        // The fan-in storm: everyone hammers node 0 (which, unable
        // to send to itself, returns the favor to node 1).
        mapping_.resize(nodes_);
        for (std::uint32_t i = 0; i < nodes_; ++i)
            mapping_[i] = i == 0 ? 1 : 0;
        break;
      }
      case TrafficPattern::AllToAll: {
        rotation_.assign(nodes_, 0);
        break;
      }
      default:
        break;
    }
}

NodeId
TrafficGen::destFor(NodeId src)
{
    switch (pattern_) {
      case TrafficPattern::UniformRandom: {
        NodeId d = static_cast<NodeId>(rng_.below(nodes_));
        if (d == src)
            d = (d + 1) % nodes_;
        return d;
      }
      case TrafficPattern::Hotspot: {
        if (src != 0 && rng_.chance(hotFraction_))
            return 0;
        NodeId d = static_cast<NodeId>(rng_.below(nodes_));
        if (d == src)
            d = (d + 1) % nodes_;
        return d;
      }
      case TrafficPattern::Permutation:
      case TrafficPattern::Ring:
      case TrafficPattern::Transpose:
      case TrafficPattern::Incast:
        return mapping_[src];
      case TrafficPattern::AllToAll: {
        // Round-robin over every other node, per-source cursor: the
        // k-th message from src goes to (src + 1 + k mod (N-1)).
        const std::uint32_t k = rotation_[src]++;
        return static_cast<NodeId>(
            (src + 1 + k % (nodes_ - 1)) % nodes_);
      }
      default:
        msgsim_panic("bad traffic pattern");
    }
}

TrafficRunner::TrafficRunner(Stack &stack) : stack_(stack)
{
    const std::uint32_t n = stack_.machine().nodeCount();
    handlerIds_.resize(n);
    for (NodeId id = 0; id < n; ++id)
        handlerIds_[id] = stack_.cmam(id).registerHandler(
            [this](NodeId src, const std::vector<Word> &args) {
                // Payload self-check: [src, seq, src ^ seq ^ magic].
                ++delivered_;
                if (args.at(2) !=
                    (args.at(0) ^ args.at(1) ^ 0x5a5a5a5au) ||
                    args.at(0) != src)
                    ++badPayloads_;
            });
}

TrafficRunner::Result
TrafficRunner::run(TrafficGen &gen, std::uint32_t messagesPerNode,
                   std::uint64_t payloadSeed)
{
    Result res;
    const std::uint32_t n = stack_.machine().nodeCount();
    delivered_ = 0;
    badPayloads_ = 0;

    std::vector<std::uint64_t> before(n);
    for (NodeId id = 0; id < n; ++id)
        before[id] = stack_.node(id).acct().counter().paperTotal();
    const Tick t0 = stack_.sim().now();

    Rng seq_rng(payloadSeed);
    for (std::uint32_t k = 0; k < messagesPerNode; ++k) {
        for (NodeId src = 0; src < n; ++src) {
            const NodeId dst = gen.destFor(src);
            const Word seq = static_cast<Word>(seq_rng.next());
            Node &node = stack_.node(src);
            FeatureScope fs(node.acct(), Feature::BaseCost);
            stack_.cmam(src).am4(
                dst, handlerIds_[dst],
                {src, seq, src ^ seq ^ 0x5a5a5a5au});
            ++res.messages;
        }
        // Drain as we go so receive FIFOs stay shallow.
        stack_.pollPending();
    }
    stack_.pollPending();

    double max_instr = 0;
    for (NodeId id = 0; id < n; ++id) {
        const double instr = static_cast<double>(
            stack_.node(id).acct().counter().paperTotal() -
            before[id]);
        res.perNodeInstr.sample(instr);
        max_instr = std::max(max_instr, instr);
    }
    res.elapsed = stack_.sim().now() - t0;
    res.delivered = delivered_;
    res.ok = badPayloads_ == 0 && delivered_ == res.messages;
    res.maxOverMean = res.perNodeInstr.mean() > 0
                          ? max_instr / res.perNodeInstr.mean()
                          : 0;
    return res;
}

} // namespace msgsim
