#include "protocols/stack.hh"

#include "sim/log.hh"
#include "sim/rng.hh"

namespace msgsim
{

const char *
toString(Substrate s)
{
    switch (s) {
      case Substrate::Cm5:   return "cm5";
      case Substrate::Cr:    return "cr";
      case Substrate::Rdma:  return "rdma";
      case Substrate::Nicam: return "nicam";
      default:               return "?";
    }
}

bool
substrateFromString(const std::string &name, Substrate &out)
{
    for (Substrate s : allSubstrates) {
        if (name == toString(s)) {
            out = s;
            return true;
        }
    }
    return false;
}

const char *
toString(RecvDiscipline d)
{
    switch (d) {
      case RecvDiscipline::Poll:      return "poll";
      case RecvDiscipline::Interrupt: return "interrupt";
      default:                        return "?";
    }
}

const char *
toString(HostLayer l)
{
    switch (l) {
      case HostLayer::Cmam:    return "cmam";
      case HostLayer::Hl:      return "hl";
      case HostLayer::Verbs:   return "verbs";
      case HostLayer::Offload: return "offload";
      default:                 return "?";
    }
}

HostLayer
nativeLayer(Substrate s)
{
    for (const StackPair &p : stackPairs)
        if (p.substrate == s && p.layer != HostLayer::Cmam)
            return p.layer;
    return HostLayer::Cmam;
}

StackConfig
stackConfigFor(HostLayer layer)
{
    StackConfig cfg;
    for (const StackPair &p : stackPairs)
        if (p.layer == layer) {
            cfg.substrate = p.substrate;
            break;
        }
    cfg.layer = layer;
    return cfg;
}

void
fillWords(Node &node, Addr buf, std::uint32_t words, std::uint64_t seed)
{
    for (std::uint32_t i = 0; i < words; ++i)
        node.mem().write(buf + i, static_cast<Word>(splitMix64(seed)));
}

namespace
{

/** Post a verbs send, harvesting the CQ while it has no free slot. */
void
postSend(RdmaNic &nic, Word qp, Addr buf, std::uint32_t words, Word tag)
{
    for (int attempts = 0; !nic.postSend(qp, buf, words, tag);) {
        if (++attempts > 1000)
            msgsim_panic("rdma send livelock");
        nic.pollCq();
    }
}

bool
pairInUse(Substrate s, HostLayer l)
{
    for (const StackPair &p : stackPairs)
        if (p.substrate == s && p.layer == l)
            return true;
    return false;
}

/** The link knobs every fabric takes. */
template <class Net>
typename Net::Config
linkConfig(const StackConfig &cfg)
{
    typename Net::Config nc;
    nc.nodes = cfg.nodes;
    nc.faults = cfg.faults;
    nc.injectGap = cfg.injectGap;
    nc.deliverGap = cfg.deliverGap;
    return nc;
}

/** The link knobs plus the CM-5 fabric's own (cm5 and nicam). */
template <class Net>
typename Net::Config
cm5ClassConfig(const StackConfig &cfg)
{
    typename Net::Config nc = linkConfig<Net>(cfg);
    nc.orderFactory = cfg.order; // empty: the edge delivers on arrival
    nc.maxJitter = cfg.maxJitter;
    nc.injectBusyRate = cfg.injectBusyRate;
    nc.seed = cfg.seed;
    return nc;
}

template <class Net>
Machine::NetworkFactory
factoryOf(const typename Net::Config &nc)
{
    return [nc](Simulator &sim) { return std::make_unique<Net>(sim, nc); };
}

/**
 * Layer @p v's entry for node @p id; panics when @p v was not built,
 * naming the layer @p built that was.
 */
template <class Layer>
Layer &
layerAt(const std::vector<std::unique_ptr<Layer>> &v, NodeId id,
        const char *name, HostLayer built)
{
    if (v.empty())
        msgsim_panic(name, "(", id, "): the stack was built with the ",
                     toString(built), " layer only");
    if (id >= v.size())
        msgsim_panic(name, ": node id ", id, " out of range");
    return *v[id];
}

} // namespace

NetFeatures
netFeatures(Substrate s)
{
    switch (s) {
      case Substrate::Cm5:   return Cm5Network::hwFeatures;
      case Substrate::Cr:    return CrNetwork::hwFeatures;
      case Substrate::Rdma:  return RdmaNetwork::hwFeatures;
      case Substrate::Nicam: return NicamNetwork::hwFeatures;
    }
    msgsim_panic("unknown substrate");
}

Stack::Stack(const StackConfig &cfg) : cfg_(cfg)
{
    if (!pairInUse(cfg_.substrate, cfg_.layer))
        msgsim_fatal("no ", toString(cfg_.layer), " layer on the ",
                     toString(cfg_.substrate), " fabric");

    Machine::Config mc;
    mc.nodes = cfg_.nodes;
    mc.dataWords = cfg_.dataWords;
    mc.memWords = cfg_.memWords;
    mc.recvCapacity = cfg_.recvCapacity;

    Machine::NetworkFactory factory;
    switch (cfg_.substrate) {
      case Substrate::Cm5:
        factory = factoryOf<Cm5Network>(cm5ClassConfig<Cm5Network>(cfg_));
        break;
      case Substrate::Cr:
        factory = factoryOf<CrNetwork>(linkConfig<CrNetwork>(cfg_));
        break;
      case Substrate::Rdma:
        factory = factoryOf<RdmaNetwork>(linkConfig<RdmaNetwork>(cfg_));
        break;
      case Substrate::Nicam: {
        auto nc = cm5ClassConfig<NicamNetwork>(cfg_);
        nc.maxOffloadEntries = cfg_.maxOffloadEntries;
        factory = factoryOf<NicamNetwork>(nc);
        break;
      }
    }
    machine_ = std::make_unique<Machine>(mc, factory);

    const std::uint32_t nodes = cfg_.nodes;
    switch (cfg_.layer) {
      case HostLayer::Cmam:
      case HostLayer::Hl: {
        Cmam::Config cc;
        cc.maxSegments = cfg_.maxSegments;
        cc.dmaXfer = cfg_.dmaXfer;
        cc.kernelMediated = cfg_.kernelMediated;
        // The §4 layer leaves to the fabric what the fabric provides.
        cc.trusted = provided();
        cmams_.reserve(nodes);
        for (NodeId i = 0; i < nodes; ++i)
            cmams_.push_back(std::make_unique<Cmam>(node(i), cc));
        break;
      }
      case HostLayer::Verbs: {
        RdmaNic::Config rc;
        rc.mtuWords = cfg_.dataWords;
        rc.mrCacheSlots = cfg_.mrCacheSlots;
        rc.cqCapacity = cfg_.cqCapacity;
        nics_.reserve(nodes);
        for (NodeId i = 0; i < nodes; ++i) {
            nics_.push_back(
                std::make_unique<RdmaNic>(node(i), network(), rc));
            nics_.back()->setCompletionFn(
                [this, i](const RdmaNic::Completion &c) {
                    completed(i, c);
                });
        }
        break;
      }
      case HostLayer::Offload: {
        auto &net = static_cast<NicamNetwork &>(network());
        offloads_.reserve(nodes);
        for (NodeId i = 0; i < nodes; ++i)
            offloads_.push_back(
                std::make_unique<NicamLayer>(node(i), net));
        break;
      }
    }
    progress_.resize(nodes);
}

Cmam &
Stack::cmam(NodeId id)
{
    return layerAt(cmams_, id, "cmam", cfg_.layer);
}

RdmaNic &
Stack::nic(NodeId id)
{
    return layerAt(nics_, id, "verbs", cfg_.layer);
}

NicamLayer &
Stack::offload(NodeId id)
{
    return layerAt(offloads_, id, "offload", cfg_.layer);
}

std::uint64_t
Stack::dispatchOps(NodeId id)
{
    switch (cfg_.layer) {
      case HostLayer::Cmam:
      case HostLayer::Hl:      return cmam(id).dispatchOps();
      case HostLayer::Verbs:   return 0;
      case HostLayer::Offload: return offload(id).dispatchOps();
    }
    return 0;
}

Word
Stack::connectQp(NodeId a, NodeId b)
{
    auto [it, fresh] = qps_.try_emplace({a, b}, 0);
    if (fresh) {
        it->second = static_cast<Word>(qps_.size());
        nic(a).bindQp(it->second, b);
        nic(b).bindQp(it->second, a);
    }
    return it->second;
}

NetFeatures
Stack::provided() const
{
    if (cfg_.layer == HostLayer::Offload)
        return {.inOrderDelivery = true,
                .reliableDelivery = true,
                .acceptanceIndependent = true,
                .offloadDispatch = true};
    return cfg_.layer == HostLayer::Cmam ? NetFeatures{}
                                          : netFeatures(cfg_.substrate);
}

void
Stack::postTransfer(NodeId src, NodeId dst, Word tid, Addr buf,
                    std::uint32_t words, Cmam::XferDoneFn done)
{
    if (cfg_.layer == HostLayer::Hl) {
        // The header's id field wraps: at most 256 posted at once.
        cmam(dst).postTransfer(tid & hdr::maxFieldA, buf, std::move(done));
        return;
    }
    FeatureScope fs(node(dst).acct(), Feature::BaseCost);
    // Landings key on the queue pair, or on the transfer's id in the
    // done-flag table, where ids wrap.
    const bool verbs = cfg_.layer == HostLayer::Verbs;
    const Word key =
        verbs ? connectQp(src, dst) : tid % NicamLayer::maxXferIds;
    if (verbs) {
        nic(dst).regMr(buf, words);
        nic(dst).postRecv(key, buf, words, tid);
    } else if (!offload(dst).postXfer(key, buf, words)) {
        msgsim_fatal("transfer ", tid, ": node ", dst,
                     "'s NIC table is full");
    }
    landings_[{dst, key}].push_back(std::move(done));
}

void
Stack::sendTransfer(NodeId src, NodeId dst, Word id, Addr buf,
                    std::uint32_t words)
{
    if (cfg_.layer == HostLayer::Verbs) {
        nic(src).regMr(buf, words);
        postSend(nic(src), connectQp(src, dst), buf, words, id);
    } else if (cfg_.layer == HostLayer::Offload) {
        offload(src).xferSend(dst, id % NicamLayer::maxXferIds, buf,
                              words);
    } else {
        // hl's ids wrap as postTransfer's do; CMAM's name a segment.
        cmam(src).xferSend(
            dst, cfg_.layer == HostLayer::Hl ? id & hdr::maxFieldA : id,
            buf, words);
    }
}

void
Stack::openStream(NodeId src, NodeId dst, Word chan,
                  std::uint32_t packets, StreamDeliverFn deliver)
{
    if (!nicLands())
        return; // hl: the CMAM stream sink delivers
    const bool verbs = cfg_.layer == HostLayer::Verbs;
    const auto n = static_cast<std::uint32_t>(cfg_.dataWords);
    const std::uint32_t words = packets * n;
    // A channel id's buffers serve its next opening of the same shape.
    StreamSlot &slot = streams_[chan];
    if (slot.src != src || slot.dst != dst || slot.packets != packets) {
        slot.src = src;
        slot.dst = dst;
        slot.packets = packets;
        slot.srcBuf = verbs ? node(src).mem().alloc(words) : 0;
        // Offload's ring ends in the NIC's producer count.
        slot.ring = node(dst).mem().alloc(words + (verbs ? 0 : 1));
    }
    slot.deliver = std::move(deliver);

    if (!verbs) {
        if (!offload(dst).openStream(chan, slot.ring, packets))
            msgsim_fatal("stream ", chan, ": node ", dst,
                         "'s NIC table is full");
        return;
    }
    const Word qp = connectQp(src, dst);
    {
        // A receive per packet, each landing in its ring slot.
        FeatureScope fs(node(dst).acct(), Feature::BaseCost);
        nic(dst).regMr(slot.ring, words);
        auto &queue = landings_[{dst, qp}];
        for (std::uint32_t m = 0; m < packets; ++m) {
            nic(dst).postRecv(qp, slot.ring + m * n, n, m);
            queue.push_back([this, chan, n](Word seq) {
                const StreamSlot &s = streams_.at(chan);
                if (!s.deliver)
                    return; // closed before it landed
                ScratchPool<std::vector<Word>>::Lease data(wordBufs_);
                data->resize(n);
                const Addr at = s.ring + seq * n;
                for (std::uint32_t i = 0; i < n; ++i)
                    (*data)[i] = node(s.dst).mem().read(at + i);
                s.deliver(*data);
            });
        }
    }
    FeatureScope fs(node(src).acct(), Feature::BaseCost);
    nic(src).regMr(slot.srcBuf, words);
}

void
Stack::sendStream(NodeId src, NodeId dst, Word chan, std::uint32_t seq,
                  const std::vector<Word> &data)
{
    switch (cfg_.layer) {
      case HostLayer::Verbs: {
        // The packet is application data in the registered buffer,
        // which the NIC reads.
        const StreamSlot &slot = streams_.at(chan);
        const auto n = static_cast<std::uint32_t>(data.size());
        const Addr at = slot.srcBuf + (seq % slot.packets) * n;
        for (std::uint32_t i = 0; i < n; ++i)
            node(src).mem().write(at + i, data[i]);
        postSend(nic(src), connectQp(src, dst), at, n, seq);
        return;
      }
      case HostLayer::Offload:
        offload(src).streamSend(dst, chan, seq, data);
        return;
      default:
        cmam(src).sendTagged(HwTag::StreamData, dst,
                             hdr::pack(chan, seq & hdr::maxFieldB), data,
                             0);
    }
}

void
Stack::closeStream(Word chan)
{
    auto it = streams_.find(chan);
    if (it == streams_.end())
        return; // hl opened nothing
    if (cfg_.layer == HostLayer::Offload)
        offload(it->second.dst).closeStream(chan);
    it->second.deliver = nullptr;
}

bool
Stack::takeIn(NodeId id)
{
    if (cfg_.layer == HostLayer::Verbs) {
        if (nic(id).cqDepth() == 0)
            return false;
        nic(id).pollCq(); // completed() runs each receive's landing
        return true;
    }
    // Offload: probe each landed transfer's done flag ...
    NicamLayer &nl = offload(id);
    bool took = false;
    for (auto it = landings_.lower_bound({id, 0});
         it != landings_.end() && it->first.first == id;) {
        const Word sid = it->first.second;
        if (!nl.xferLanded(sid) || !nl.xferDone(sid)) {
            ++it;
            continue;
        }
        const Cmam::XferDoneFn done = std::move(it->second.front());
        it = landings_.erase(it);
        done(sid);
        took = true;
    }
    // ... harvest each open stream's released packets ...
    const auto n = static_cast<std::size_t>(cfg_.dataWords);
    for (auto &[chan, slot] : streams_) {
        if (slot.dst != id || nl.streamLanded(chan) == 0)
            continue;
        ScratchPool<std::vector<Word>>::Lease words(wordBufs_);
        ScratchPool<std::vector<Word>>::Lease pkt(wordBufs_);
        nl.streamHarvest(chan, *words);
        for (std::size_t off = 0; off < words->size(); off += n) {
            pkt->assign(words->begin() + static_cast<long>(off),
                        words->begin() + static_cast<long>(off + n));
            slot.deliver(*pkt);
        }
        took = true;
    }
    // ... and dispatch what missed the NIC table.
    if (!node(id).ni().hwRecvPending())
        return took;
    nl.poll();
    return true;
}

void
Stack::completed(NodeId id, const RdmaNic::Completion &c)
{
    if (c.kind != RdmaNic::Completion::Kind::Recv)
        return; // a send completion only frees its CQ slot
    auto it = landings_.find({id, c.qp});
    if (it == landings_.end())
        return; // a receive posted past the stack (raw verbs)
    const Cmam::XferDoneFn done = std::move(it->second.front());
    it->second.pop_front();
    if (it->second.empty())
        landings_.erase(it);
    done(c.userTag);
}

std::uint32_t
Stack::pollPending()
{
    settle();
    std::uint32_t polled = 0;
    if (nicLands()) {
        for (NodeId id = 0; id < machine_->nodeCount(); ++id) {
            FeatureScope fs(node(id).acct(), Feature::BaseCost);
            polled += takeIn(id) ? 1 : 0;
        }
        return polled;
    }
    for (NodeId id = 0; id < machine_->nodeCount(); ++id) {
        Node &nd = node(id);
        if (!nd.ni().hwRecvPending())
            continue;
        ++polled;
        FeatureScope fs(nd.acct(), Feature::BaseCost);
        cmam(id).poll();
    }
    return polled;
}

void
Stack::pollOnArrival(NodeId id, RecvDiscipline discipline)
{
    hookArrivals(id, [this, id] { arrived(id); });
    progress_[id].discipline = discipline;
}

void
Stack::stopPollOnArrival(NodeId id)
{
    hookArrivals(id, nullptr);
}

void
Stack::hookArrivals(NodeId id, const std::function<void()> &hook)
{
    if (cfg_.layer == HostLayer::Verbs) {
        nic(id).setArrivalHook(hook);
        return;
    }
    if (cfg_.layer == HostLayer::Offload)
        offload(id).setArrivalHook(hook); // and the NI's, for misses
    node(id).ni().setArrivalHook(hook);
}

void
Stack::arrived(NodeId id)
{
    // The layer's accounting: CMAM's arrivals share an entry that has
    // not run yet, the §4 layer takes one each.
    NodeProgress &np = progress_[id];
    if (cfg_.layer != HostLayer::Hl) {
        if (np.entryQueued)
            return;
        np.entryQueued = true;
    }
    sim().scheduleAt<&Stack::serviceArrivals>(sim().now() + 1, this, id);
}

void
Stack::serviceArrivals(std::uint32_t id)
{
    NodeProgress &np = progress_[id];
    np.entryQueued = false;
    FeatureScope fs(node(id).acct(), Feature::BaseCost);
    if (nicLands())
        takeIn(id);
    else if (np.discipline == RecvDiscipline::Interrupt)
        cmam(id).interruptService();
    else
        cmam(id).poll();
}

void
Stack::startProgress(NodeId id, Tick first, Tick gap,
                     std::function<bool()> step)
{
    node(id); // range-checks id
    NodeProgress &np = progress_[id];
    if (np.step)
        msgsim_panic("node ", id, " already runs a progress loop");
    np.step = std::move(step);
    np.gap = gap;
    sim().scheduleAt<&Stack::progressTick>(sim().now() + first, this, id);
}

void
Stack::progressTick(std::uint32_t id)
{
    NodeProgress &np = progress_[id];
    if (!np.step)
        return; // stopped: the tick dies
    {
        FeatureScope fs(node(id).acct(), Feature::BaseCost);
        if (np.step()) {
            np.step = nullptr;
            return;
        }
    }
    sim().scheduleAt<&Stack::progressTick>(sim().now() + np.gap, this,
                                           id);
}

void
Stack::stopProgress()
{
    for (NodeProgress &np : progress_)
        np.step = nullptr;
    settle();
}

} // namespace msgsim
