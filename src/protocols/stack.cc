#include "protocols/stack.hh"

#include "sim/log.hh"

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

namespace
{

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
    nc.orderFactory = cfg.order; // OrderStage maps empty to FIFO
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
        if (cfg_.layer == HostLayer::Hl)
            cc.trusted = netFeatures(cfg_.substrate);
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
        for (NodeId i = 0; i < nodes; ++i)
            nics_.push_back(
                std::make_unique<RdmaNic>(node(i), network(), rc));
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
Stack::allocId()
{
    const Word id = nextId_;
    nextId_ = nextId_ >= 200 ? 1 : nextId_ + 1;
    return id;
}

Word
Stack::connectQp(NodeId a, NodeId b)
{
    const Word qp = allocId();
    nic(a).bindQp(qp, b);
    nic(b).bindQp(qp, a);
    return qp;
}

std::uint32_t
Stack::pollPending()
{
    settle();
    std::uint32_t polled = 0;
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
    NetIface &ni = node(id).ni(); // range-checks id
    progress_[id].discipline = discipline;
    ni.setArrivalHook([this, id] { arrived(id); });
}

void
Stack::stopPollOnArrival(NodeId id)
{
    node(id).ni().setArrivalHook(nullptr);
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
    if (np.discipline == RecvDiscipline::Interrupt)
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
