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

Stack::Stack(const StackConfig &cfg) : cfg_(cfg)
{
    Machine::Config mc;
    mc.nodes = cfg_.nodes;
    mc.dataWords = cfg_.dataWords;
    mc.memWords = cfg_.memWords;
    mc.recvCapacity = cfg_.recvCapacity;

    Machine::NetworkFactory factory;
    if (cfg_.substrate == Substrate::Cm5) {
        Cm5Network::Config nc;
        nc.nodes = cfg_.nodes;
        nc.orderFactory = cfg_.order ? cfg_.order : fifoOrderFactory();
        nc.faults = cfg_.faults;
        nc.maxJitter = cfg_.maxJitter;
        nc.injectBusyRate = cfg_.injectBusyRate;
        nc.seed = cfg_.seed;
        nc.injectGap = cfg_.injectGap;
        nc.deliverGap = cfg_.deliverGap;
        factory = [nc](Simulator &sim) {
            return std::make_unique<Cm5Network>(sim, nc);
        };
    } else if (cfg_.substrate == Substrate::Cr) {
        CrNetwork::Config nc;
        nc.nodes = cfg_.nodes;
        nc.faults = cfg_.faults;
        nc.injectGap = cfg_.injectGap;
        nc.deliverGap = cfg_.deliverGap;
        factory = [nc](Simulator &sim) {
            return std::make_unique<CrNetwork>(sim, nc);
        };
    } else if (cfg_.substrate == Substrate::Rdma) {
        // CMAM over the RDMA fabric: the model checker drives the
        // NI sink directly, exercising per-QP in-order reliable
        // delivery underneath unchanged software.
        RdmaNetwork::Config nc;
        nc.nodes = cfg_.nodes;
        nc.faults = cfg_.faults;
        nc.injectGap = cfg_.injectGap;
        nc.deliverGap = cfg_.deliverGap;
        factory = [nc](Simulator &sim) {
            return std::make_unique<RdmaNetwork>(sim, nc);
        };
    } else {
        // CMAM over the nicam fabric with an empty handler table:
        // every packet misses to the host, so software-recovery
        // exploration (drop/duplicate choices) still applies.
        NicamNetwork::Config nc;
        nc.nodes = cfg_.nodes;
        nc.orderFactory = cfg_.order ? cfg_.order : fifoOrderFactory();
        nc.faults = cfg_.faults;
        nc.maxJitter = cfg_.maxJitter;
        nc.injectBusyRate = cfg_.injectBusyRate;
        nc.seed = cfg_.seed;
        nc.injectGap = cfg_.injectGap;
        nc.deliverGap = cfg_.deliverGap;
        factory = [nc](Simulator &sim) {
            return std::make_unique<NicamNetwork>(sim, nc);
        };
    }

    machine_ = std::make_unique<Machine>(mc, factory);

    Cmam::Config cc;
    cc.maxSegments = cfg_.maxSegments;
    cc.dmaXfer = cfg_.dmaXfer;
    cc.kernelMediated = cfg_.kernelMediated;
    cmams_.reserve(cfg_.nodes);
    for (std::uint32_t i = 0; i < cfg_.nodes; ++i)
        cmams_.push_back(std::make_unique<Cmam>(machine_->node(i), cc));
}

Cmam &
Stack::cmam(NodeId id)
{
    if (id >= cmams_.size())
        msgsim_panic("cmam: node id ", id, " out of range");
    return *cmams_[id];
}

} // namespace msgsim
