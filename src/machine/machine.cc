#include "machine/machine.hh"

#include "sim/log.hh"

namespace msgsim
{

Machine::Machine(const Config &cfg, const NetworkFactory &makeNetwork)
    : cfg_(cfg)
{
    if (cfg_.nodes == 0)
        msgsim_fatal("machine needs at least one node");
    net_ = makeNetwork(sim_);
    if (!net_)
        msgsim_panic("network factory returned null");

    NetIface::Config ni_cfg;
    ni_cfg.dataWords = cfg_.dataWords;
    ni_cfg.recvCapacity = cfg_.recvCapacity;
    nodes_.reserve(cfg_.nodes);
    for (std::uint32_t i = 0; i < cfg_.nodes; ++i)
        nodes_.push_back(std::make_unique<Node>(i, *net_, cfg_.memWords,
                                                ni_cfg));
}

void
Machine::nodeOutOfRange(NodeId id) const
{
    msgsim_panic("node id ", id, " out of range ", nodes_.size());
}

void
Machine::settle(std::uint64_t maxEvents)
{
    for (int round = 0; round < 64; ++round) {
        sim_.run(maxEvents);
        net_->flushHeldPackets();
        if (sim_.idle())
            return;
    }
    msgsim_panic("machine failed to settle: order stages keep "
                 "producing work");
}

} // namespace msgsim
