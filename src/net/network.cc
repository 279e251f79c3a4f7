#include "net/network.hh"

#include "hostprof/hostprof.hh"
#include "sim/log.hh"

namespace msgsim
{

void
Network::attach(NodeId id, DeliverFn fn)
{
    growTo(sinks_, id) = std::move(fn);
    // Boot-time sizing of the per-destination link counters: the hot
    // paths below only ever increment, never allocate.
    if (id >= injectedTo_.size()) {
        injectedTo_.resize(id + 1, 0);
        settledTo_.resize(id + 1, 0);
        deliveredTo_.resize(id + 1, 0);
    }
}

bool
Network::inject(Packet &&pkt)
{
    hostprof::HostScope hs(hostprof::Site::NetInject);
    std::uint64_t &flowCount = flowCounters_.at(pkt, sinks_.size());
    const NodeId flowDst = pkt.dst;
    pkt.injectSeq = nextInjectSeq_;
    pkt.flowIndex = flowCount;
    pkt.seal();
    trace(TraceEvent::Inject, pkt);
    if (gate_ != nullptr) {
        // A schedule gate replaces the substrate: it owns the packet
        // until it decides its fate through the gate*() re-entry
        // points.  Injection always succeeds (port backpressure is a
        // substrate behaviour the gate models explicitly, if at all).
        gate_->capture(std::move(pkt));
    } else if (!injectImpl(std::move(pkt))) {
        return false;
    }
    ++nextInjectSeq_;
    ++flowCount;
    ++stats_.injected;
    if (flowDst < injectedTo_.size())
        ++injectedTo_[flowDst];
    return true;
}

bool
Network::gateDeliver(Packet &pkt)
{
    return presentToSink(pkt);
}

void
Network::gateDrop(const Packet &pkt)
{
    ++stats_.dropped;
    noteAbsorbed(pkt.dst);
    trace(TraceEvent::Drop, pkt);
}

void
Network::gateCorrupt(Packet &pkt)
{
    if (!pkt.data.empty())
        pkt.data[0] ^= 0x1u << (pkt.injectSeq % 32);
    else
        pkt.header ^= 0x1u;
    pkt.corrupted = true;
    ++stats_.corrupted;
    trace(TraceEvent::Corrupt, pkt);
}

void
Network::gateDuplicate(const Packet &pkt)
{
    ++stats_.duplicated;
    trace(TraceEvent::Duplicate, pkt);
}

bool
Network::presentToSink(Packet &pkt)
{
    hostprof::HostScope hs(hostprof::Site::NetDeliver);
    if (pkt.dst >= sinks_.size() || !sinks_[pkt.dst])
        msgsim_panic("no sink attached for node ", pkt.dst);
    // Capture trace metadata before the sink may consume the packet.
    Packet meta;
    if (tracer_ || LineageHooks::current()) {
        meta.src = pkt.src;
        meta.dst = pkt.dst;
        meta.tag = pkt.tag;
        meta.header = pkt.header;
        meta.injectSeq = pkt.injectSeq;
        meta.lineage = pkt.lineage;
    }
    const NodeId sinkDst = pkt.dst;
    const bool accepted = sinks_[sinkDst](pkt);
    if (accepted) {
        ++stats_.delivered;
        noteDelivered(sinkDst);
        trace(TraceEvent::Deliver, meta);
    } else {
        trace(TraceEvent::Reject, meta);
    }
    return accepted;
}

Network::Slot
Network::park(Packet &&pkt)
{
    if (freeSlots_.empty()) {
        pool_.push_back(std::move(pkt));
        return static_cast<Slot>(pool_.size() - 1);
    }
    const Slot slot = freeSlots_.back();
    freeSlots_.pop_back();
    pool_[slot] = std::move(pkt);
    return slot;
}

Packet
Network::unpark(Slot slot)
{
    Packet pkt = std::move(pool_[slot]);
    freeSlots_.push_back(slot);
    return pkt;
}

} // namespace msgsim
