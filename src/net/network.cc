#include "net/network.hh"

#include "hostprof/hostprof.hh"
#include "sim/log.hh"

namespace msgsim
{

Network::Sink &
Network::sinkAt(NodeId id)
{
    // Boot-time sizing of the per-destination link counters: the hot
    // paths below only ever increment, never allocate.
    if (id >= injectedTo_.size()) {
        injectedTo_.resize(id + 1, 0);
        settledTo_.resize(id + 1, 0);
        deliveredTo_.resize(id + 1, 0);
    }
    Sink &sink = growTo(sinks_, id);
    sink = Sink();
    return sink;
}

void
Network::attach(NodeId id, DeliverFn fn)
{
    sinkAt(id).packet = std::move(fn);
}

void
Network::attach(NodeId id, SlotSinkFn fn)
{
    sinkAt(id).slot = std::move(fn);
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
    } else {
        const Slot slot = park(std::move(pkt));
        if (!injectImpl(slot)) {
            pkt = unpark(slot); // port busy: the caller keeps the packet
            return false;
        }
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
    const Slot slot = park(std::move(pkt));
    if (presentToSink(slot))
        return true;
    pkt = unpark(slot);
    return false;
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
Network::presentToSink(Slot slot)
{
    hostprof::HostScope hs(hostprof::Site::NetDeliver);
    Packet &pkt = pool_[slot];
    const NodeId dst = pkt.dst;
    if (dst >= sinks_.size())
        msgsim_panic("no sink attached for node ", dst);
    Take took;
    if (const Sink &sink = sinks_[dst]; sink.slot)
        took = sink.slot(slot);
    else if (sink.packet)
        took = sink.packet(pkt) ? Take::Consumed : Take::Refused;
    else
        msgsim_panic("no sink attached for node ", dst);
    // The packet is still in its slot (a Kept one sits in the sink's
    // queue; a consuming sink moved at most its payload out), so the
    // trace reads its envelope from there.
    if (took == Take::Refused) {
        trace(TraceEvent::Reject, pkt);
        return false;
    }
    ++stats_.delivered;
    noteDelivered(dst);
    trace(TraceEvent::Deliver, pkt);
    if (took == Take::Consumed)
        release(slot);
    return true;
}

Network::Slot
Network::park(Packet &&pkt)
{
    Slot slot;
    if (freeSlots_.empty()) {
        slot = pool_.fresh();
    } else {
        slot = freeSlots_.back();
        freeSlots_.pop_back();
    }
    pool_[slot] = std::move(pkt);
    return slot;
}

void
Network::release(Slot slot)
{
    Packet &pkt = pool_[slot];
    if (pkt.data.spilled())
        pkt.data = Payload(); // free a large payload's block now
    freeSlots_.push_back(slot);
}

Packet
Network::unpark(Slot slot)
{
    Packet pkt = std::move(pool_[slot]);
    freeSlots_.push_back(slot);
    return pkt;
}

} // namespace msgsim
