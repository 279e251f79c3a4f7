#include "net/network.hh"

#include "hostprof/hostprof.hh"
#include "sim/log.hh"

namespace msgsim
{

void
Network::attach(NodeId id, SlotSinkFn fn)
{
    // Boot-time sizing of the per-destination link counters: the hot
    // paths below only ever increment, never allocate.
    if (id >= injectedTo_.size()) {
        injectedTo_.resize(id + 1, 0);
        settledTo_.resize(id + 1, 0);
        deliveredTo_.resize(id + 1, 0);
    }
    growTo(sinks_, id) = std::move(fn);
}

bool
Network::inject(Packet &&pkt)
{
    hostprof::HostScope hs(hostprof::Site::NetInject);
    const Slot slot = park(std::move(pkt));
    if (launch(slot))
        return true;
    pkt = std::move(pool_[slot]); // port busy: the caller keeps it
    release(slot);
    return false;
}

bool
Network::injectParked(Slot slot)
{
    hostprof::HostScope hs(hostprof::Site::NetInject);
    return launch(slot);
}

bool
Network::launch(Slot slot)
{
    Packet &pkt = pool_[slot];
    const NodeId flowDst = pkt.dst;
    pkt.injectSeq = nextInjectSeq_;
#ifdef MSGSIM_CHECKED
    pkt.seal(); // what the destination's check compares (packet.hh)
#endif
    trace(TraceEvent::Inject, pkt);
    if (gate_ != nullptr) {
        // A schedule gate replaces the substrate: it holds the slot
        // until it decides the packet's fate through the same acts an
        // engine performs.  Injection always succeeds (port
        // backpressure is a substrate behaviour the gate models
        // explicitly, if at all).
        gate_->capture(slot);
    } else if (!injectImpl(slot)) {
        return false; // port busy: the slot stays with the caller
    }
    ++nextInjectSeq_;
    ++stats_.injected;
    if (flowDst < injectedTo_.size())
        ++injectedTo_[flowDst];
    return true;
}

void
Network::drop(Slot slot)
{
    const Packet &pkt = pool_[slot];
    ++stats_.dropped;
    noteAbsorbed(pkt.dst);
    trace(TraceEvent::Drop, pkt);
    release(slot);
}

void
Network::corrupt(Slot slot)
{
    Packet &pkt = pool_[slot];
    if (!pkt.data.empty())
        pkt.data[0] ^= 0x1u << (pkt.injectSeq % 32);
    else
        pkt.header ^= 0x1u;
    pkt.corrupted = true;
    ++stats_.corrupted;
    trace(TraceEvent::Corrupt, pkt);
}

Network::Slot
Network::duplicate(Slot slot)
{
    const Packet &pkt = pool_[slot];
    ++stats_.duplicated;
    trace(TraceEvent::Duplicate, pkt);
    if (pkt.dst < injectedTo_.size())
        ++injectedTo_[pkt.dst]; // the copy is in flight too
    return park(Packet(pkt));
}

bool
Network::presentToSink(Slot slot)
{
    hostprof::HostScope hs(hostprof::Site::NetDeliver);
    Packet &pkt = pool_[slot];
    const NodeId dst = pkt.dst;
    if (dst >= sinks_.size() || !sinks_[dst])
        msgsim_panic("no sink attached for node ", dst);
    const Take took = sinks_[dst](slot);
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
Network::takeSlot()
{
    if (freeSlots_.empty())
        return pool_.fresh();
    const Slot slot = freeSlots_.back();
    freeSlots_.pop_back();
    return slot;
}

Network::Slot
Network::park(Packet &&pkt)
{
    const Slot slot = takeSlot();
    pool_[slot] = std::move(pkt);
    return slot;
}

Network::Slot
Network::stage(NodeId src, NodeId dst, HwTag tag, Word header,
               unsigned vnet)
{
    // Every field as a freshly built packet has it: a recycled slot
    // still holds its last packet's words, stamps and lineage.
    const Slot slot = takeSlot();
    Packet &pkt = pool_[slot];
    pkt = Packet(src, dst, tag, header, Payload());
    pkt.vnet = static_cast<std::uint8_t>(vnet);
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

} // namespace msgsim
