#include "nicam/nicam_network.hh"

#include "hostprof/hostprof.hh"
#include "net/lineage_hook.hh"
#include "sim/log.hh"

namespace msgsim
{

NicamNetwork::NicamNetwork(Simulator &sim, const Config &cfg)
    : Network(sim), cfg_(cfg), tree_(cfg.nodes, cfg.arity),
      faults_(cfg.faults), rng_(cfg.seed),
      order_(cfg.orderFactory, cfg.nodes)
{
    if (cfg_.maxOffloadEntries < 1)
        msgsim_fatal("nicam handler table needs at least one entry");
}

bool
NicamNetwork::offloadHandler(NodeId dst, HwTag tag, Word selector,
                             OffloadFn fn)
{
    auto &table = tables_[dst];
    const TableKey key{static_cast<int>(tag), selector};
    if (!table.count(key) &&
        static_cast<int>(table.size()) >= cfg_.maxOffloadEntries)
        return false; // table full: the host must dispatch this one
    table[key] = OffloadEntry{std::move(fn), 0};
    return true;
}

void
NicamNetwork::removeOffload(NodeId dst, HwTag tag, Word selector)
{
    auto it = tables_.find(dst);
    if (it == tables_.end())
        return;
    it->second.erase(TableKey{static_cast<int>(tag), selector});
}

std::uint64_t
NicamNetwork::offloadHits(NodeId dst, HwTag tag, Word selector) const
{
    auto it = tables_.find(dst);
    if (it == tables_.end())
        return 0;
    auto jt =
        it->second.find(TableKey{static_cast<int>(tag), selector});
    return jt == it->second.end() ? 0 : jt->second.hits;
}

int
NicamNetwork::offloadEntries(NodeId dst) const
{
    auto it = tables_.find(dst);
    return it == tables_.end() ? 0
                               : static_cast<int>(it->second.size());
}

bool
NicamNetwork::injectImpl(Slot slot)
{
    if (cfg_.injectBusyRate > 0.0 && rng_.chance(cfg_.injectBusyRate))
        return false; // send_ok will read 0; software retries the push

    Packet &pkt = parked(slot);
    // An unarmed injector would answer None with no side effects.
    const FaultAction action =
        faults_.armed() ? faults_.apply(pkt) : FaultAction::None;
    switch (action) {
      case FaultAction::Drop:
        ++stats_.dropped;
        noteAbsorbed(pkt.dst);
        trace(TraceEvent::Drop, pkt);
        release(slot);
        return true; // accepted by the network, silently lost inside
      case FaultAction::Corrupt:
        ++stats_.corrupted;
        trace(TraceEvent::Corrupt, pkt);
        break; // travels on; CRC is checked at the edge (NIC or NI)
      case FaultAction::Duplicate:
        ++stats_.duplicated;
        trace(TraceEvent::Duplicate, pkt);
        routeToEdge(park(Packet(pkt)));
        break;
      case FaultAction::None:
        break;
    }

    routeToEdge(slot);
    return true;
}

void
NicamNetwork::routeToEdge(Slot slot)
{
    hostprof::HostScope hs(hostprof::Site::NicamRoute);
    const Packet &pkt = parked(slot);
    Tick latency = cfg_.baseLatency +
                   cfg_.hopLatency * tree_.hops(pkt.src, pkt.dst);
    if (cfg_.maxJitter > 0)
        latency += rng_.below(cfg_.maxJitter + 1);

    const Tick departure = serialize(nextDeparture_, pkt.src, sim_.now(),
                                     cfg_.injectGap);
    const Tick arrival = serialize(nextArrival_, pkt.dst,
                                   departure + latency, cfg_.deliverGap);

    sim_.scheduleAt<&NicamNetwork::arriveAtEdge>(arrival, this, slot);
}

void
NicamNetwork::arriveAtEdge(Slot slot)
{
    hostprof::HostScope hs(hostprof::Site::NicamDeliver);
    order_.arrive(parked(slot), slot, [this](Slot s) { tryDeliver(s); });
}

void
NicamNetwork::tryDeliver(Slot slot)
{
    // Retry events re-enter here outside arriveAtEdge, so the
    // delivery scope opens here too (same-site nesting is fine).
    hostprof::HostScope hs(hostprof::Site::NicamDeliver);
    const Packet &pkt = parked(slot);

    // NIC handler-table lookup (hardware match-action; uncharged).
    auto nt = tables_.find(pkt.dst);
    if (nt != tables_.end() && !nt->second.empty()) {
        const TableKey key{static_cast<int>(pkt.tag),
                           hdr::fieldA(pkt.header)};
        auto entry = nt->second.find(key);
        if (entry != nt->second.end()) {
            // NIC CRC check: detection as on the NI, but the discard
            // happens before the handler fires.
            if (!pkt.checksumOk()) {
                ++offloadCrcDrops_;
                noteAbsorbed(pkt.dst);
                release(slot);
                return; // consumed and dropped, as the NI would
            }
            ++stats_.delivered;
            noteDelivered(pkt.dst);
            trace(TraceEvent::Deliver, pkt);
            ++offloadHits_;
            ++entry->second.hits;
            LineageHooks *lh = LineageHooks::current();
            if (lh)
                lh->handlerBegin(pkt.dst, pkt, sim_.now());
            // The handler may inject (a reply parks beside this
            // request); the pool never moves a parked packet, so pkt
            // stays valid until its slot is released.
            entry->second.fn(pkt);
            if (lh)
                lh->handlerEnd(pkt.dst, sim_.now());
            release(slot);
            return;
        }
        ++offloadMisses_; // non-empty table, no match: host fallback
    }

    if (presentToSink(slot))
        return;
    // Sink full: the packet occupies network buffers and is offered
    // again later — backpressure.
    ++stats_.deliveryRetries;
    sim_.scheduleAt<&NicamNetwork::tryDeliver>(
        sim_.now() + cfg_.retryDelay, this, slot);
}

void
NicamNetwork::flushHeldPackets()
{
    order_.flush([this](Slot s) { tryDeliver(s); });
}

} // namespace msgsim
