#include "cm5net/cm5_network.hh"

#include "hostprof/hostprof.hh"
#include "sim/log.hh"

namespace msgsim
{

Cm5Network::Cm5Network(Simulator &sim, const Config &cfg)
    : Cm5Network(sim, cfg, hostprof::Site::Cm5Route,
                 hostprof::Site::Cm5Deliver)
{
}

Cm5Network::Cm5Network(Simulator &sim, const Config &cfg,
                       hostprof::Site route, hostprof::Site deliver)
    : Network(sim), cfg_(cfg), routeSite_(route), deliverSite_(deliver),
      tree_(cfg.nodes, arity), faults_(cfg.faults), rng_(cfg.seed),
      order_(cfg.orderFactory, cfg.nodes)
{
}

bool
Cm5Network::injectImpl(Slot slot)
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
        break; // travels on; the edge's CRC check will reject it
      case FaultAction::Duplicate:
        // A ghost copy rides the network alongside the original
        // (speculative adaptive retry): route a clone independently,
        // so it takes its own jitter and arrives whenever.  The
        // sequence-number machinery upstairs must suppress it.
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
Cm5Network::routeToEdge(Slot slot)
{
    hostprof::HostScope hs(routeSite_);
    const Packet &pkt = parked(slot);
    Tick latency = baseLatency + hopLatency * tree_.hops(pkt.src, pkt.dst);
    if (cfg_.maxJitter > 0)
        latency += rng_.below(cfg_.maxJitter + 1);

    // Link-bandwidth serialization: packets leave a node no faster
    // than the injection port drains, and arrive at a node no faster
    // than its input port fills.
    const Tick departure = serialize(nextDeparture_, pkt.src, sim_.now(),
                                     cfg_.injectGap);
    const Tick arrival = serialize(nextArrival_, pkt.dst,
                                   departure + latency, cfg_.deliverGap);

    sim_.scheduleAt<&Cm5Network::arriveAtEdge>(arrival, this, slot);
}

void
Cm5Network::arriveAtEdge(Slot slot)
{
    hostprof::HostScope hs(deliverSite_);
    order_.arrive(parked(slot), slot, [this](Slot s) { tryDeliver(s); });
}

void
Cm5Network::tryDeliver(Slot slot)
{
    // Retry events re-enter here outside arriveAtEdge, so the
    // delivery scope opens here too (same-site nesting is fine).
    hostprof::HostScope hs(deliverSite_);
    if (takeAtEdge(slot) || presentToSink(slot))
        return;
    // Sink full: the packet occupies network buffers and is offered
    // again later — backpressure.
    ++stats_.deliveryRetries;
    sim_.scheduleAt<&Cm5Network::tryDeliver>(sim_.now() + retryDelay, this,
                                             slot);
}

void
Cm5Network::flushHeldPackets()
{
    order_.flush([this](Slot s) { tryDeliver(s); });
}

} // namespace msgsim
