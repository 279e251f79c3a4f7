#include "cm5net/cm5_network.hh"

#include "hostprof/hostprof.hh"
#include "sim/log.hh"

namespace msgsim
{

Cm5Network::Cm5Network(Simulator &sim, const Config &cfg)
    : Network(sim), cfg_(cfg), tree_(cfg.nodes, cfg.arity),
      faults_(cfg.faults), rng_(cfg.seed),
      order_(cfg.orderFactory, cfg.nodes)
{
}

bool
Cm5Network::injectImpl(Packet &&pkt)
{
    if (cfg_.injectBusyRate > 0.0 && rng_.chance(cfg_.injectBusyRate))
        return false; // send_ok will read 0; software retries the push

    // An unarmed injector would answer None with no side effects.
    const FaultAction action =
        faults_.armed() ? faults_.apply(pkt) : FaultAction::None;
    switch (action) {
      case FaultAction::Drop:
        ++stats_.dropped;
        noteAbsorbed(pkt.dst);
        trace(TraceEvent::Drop, pkt);
        return true; // accepted by the network, silently lost inside
      case FaultAction::Corrupt:
        ++stats_.corrupted;
        trace(TraceEvent::Corrupt, pkt);
        break; // travels on; the NI's CRC check will reject it
      case FaultAction::Duplicate:
        // A ghost copy rides the network alongside the original
        // (speculative adaptive retry): route a clone independently,
        // so it takes its own jitter and arrives whenever.  The
        // sequence-number machinery upstairs must suppress it.
        ++stats_.duplicated;
        trace(TraceEvent::Duplicate, pkt);
        routeToEdge(Packet(pkt));
        break;
      case FaultAction::None:
        break;
    }

    routeToEdge(std::move(pkt));
    return true;
}

void
Cm5Network::routeToEdge(Packet &&pkt)
{
    hostprof::HostScope hs(hostprof::Site::Cm5Route);
    Tick latency = cfg_.baseLatency +
                   cfg_.hopLatency * tree_.hops(pkt.src, pkt.dst);
    if (cfg_.maxJitter > 0)
        latency += rng_.below(cfg_.maxJitter + 1);

    // Link-bandwidth serialization: packets leave a node no faster
    // than the injection port drains, and arrive at a node no faster
    // than its input port fills.
    const Tick departure = serialize(nextDeparture_, pkt.src, sim_.now(),
                                     cfg_.injectGap);
    const Tick arrival = serialize(nextArrival_, pkt.dst,
                                   departure + latency, cfg_.deliverGap);

    scheduleParked<&Cm5Network::arriveAtEdge>(arrival, this,
                                              std::move(pkt));
}

void
Cm5Network::arriveAtEdge(Packet &&pkt)
{
    hostprof::HostScope hs(hostprof::Site::Cm5Deliver);
    order_.arrive(std::move(pkt),
                  [this](Packet &&p) { tryDeliver(std::move(p)); });
}

void
Cm5Network::tryDeliver(Packet &&pkt)
{
    // Retry closures re-enter here outside arriveAtEdge, so the
    // delivery scope opens here too (same-site nesting is fine).
    hostprof::HostScope hs(hostprof::Site::Cm5Deliver);
    if (presentToSink(pkt))
        return;
    // Sink full: the packet occupies network buffers and is offered
    // again later — backpressure.
    ++stats_.deliveryRetries;
    scheduleParked<&Cm5Network::tryDeliver>(sim_.now() + cfg_.retryDelay,
                                            this, std::move(pkt));
}

void
Cm5Network::flushHeldPackets()
{
    order_.flush([this](Packet &&p) { tryDeliver(std::move(p)); });
}

} // namespace msgsim
