#include "crnet/cr_network.hh"

#include "hostprof/hostprof.hh"
#include "sim/log.hh"

namespace msgsim
{

CrNetwork::CrNetwork(Simulator &sim, const Config &cfg)
    : Network(sim), cfg_(cfg), tree_(cfg.nodes, cfg.arity),
      faults_(cfg.faults)
{
}

bool
CrNetwork::injectImpl(Packet &&pkt)
{
    hostprof::HostScope hs(hostprof::Site::CrRoute);
    Tick latency = cfg_.baseLatency +
                   cfg_.hopLatency * tree_.hops(pkt.src, pkt.dst);

    // Packet-level fault tolerance: probe the injector on a copy; every
    // hit (drop, corruption, or a would-be duplicate) models a
    // killed-and-retransmitted packet.  The payload that finally
    // arrives is always intact, exactly once.  An unarmed injector
    // can only answer None, so no probe is copied for it.
    while (faults_.armed()) {
        Packet probe = pkt;
        if (faults_.apply(probe) == FaultAction::None)
            break;
        ++stats_.hwRetries;
        trace(TraceEvent::HwRetry, pkt);
        latency += cfg_.hwRetryDelay;
    }

    // Link-bandwidth serialization at both endpoints.
    const Tick departure = serialize(nextDeparture_, pkt.src, sim_.now(),
                                     cfg_.injectGap);
    // Order preservation: a packet never arrives before its flow
    // predecessor.
    FlowState &flow = flows_.at(pkt, cfg_.nodes);
    const Tick arrival =
        serialize(nextAtDest_, pkt.dst,
                  std::max(departure + latency, flow.nextArrival),
                  cfg_.deliverGap);
    flow.nextArrival = arrival + 1;

    scheduleParked<&CrNetwork::arrive>(arrival, this, std::move(pkt));
    return true;
}

void
CrNetwork::arrive(Packet &&pkt)
{
    hostprof::HostScope hs(hostprof::Site::CrDeliver);
    const NodeId src = pkt.src;
    const std::uint32_t lane = flowLane(pkt.dst, pkt.vnet);
    flows_.at(src, lane, cfg_.nodes).queue.push_back(std::move(pkt));
    drain(src, lane);
}

void
CrNetwork::drain(NodeId src, std::uint32_t lane)
{
    // Reject-retry closures re-enter here outside arrive().
    hostprof::HostScope hs(hostprof::Site::CrDeliver);
    FlowState &state = flows_.at(src, lane, cfg_.nodes);
    state.drainScheduled = false;
    while (!state.queue.empty()) {
        if (!presentToSink(state.queue.front())) {
            // Header rejected: hardware tears the path down and
            // retransmits later; younger packets wait behind, so
            // order is preserved.
            ++stats_.deliveryRetries;
            if (!state.drainScheduled) {
                state.drainScheduled = true;
                sim_.schedule(cfg_.rejectRetryDelay,
                              [this, src, lane] { drain(src, lane); });
            }
            return;
        }
        state.queue.pop_front();
    }
}

} // namespace msgsim
