#include "rdmanet/rdma_network.hh"

#include "hostprof/hostprof.hh"
#include "sim/log.hh"

namespace msgsim
{

RdmaNetwork::RdmaNetwork(Simulator &sim, const Config &cfg)
    : Network(sim), cfg_(cfg), tree_(cfg.nodes, cfg.arity),
      faults_(cfg.faults)
{
}

bool
RdmaNetwork::injectImpl(Packet &&pkt)
{
    hostprof::HostScope hs(hostprof::Site::RdmaRoute);
    Tick latency = cfg_.baseLatency +
                   cfg_.hopLatency * tree_.hops(pkt.src, pkt.dst);

    // Link-level reliability: probe the injector on a copy; every hit
    // models a CRC-failed (or PFC-paused) link transfer retried by
    // the adjacent switches.  The payload that finally crosses is
    // intact, exactly once.  An unarmed injector can only answer
    // None, so no probe is copied for it.
    while (faults_.armed()) {
        Packet probe = pkt;
        if (faults_.apply(probe) == FaultAction::None)
            break;
        ++stats_.hwRetries;
        trace(TraceEvent::HwRetry, pkt);
        latency += cfg_.linkRetryDelay;
    }

    // Link-bandwidth serialization at both endpoints.
    const Tick departure = serialize(nextDeparture_, pkt.src, sim_.now(),
                                     cfg_.injectGap);
    // Per-QP ordering: a packet never arrives before its flow
    // predecessor.
    FlowState &flow = flows_.at(pkt, cfg_.nodes);
    const Tick arrival =
        serialize(nextAtDest_, pkt.dst,
                  std::max(departure + latency, flow.nextArrival),
                  cfg_.deliverGap);
    flow.nextArrival = arrival + 1;

    scheduleParked<&RdmaNetwork::arrive>(arrival, this, std::move(pkt));
    return true;
}

void
RdmaNetwork::arrive(Packet &&pkt)
{
    hostprof::HostScope hs(hostprof::Site::RdmaDeliver);
    const NodeId src = pkt.src;
    const std::uint32_t lane = flowLane(pkt.dst, pkt.vnet);
    flows_.at(src, lane, cfg_.nodes).queue.push_back(std::move(pkt));
    drain(src, lane);
}

void
RdmaNetwork::drain(NodeId src, std::uint32_t lane)
{
    // RNR-retry closures re-enter here outside arrive().
    hostprof::HostScope hs(hostprof::Site::RdmaDeliver);
    FlowState &state = flows_.at(src, lane, cfg_.nodes);
    state.drainScheduled = false;
    while (!state.queue.empty()) {
        if (!presentToSink(state.queue.front())) {
            // Receiver not ready (no posted receive / CQ full): the
            // fabric NAKs and retries later; younger packets wait
            // behind, so per-QP order is preserved.
            ++stats_.deliveryRetries;
            if (!state.drainScheduled) {
                state.drainScheduled = true;
                sim_.schedule(cfg_.rnrRetryDelay,
                              [this, src, lane] { drain(src, lane); });
            }
            return;
        }
        state.queue.pop_front();
    }
}

} // namespace msgsim
