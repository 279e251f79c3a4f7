#include "tele/probes.hh"

#include "nicam/nicam_network.hh"
#include "protocols/stack.hh"
#include "protocols/stream.hh"
#include "sim/event.hh"
#include "traffic/engine.hh"
#include "wire/mux.hh"

namespace msgsim::tele
{

namespace
{

/** Per-destination link occupancy, identical on every substrate. */
void
addLinkProbes(TeleSession &s, Network &net, std::uint32_t nodes)
{
    for (NodeId id = 0; id < nodes; ++id) {
        s.addProbe({"link", "in_flight", id, ProbeKind::Gauge, 0.0,
                    "fabric link"},
                   [&net, id] {
                       return static_cast<double>(net.inFlightTo(id));
                   });
        s.addProbe({"link", "delivered", id, ProbeKind::Counter, 0.0,
                    ""},
                   [&net, id] {
                       return static_cast<double>(
                           net.deliveredTo(id));
                   });
    }
}

/** Per-node verbs NIC state: CQ depth, posts and backpressure. */
void
addVerbsProbes(TeleSession &s, Stack &stack, std::uint32_t nodes)
{
    for (NodeId id = 0; id < nodes; ++id) {
        RdmaNic &nic = stack.nic(id);
        s.addProbe({"rdma", "cq_depth", id, ProbeKind::Gauge,
                    static_cast<double>(nic.config().cqCapacity),
                    "completion queue"},
                   [&nic] {
                       return static_cast<double>(nic.cqDepth());
                   });
        s.addProbe({"rdma", "posted_recvs", id, ProbeKind::Gauge,
                    0.0, ""},
                   [&nic] {
                       return static_cast<double>(
                           nic.postedRecvCount());
                   });
        s.addProbe({"rdma", "sends_posted", id, ProbeKind::Counter,
                    0.0, ""},
                   [&nic] {
                       return static_cast<double>(nic.sendsPosted());
                   });
        s.addProbe({"rdma", "cq_overflow_stalls", id,
                    ProbeKind::Counter, 0.0, ""},
                   [&nic] {
                       return static_cast<double>(
                           nic.cqOverflowStalls());
                   });
        s.addProbe({"rdma", "rnr_no_recv", id, ProbeKind::Counter,
                    0.0, ""},
                   [&nic] {
                       return static_cast<double>(nic.rnrNoRecv());
                   });
        s.addProbe({"rdma", "send_stalls", id, ProbeKind::Counter,
                    0.0, ""},
                   [&nic] {
                       return static_cast<double>(nic.sendStalls());
                   });
    }
}

} // namespace

std::size_t
registerSimProbes(TeleSession &s, const Simulator &sim)
{
    const std::size_t first = s.addProbe(
        {"sim", "pending_events", invalidNode, ProbeKind::Gauge, 0.0,
         ""},
        [&sim] { return static_cast<double>(sim.pending()); });
    s.addProbe({"sim", "events_dispatched", invalidNode,
                ProbeKind::Counter, 0.0, ""},
               [&sim] {
                   return static_cast<double>(sim.eventsDispatched());
               });
    return first;
}

std::size_t
registerStackProbes(TeleSession &s, Stack &stack)
{
    const std::size_t first = s.tracks().size();
    const std::uint32_t n = stack.machine().nodeCount();
    addLinkProbes(s, stack.network(), n);
    if (stack.config().layer == HostLayer::Verbs) {
        addVerbsProbes(s, stack, n);
        return first;
    }

    const std::size_t cap = stack.config().recvCapacity;
    const bool bounded = cap != static_cast<std::size_t>(-1);
    for (NodeId id = 0; id < n; ++id) {
        NetIface &ni = stack.node(id).ni();
        s.addProbe({"ni", "recv_ring", id, ProbeKind::Gauge,
                    bounded ? static_cast<double>(cap) : 0.0,
                    "NI recv ring"},
                   [&ni] {
                       return static_cast<double>(ni.hwRecvDepth(0) +
                                                  ni.hwRecvDepth(1));
                   });
        s.addProbe({"ni", "send_staged", id, ProbeKind::Gauge, 0.0,
                    ""},
                   [&ni] { return ni.hwSendStaged() ? 1.0 : 0.0; });
        s.addProbe({"ni", "dma_transfers", id, ProbeKind::Counter,
                    0.0, ""},
                   [&ni] {
                       return static_cast<double>(ni.dmaTransfers());
                   });
    }

    if (auto *nicam =
            dynamic_cast<NicamNetwork *>(&stack.network())) {
        s.addProbe({"nicam", "offload_hits", invalidNode,
                    ProbeKind::Counter, 0.0, ""},
                   [nicam] {
                       return static_cast<double>(
                           nicam->offloadHits());
                   });
        s.addProbe({"nicam", "offload_misses", invalidNode,
                    ProbeKind::Counter, 0.0, ""},
                   [nicam] {
                       return static_cast<double>(
                           nicam->offloadMisses());
                   });
    }
    return first;
}

std::size_t
registerChannelProbes(TeleSession &s, const StreamProtocol &proto,
                      Word chan, NodeId src, NodeId dst)
{
    const std::size_t first = s.addProbe(
        {"stream", "unacked", src, ProbeKind::Gauge,
         static_cast<double>(proto.channelRetxSlots(chan)),
         "retransmission ring"},
        [&proto, chan] {
            return static_cast<double>(proto.channelUnacked(chan));
        });
    s.addProbe({"stream", "backlog", src, ProbeKind::Gauge, 0.0, ""},
               [&proto, chan] {
                   return static_cast<double>(
                       proto.channelBacklog(chan));
               });
    s.addProbe({"stream", "reorder_pending", dst, ProbeKind::Gauge,
                static_cast<double>(proto.channelArenaSlots(chan)),
                "reorder arena"},
               [&proto, chan] {
                   return static_cast<double>(
                       proto.channelPending(chan));
               });
    return first;
}

std::size_t
registerMuxProbes(TeleSession &s, const wire::StreamMux &mux)
{
    const std::size_t first = s.tracks().size();
    for (const std::uint16_t sid : mux.sendSids()) {
        TrackDesc d;
        d.layer = "wire";
        d.name = "window_s" + std::to_string(sid);
        d.node = mux.sender();
        d.kind = ProbeKind::Gauge;
        d.capacity = static_cast<double>(mux.window());
        d.resource = "stream send window";
        s.addProbe(d, [&mux, sid] {
            return static_cast<double>(mux.unacked(sid));
        });
        TrackDesc b;
        b.layer = "wire";
        b.name = "backlog_s" + std::to_string(sid);
        b.node = mux.sender();
        b.kind = ProbeKind::Gauge;
        s.addProbe(b, [&mux, sid] {
            return static_cast<double>(mux.backlog(sid));
        });
    }
    s.addProbe({"wire", "window_stalls", mux.sender(),
                ProbeKind::Counter, 0.0, ""},
               [&mux] {
                   return static_cast<double>(
                       mux.stats().windowStalls);
               });
    s.addProbe({"wire", "frames_sent", mux.sender(),
                ProbeKind::Counter, 0.0, ""},
               [&mux] {
                   return static_cast<double>(mux.stats().framesSent);
               });
    return first;
}

std::size_t
registerTrafficProbes(TeleSession &s, const TrafficEngine &eng)
{
    const std::size_t first = s.addProbe(
        {"traffic", "outstanding", invalidNode, ProbeKind::Gauge,
         0.0, ""},
        [&eng] {
            const std::uint64_t sent = eng.fragmentsSent();
            const std::uint64_t got = eng.fragmentsConsumed();
            return static_cast<double>(sent > got ? sent - got : 0);
        });
    s.addProbe({"traffic", "consumed", invalidNode,
                ProbeKind::Counter, 0.0, ""},
               [&eng] {
                   return static_cast<double>(
                       eng.fragmentsConsumed());
               });
    return first;
}

} // namespace msgsim::tele
