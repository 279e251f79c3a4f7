/**
 * @file
 * RDMA/verbs-style network substrate.
 *
 * The fabric half of a modern verbs NIC (the layered cost breakdown
 * of "Breaking Band", arXiv 2002.02563) is a lossless,
 * credit-flow-controlled switched fabric whose queue pairs see
 * reliable, strictly in-order delivery; link-level retry absorbs
 * faults and a receiver-not-ready NAK holds a flow until the
 * destination accepts.  Those are CR's three services, so this
 * fabric runs CrNetwork's engine, its host time charged to the rdma
 * subsystem.
 *
 * What is new versus CrNetwork is declared in features(): zero-copy
 * delivery into registered regions and host-polled completion queues
 * — capabilities the RdmaNic host layer exploits and the
 * differential profiler measures as the completion-poll and
 * registration feature columns.
 */

#ifndef MSGSIM_RDMANET_RDMA_NETWORK_HH
#define MSGSIM_RDMANET_RDMA_NETWORK_HH

#include "crnet/cr_network.hh"
#include "hostprof/hostprof.hh"

namespace msgsim
{

/**
 * Reliable, per-QP-in-order, acceptance-independent RDMA fabric.
 */
class RdmaNetwork : public CrNetwork
{
  public:
    RdmaNetwork(Simulator &sim, const Config &cfg)
        : CrNetwork(sim, cfg, hostprof::Site::RdmaRoute,
                    hostprof::Site::RdmaDeliver)
    {
    }

    static constexpr NetFeatures hwFeatures{
        .inOrderDelivery = true,
        .reliableDelivery = true,
        .acceptanceIndependent = true,
        .zeroCopy = true,
        .completionQueue = true,
    };

    NetFeatures features() const override { return hwFeatures; }
};

} // namespace msgsim

#endif // MSGSIM_RDMANET_RDMA_NETWORK_HH
