/**
 * @file
 * Delivery-order policies.
 *
 * The CM-5 data network does not preserve transmission order (adaptive
 * up-path randomization, virtual channels).  We model order scrambling
 * as a per-flow policy stage at the destination edge of the network,
 * which both makes reordering *controllable* — the paper's
 * measurement condition "half the packets arrive out of order" becomes
 * the deterministic SwapAdjacentOrder policy — and *reproducible*
 * (seeded policies).
 */

#ifndef MSGSIM_NET_ORDER_HH
#define MSGSIM_NET_ORDER_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "net/network.hh"
#include "net/packet.hh"
#include "sim/rng.hh"
#include "sim/scratch.hh"

namespace msgsim
{

/**
 * Per-flow delivery-order stage.  The network feeds the pool slots of
 * one (src, dst) flow's packets in transmission order; the policy
 * emits them in the order the destination should see them.  Policies
 * reorder handles only: the packets stay parked.
 */
class OrderPolicy
{
  public:
    using Slot = Network::Slot;

    virtual ~OrderPolicy() = default;

    /**
     * A packet reached the destination edge.  The policy appends the
     * packets to present to the NI (possibly none, possibly several)
     * to @p release, in presentation order.
     */
    virtual void arrive(Slot pkt, std::vector<Slot> &release) = 0;

    /** Release any held packets (end of measurement / teardown). */
    virtual void flush(std::vector<Slot> &release) = 0;
};

/** Factory producing a fresh policy instance per flow. */
using OrderPolicyFactory = std::function<std::unique_ptr<OrderPolicy>()>;

/**
 * Deterministic pairwise swap: packets (2k, 2k+1) of every flow are
 * delivered as (2k+1, 2k).  Exactly half of the packets of a
 * multi-packet sequence arrive before a predecessor — the paper's
 * measurement assumption for in-order-delivery costs.
 */
class SwapAdjacentOrder : public OrderPolicy
{
  public:
    void arrive(Slot pkt, std::vector<Slot> &release) override;
    void flush(std::vector<Slot> &release) override;

  private:
    std::optional<Slot> held_;
};

/**
 * Randomized pairwise swap: at each decision point the next two
 * packets are swapped with probability q = @p swapChance (consuming
 * two packets) or the next packet passes through (consuming one).
 * The expected out-of-order packet fraction is therefore
 * f = q / (1 + q), in [0, 0.5]; invert with q = f / (1 - f).
 */
class PairSwapChanceOrder : public OrderPolicy
{
  public:
    PairSwapChanceOrder(double swapChance, std::uint64_t seed)
        : swapChance_(swapChance), rng_(seed)
    {
    }

    void arrive(Slot pkt, std::vector<Slot> &release) override;
    void flush(std::vector<Slot> &release) override;

  private:
    double swapChance_;
    Rng rng_;
    std::optional<Slot> held_;
    bool swapCurrent_ = false;
};

/**
 * Windowed random permutation: buffers @p window packets and releases
 * them in a random order; models deep adaptive scrambling with
 * out-of-order fractions above one half.
 */
class RandomWindowOrder : public OrderPolicy
{
  public:
    RandomWindowOrder(std::size_t window, std::uint64_t seed)
        : window_(window), rng_(seed)
    {
    }

    void arrive(Slot pkt, std::vector<Slot> &release) override;
    void flush(std::vector<Slot> &release) override;

  private:
    std::size_t window_;
    Rng rng_;
    std::vector<Slot> held_;
};

/** Factory helpers. */
OrderPolicyFactory swapAdjacentFactory();
OrderPolicyFactory pairSwapChanceFactory(double swapChance,
                                         std::uint64_t seed);
OrderPolicyFactory randomWindowFactory(std::size_t window,
                                       std::uint64_t seed);

/**
 * The order-scrambling destination edge of an out-of-order fabric
 * (cm5, nicam): one policy per (src, dst, vnet) flow, created on the
 * flow's first packet.  With no factory the edge keeps no state and
 * presents each packet as it arrives, in transmission order per flow.
 */
class OrderStage
{
  public:
    using Slot = Network::Slot;

    /** @p nodes sizes each source's flow row (the fabric's nodes). */
    OrderStage(OrderPolicyFactory factory, std::uint32_t nodes)
        : factory_(std::move(factory)), nodes_(nodes)
    {
    }

    /** Run @p slot, holding @p pkt, through its flow's policy; call
     *  @p deliver on each released slot, in presentation order. */
    template <typename Deliver>
    void
    arrive(const Packet &pkt, Slot slot, Deliver deliver)
    {
        if (!factory_) {
            deliver(slot);
            return;
        }
        std::unique_ptr<OrderPolicy> &policy = policies_.at(pkt, nodes_);
        if (!policy)
            policy = factory_();
        OrderPolicy &p = *policy;
        ++held_;
        release([&](std::vector<Slot> &out) { p.arrive(slot, out); },
                deliver);
    }

    /** Release every held packet, flow by flow in (src, dst, vnet)
     *  order (teardown).  Holding none, it visits no policy: an empty
     *  policy releases nothing and draws no random numbers. */
    template <typename Deliver>
    void
    flush(Deliver deliver)
    {
        if (held_ == 0)
            return;
        policies_.forEach([&](std::unique_ptr<OrderPolicy> &policy) {
            if (policy)
                release([&](std::vector<Slot> &out) {
                    policy->flush(out);
                }, deliver);
        });
    }

  private:
    /**
     * Let @p fill put released slots in a leased buffer and hand them
     * to @p deliver.  Leased, because a delivery may re-enter the
     * fabric and release more while this buffer is still being read.
     */
    template <typename Fill, typename Deliver>
    void
    release(Fill fill, Deliver &deliver)
    {
        ScratchPool<std::vector<Slot>>::Lease out(buffers_);
        fill(*out);
        held_ -= static_cast<std::uint32_t>(out->size());
        for (const Slot s : *out)
            deliver(s);
    }

    OrderPolicyFactory factory_;
    // Two 32-bit fields in one word, so counting costs the stage no
    // size: node ids are 32 bits, and no more slots exist than a
    // 32-bit Slot names.
    std::uint32_t nodes_;
    std::uint32_t held_ = 0; ///< arrivals minus released slots
    FlowTable<std::unique_ptr<OrderPolicy>> policies_;
    ScratchPool<std::vector<Slot>> buffers_;
};

} // namespace msgsim

#endif // MSGSIM_NET_ORDER_HH
