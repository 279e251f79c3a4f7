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

namespace msgsim
{

/**
 * Per-flow delivery-order stage.  The network feeds packets of one
 * (src, dst) flow in transmission order; the policy emits them in the
 * order the destination should see them.
 */
class OrderPolicy
{
  public:
    virtual ~OrderPolicy() = default;

    /**
     * A packet reached the destination edge.  The policy appends the
     * packets to present to the NI (possibly none, possibly several)
     * to @p release, in presentation order.
     */
    virtual void arrive(Packet &&pkt, std::vector<Packet> &release) = 0;

    /** Release any held packets (end of measurement / teardown). */
    virtual void flush(std::vector<Packet> &release) = 0;
};

/** Factory producing a fresh policy instance per flow. */
using OrderPolicyFactory = std::function<std::unique_ptr<OrderPolicy>()>;

/** Transmission-order delivery (no scrambling). */
class FifoOrder : public OrderPolicy
{
  public:
    void
    arrive(Packet &&pkt, std::vector<Packet> &release) override
    {
        release.push_back(std::move(pkt));
    }

    void flush(std::vector<Packet> &) override {}
};

/**
 * Deterministic pairwise swap: packets (2k, 2k+1) of every flow are
 * delivered as (2k+1, 2k).  Exactly half of the packets of a
 * multi-packet sequence arrive before a predecessor — the paper's
 * measurement assumption for in-order-delivery costs.
 */
class SwapAdjacentOrder : public OrderPolicy
{
  public:
    void arrive(Packet &&pkt, std::vector<Packet> &release) override;
    void flush(std::vector<Packet> &release) override;

  private:
    std::optional<Packet> held_;
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

    void arrive(Packet &&pkt, std::vector<Packet> &release) override;
    void flush(std::vector<Packet> &release) override;

  private:
    double swapChance_;
    Rng rng_;
    std::optional<Packet> held_;
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

    void arrive(Packet &&pkt, std::vector<Packet> &release) override;
    void flush(std::vector<Packet> &release) override;

  private:
    std::size_t window_;
    Rng rng_;
    std::vector<Packet> held_;
};

/** Factory helpers. */
OrderPolicyFactory fifoOrderFactory();
OrderPolicyFactory swapAdjacentFactory();
OrderPolicyFactory pairSwapChanceFactory(double swapChance,
                                         std::uint64_t seed);
OrderPolicyFactory randomWindowFactory(std::size_t window,
                                       std::uint64_t seed);

/**
 * The order-scrambling destination edge of an out-of-order fabric
 * (cm5, nicam): one policy per (src, dst, vnet) flow, created on the
 * flow's first packet, and a reused release buffer.
 */
class OrderStage
{
  public:
    /** @p nodes sizes each source's flow row (the fabric's nodes). */
    OrderStage(OrderPolicyFactory factory, std::size_t nodes)
        : factory_(factory ? std::move(factory) : fifoOrderFactory()),
          nodes_(nodes)
    {
    }

    /** Run @p pkt through its flow's policy; call @p deliver on each
     *  released packet, in presentation order. */
    template <typename Deliver>
    void
    arrive(Packet &&pkt, Deliver deliver)
    {
        std::unique_ptr<OrderPolicy> &policy = policies_.at(pkt, nodes_);
        if (!policy)
            policy = factory_();
        OrderPolicy &p = *policy;
        release([&](std::vector<Packet> &out) {
            p.arrive(std::move(pkt), out);
        }, deliver);
    }

    /** Release every held packet, flow by flow in (src, dst, vnet)
     *  order (teardown). */
    template <typename Deliver>
    void
    flush(Deliver deliver)
    {
        policies_.forEach([&](std::unique_ptr<OrderPolicy> &policy) {
            if (policy)
                release([&](std::vector<Packet> &out) {
                    policy->flush(out);
                }, deliver);
        });
    }

  private:
    /**
     * Borrow the spare buffer, let @p fill put packets in it and hand
     * them to @p deliver.  A delivery may re-enter the fabric; a
     * nested call then finds the spare lent out and starts its own.
     */
    template <typename Fill, typename Deliver>
    void
    release(Fill fill, Deliver &deliver)
    {
        std::vector<Packet> out = std::exchange(spare_, {});
        fill(out);
        for (Packet &p : out)
            deliver(std::move(p));
        out.clear();
        if (out.capacity() > spare_.capacity())
            spare_.swap(out);
    }

    OrderPolicyFactory factory_;
    std::size_t nodes_;
    FlowTable<std::unique_ptr<OrderPolicy>> policies_;
    std::vector<Packet> spare_; ///< empty while lent out
};

} // namespace msgsim

#endif // MSGSIM_NET_ORDER_HH
