/**
 * @file
 * The delivery-schedule controller: a ScheduleGate that holds every
 * injected packet's slot in a visible in-flight set and executes
 * explicit Choice decisions against it, through the network's
 * deliver(), drop(), corrupt() and duplicate().
 *
 * Substrate semantics are respected through NetFeatures:
 *  - an in-order substrate (CR) only exposes each flow's *oldest*
 *    packet for delivery — younger packets are not schedulable until
 *    the flow head goes;
 *  - a reliable substrate (CR) exposes no fault choices at all
 *    (hardware retransmission absorbs them; see CrNetwork).
 */

#ifndef MSGSIM_CHECK_CONTROLLER_HH
#define MSGSIM_CHECK_CONTROLLER_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "check/schedule.hh"
#include "net/network.hh"

namespace msgsim::check
{

/** One captured packet awaiting a scheduling decision. */
struct InFlight
{
    std::uint64_t id = 0;   ///< controller-assigned, capture order
    Network::Slot slot = 0; ///< where the packet stays parked meanwhile
};

class ScheduleController : public ScheduleGate
{
  public:
    /** Called just before a choice executes, with the packet. */
    using DecisionHook =
        std::function<void(const Choice &, const Packet &)>;

    /**
     * Attaches itself to @p net.  On destruction it detaches and
     * releases the slots of the packets still in flight, so it must
     * not outlive @p net.
     */
    explicit ScheduleController(Network &net);
    ~ScheduleController() override;

    void capture(Network::Slot slot) override;

    /**
     * The schedulable decisions right now, in canonical order: for
     * each eligible packet by ascending id, Deliver first, then the
     * fault kinds admitted by @p faultsLeft and @p kindMask.
     */
    std::vector<Choice> enabled(int faultsLeft,
                                unsigned kindMask) const;

    /**
     * Execute one decision.  Returns false when the named packet is
     * no longer in flight (stale choice during replay).
     */
    bool apply(const Choice &choice);

    void setDecisionHook(DecisionHook fn) { hook_ = std::move(fn); }

    std::size_t inFlight() const { return flight_.size(); }
    const std::vector<InFlight> &packets() const { return flight_; }
    std::uint64_t captured() const { return nextId_; }
    Network &network() { return net_; }

  private:
    /** In-order substrates: is this packet its flow's oldest? */
    bool flowHead(const InFlight &f) const;

    Network &net_;
    NetFeatures features_;
    std::vector<InFlight> flight_;
    std::uint64_t nextId_ = 0;
    DecisionHook hook_;
};

} // namespace msgsim::check

#endif // MSGSIM_CHECK_CONTROLLER_HH
