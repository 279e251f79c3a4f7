#include "check/controller.hh"

#include <algorithm>

#include "sim/log.hh"

namespace msgsim::check
{

const char *
toString(ChoiceKind k)
{
    switch (k) {
      case ChoiceKind::Deliver:   return "deliver";
      case ChoiceKind::Drop:      return "drop";
      case ChoiceKind::Corrupt:   return "corrupt";
      case ChoiceKind::Duplicate: return "duplicate";
      default:                    return "?";
    }
}

bool
choiceKindFromString(const std::string &s, ChoiceKind &out)
{
    if (s == "deliver") { out = ChoiceKind::Deliver; return true; }
    if (s == "drop") { out = ChoiceKind::Drop; return true; }
    if (s == "corrupt") { out = ChoiceKind::Corrupt; return true; }
    if (s == "duplicate") { out = ChoiceKind::Duplicate; return true; }
    return false;
}

unsigned
ScenarioConfig::effectiveFaultKinds() const
{
    if (faultKinds != 0)
        return faultKinds;
    // Protocols with duplicate suppression can absorb ghost copies;
    // the others (single-packet has no sequencing at all, and the
    // finite transfer counts packets, so a ghost double-decrements
    // its completion countdown) are *specified* for drop/corrupt
    // faults only.
    if (protocol == "stream" || protocol == "socket" ||
        protocol.rfind("wire_", 0) == 0)
        return kFaultDrop | kFaultCorrupt | kFaultDuplicate;
    return kFaultDrop | kFaultCorrupt;
}

ScheduleController::ScheduleController(Network &net)
    : net_(net), features_(net.features())
{
    if (net_.scheduleGate() != nullptr)
        msgsim_panic("network already has a schedule gate");
    net_.setScheduleGate(this);
}

ScheduleController::~ScheduleController()
{
    if (net_.scheduleGate() == this)
        net_.setScheduleGate(nullptr);
    for (const InFlight &f : flight_)
        net_.release(f.slot);
}

void
ScheduleController::capture(Network::Slot slot)
{
    flight_.push_back({nextId_++, slot});
}

bool
ScheduleController::flowHead(const InFlight &f) const
{
    const Packet &pkt = net_.parked(f.slot);
    for (const auto &other : flight_) {
        if (other.id >= f.id)
            continue;
        const Packet &o = net_.parked(other.slot);
        if (o.src == pkt.src && o.dst == pkt.dst && o.vnet == pkt.vnet)
            return false;
    }
    return true;
}

std::vector<Choice>
ScheduleController::enabled(int faultsLeft, unsigned kindMask) const
{
    std::vector<Choice> out;
    const bool faultable =
        !features_.reliableDelivery && faultsLeft > 0;
    for (const auto &f : flight_) {
        if (features_.inOrderDelivery && !flowHead(f))
            continue;
        out.push_back({ChoiceKind::Deliver, f.id});
        if (!faultable)
            continue;
        if (kindMask & kFaultDrop)
            out.push_back({ChoiceKind::Drop, f.id});
        if (kindMask & kFaultCorrupt)
            out.push_back({ChoiceKind::Corrupt, f.id});
        if (kindMask & kFaultDuplicate)
            out.push_back({ChoiceKind::Duplicate, f.id});
    }
    return out;
}

bool
ScheduleController::apply(const Choice &choice)
{
    auto it = std::find_if(flight_.begin(), flight_.end(),
                           [&](const InFlight &f) {
                               return f.id == choice.packetId;
                           });
    if (it == flight_.end())
        return false;
    const Network::Slot slot = it->slot;
    if (hook_)
        hook_(choice, net_.parked(slot));

    switch (choice.kind) {
      case ChoiceKind::Corrupt:
        // Corrupt-and-deliver as one action: the packet still
        // traverses the network; the destination NI's CRC check is
        // what actually discards it.
        net_.corrupt(slot);
        [[fallthrough]];
      case ChoiceKind::Deliver:
        flight_.erase(it);
        if (!net_.deliver(slot))
            msgsim_panic("schedule gate: sink refused a delivery "
                         "(bounded receive capacity under a gate "
                         "is not modeled)");
        break;
      case ChoiceKind::Drop:
        flight_.erase(it);
        net_.drop(slot);
        break;
      case ChoiceKind::Duplicate:
        flight_.push_back({nextId_++, net_.duplicate(slot)});
        break;
    }
    return true;
}

} // namespace msgsim::check
