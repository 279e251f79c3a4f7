#include "net/fault.hh"

namespace msgsim
{

FaultAction
FaultInjector::apply(const Packet &pkt)
{
    const auto hit = [](std::uint64_t &count, FaultAction action) {
        ++count;
        return action;
    };
    if (scriptedDrops_.erase(pkt.injectSeq))
        return hit(drops_, FaultAction::Drop);
    if (scriptedCorrupts_.erase(pkt.injectSeq))
        return hit(corruptions_, FaultAction::Corrupt);
    if (scriptedDuplicates_.erase(pkt.injectSeq))
        return hit(duplications_, FaultAction::Duplicate);

    if (cfg_.dropRate > 0.0 && rng_.chance(cfg_.dropRate))
        return hit(drops_, FaultAction::Drop);
    if (cfg_.corruptRate > 0.0 && rng_.chance(cfg_.corruptRate))
        return hit(corruptions_, FaultAction::Corrupt);
    if (cfg_.duplicateRate > 0.0 && rng_.chance(cfg_.duplicateRate))
        return hit(duplications_, FaultAction::Duplicate);
    return FaultAction::None;
}

} // namespace msgsim
