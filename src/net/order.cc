#include "net/order.hh"

namespace msgsim
{

void
SwapAdjacentOrder::arrive(Slot pkt, std::vector<Slot> &release)
{
    if (!held_) {
        held_ = pkt;
        return;
    }
    // Release the later packet first, then the earlier one.
    release.push_back(pkt);
    release.push_back(*held_);
    held_.reset();
}

void
SwapAdjacentOrder::flush(std::vector<Slot> &release)
{
    if (held_) {
        release.push_back(*held_);
        held_.reset();
    }
}

void
PairSwapChanceOrder::arrive(Slot pkt, std::vector<Slot> &release)
{
    if (!held_) {
        swapCurrent_ = rng_.chance(swapChance_);
        if (swapCurrent_) {
            held_ = pkt;
            return;
        }
        release.push_back(pkt);
        return;
    }
    release.push_back(pkt);
    release.push_back(*held_);
    held_.reset();
}

void
PairSwapChanceOrder::flush(std::vector<Slot> &release)
{
    if (held_) {
        release.push_back(*held_);
        held_.reset();
    }
}

void
RandomWindowOrder::arrive(Slot pkt, std::vector<Slot> &release)
{
    held_.push_back(pkt);
    if (held_.size() >= window_) {
        rng_.shuffle(held_);
        release.insert(release.end(), held_.begin(), held_.end());
        held_.clear();
    }
}

void
RandomWindowOrder::flush(std::vector<Slot> &release)
{
    rng_.shuffle(held_);
    release.insert(release.end(), held_.begin(), held_.end());
    held_.clear();
}

OrderPolicyFactory
swapAdjacentFactory()
{
    return [] { return std::make_unique<SwapAdjacentOrder>(); };
}

OrderPolicyFactory
pairSwapChanceFactory(double swapChance, std::uint64_t seed)
{
    // Give each flow its own stream, derived from the base seed, so
    // flows don't correlate but runs stay reproducible.
    auto counter = std::make_shared<std::uint64_t>(seed);
    return [counter, swapChance] {
        std::uint64_t s = *counter;
        const std::uint64_t flow_seed = splitMix64(s);
        *counter = s;
        return std::make_unique<PairSwapChanceOrder>(swapChance, flow_seed);
    };
}

OrderPolicyFactory
randomWindowFactory(std::size_t window, std::uint64_t seed)
{
    auto counter = std::make_shared<std::uint64_t>(seed);
    return [counter, window] {
        std::uint64_t s = *counter;
        const std::uint64_t flow_seed = splitMix64(s);
        *counter = s;
        return std::make_unique<RandomWindowOrder>(window, flow_seed);
    };
}

} // namespace msgsim
