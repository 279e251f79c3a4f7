#include "net/topology.hh"

#include <bit>

#include "sim/log.hh"

namespace msgsim
{

FatTree::FatTree(std::uint32_t nodes, std::uint32_t arity)
    : nodes_(nodes), arity_(arity)
{
    if (nodes == 0)
        msgsim_fatal("fat tree needs at least one node");
    if (arity < 2 || !std::has_single_bit(arity))
        msgsim_fatal("fat tree arity must be a power of two >= 2, got ",
                     arity);
    // Leaves a and b share their level-L ancestor when they agree
    // above their low L * log2(arity) bits, so the lca level is
    // ceil(bit_width(a ^ b) / log2(arity)): tabulated by bit width.
    const auto shift = static_cast<std::uint32_t>(std::countr_zero(arity));
    for (std::uint32_t w = 0; w < levelOfWidth_.size(); ++w)
        levelOfWidth_[w] = static_cast<std::uint8_t>((w + shift - 1) / shift);
    levels_ = 1;
    std::uint64_t reach = arity_;
    while (reach < nodes_) {
        reach *= arity_;
        ++levels_;
    }
}

std::uint32_t
FatTree::lca(NodeId a, NodeId b) const
{
    if (a >= nodes_ || b >= nodes_)
        msgsim_panic("node id out of range: ", a, ", ", b, " of ", nodes_);
    return levelOfWidth_[std::bit_width(a ^ b)];
}

std::uint32_t
FatTree::hops(NodeId a, NodeId b) const
{
    return 2 * lca(a, b);
}

std::uint64_t
FatTree::pathCount(NodeId a, NodeId b) const
{
    const std::uint32_t l = lca(a, b);
    if (l <= 1)
        return 1;
    std::uint64_t paths = 1;
    for (std::uint32_t i = 1; i < l; ++i)
        paths *= arity_;
    return paths;
}

} // namespace msgsim
