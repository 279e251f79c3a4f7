/**
 * @file
 * Power-of-two-ary fat-tree topology model (the CM-5 data network
 * shape).
 *
 * The CM-5 data network is a 4-ary fat tree: a packet ascends to the
 * least common ancestor of source and destination (choosing among
 * several equivalent parents at each level — the source of delivery
 * -order randomness) and then descends on the unique down-path.  We
 * model hop counts and up-path multiplicity; the Cm5Network uses them
 * for latency and path randomization.
 */

#ifndef MSGSIM_NET_TOPOLOGY_HH
#define MSGSIM_NET_TOPOLOGY_HH

#include <array>
#include <cstdint>

#include "core/types.hh"

namespace msgsim
{

/**
 * Geometry of a fat tree of power-of-two arity over a set of leaf
 * nodes.
 */
class FatTree
{
  public:
    /**
     * @param nodes  number of leaf (compute) nodes, >= 1
     * @param arity  children per switch, a power of two >= 2 (CM-5:
     *               4); any other arity is fatal
     */
    FatTree(std::uint32_t nodes, std::uint32_t arity = 4);

    std::uint32_t nodes() const { return nodes_; }
    std::uint32_t arity() const { return arity_; }

    /** Number of switch levels above the leaves. */
    std::uint32_t levels() const { return levels_; }

    /**
     * Level of the least common ancestor switch of two leaves:
     * 1 = same leaf switch, levels() = root.  lca(a, a) is 0 by
     * convention (no network traversal).
     */
    std::uint32_t lca(NodeId a, NodeId b) const;

    /** Switch-to-switch hops on a shortest path (2 * lca). */
    std::uint32_t hops(NodeId a, NodeId b) const;

    /**
     * Number of distinct shortest up-paths between two leaves:
     * arity^(lca-1) — the degree of route freedom the randomizing
     * router exploits.
     */
    std::uint64_t pathCount(NodeId a, NodeId b) const;

  private:
    std::uint32_t nodes_;
    std::uint32_t arity_;
    std::uint32_t levels_;
    /// lca level by bit width of a ^ b (index 0: a == b, level 0).
    std::array<std::uint8_t, 33> levelOfWidth_{};
};

} // namespace msgsim

#endif // MSGSIM_NET_TOPOLOGY_HH
