/**
 * @file
 * Synthetic traffic patterns for machine-wide experiments — the
 * standard destination distributions of the interconnection-network
 * literature the paper draws on (uniform random, permutation,
 * hotspot, nearest-neighbor ring, transpose), extended with the two
 * datacenter staples (incast fan-in, all-to-all rotation), plus the
 * classic runner that drives active-message traffic across a whole
 * stack and reports per-node software cost statistics.
 *
 * The declarative, protocol-layered traffic engine lives in
 * traffic/engine.hh; this header is the pattern vocabulary both
 * share.
 */

#ifndef MSGSIM_TRAFFIC_TRAFFIC_HH
#define MSGSIM_TRAFFIC_TRAFFIC_HH

#include <cstdint>
#include <vector>

#include "protocols/stack.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"

namespace msgsim
{

/** Classic destination patterns. */
enum class TrafficPattern : std::uint8_t
{
    UniformRandom, ///< fresh uniform destination per message
    Permutation,   ///< fixed random bijection, drawn once per seed
    Hotspot,       ///< a fraction of traffic targets node 0
    Ring,          ///< nearest neighbor: (i + 1) mod N
    Transpose,     ///< bit-reversal-ish: (i + N/2) mod N
    Incast,        ///< every node targets node 0 (fan-in storm)
    AllToAll,      ///< per-source rotation over every other node
};

/** Every pattern, in declaration order. */
inline constexpr TrafficPattern allTrafficPatterns[] = {
    TrafficPattern::UniformRandom, TrafficPattern::Permutation,
    TrafficPattern::Hotspot,       TrafficPattern::Ring,
    TrafficPattern::Transpose,     TrafficPattern::Incast,
    TrafficPattern::AllToAll};

/** Printable name of a pattern. */
const char *toString(TrafficPattern p);

/**
 * Parse a pattern name: its toString() name, or "uniform" or
 * "all-to-all"; false = unknown.
 */
bool patternFromString(const std::string &name, TrafficPattern &out);

/**
 * Destination generator for one pattern instance.
 */
class TrafficGen
{
  public:
    /**
     * @param nodes        machine size
     * @param pattern      destination pattern
     * @param seed         randomness for the stochastic patterns
     * @param hotFraction  Hotspot: probability a message hits node 0
     */
    TrafficGen(std::uint32_t nodes, TrafficPattern pattern,
               std::uint64_t seed = 1, double hotFraction = 0.5);

    /** Destination of @p src's next message (never src itself). */
    NodeId destFor(NodeId src);

    TrafficPattern pattern() const { return pattern_; }

    /** The fixed mapping (Permutation/Ring/Transpose/Incast). */
    const std::vector<NodeId> &mapping() const { return mapping_; }

  private:
    std::uint32_t nodes_;
    TrafficPattern pattern_;
    Rng rng_;
    double hotFraction_;
    std::vector<NodeId> mapping_;
    std::vector<std::uint32_t> rotation_; ///< AllToAll per-src cursor
};

/**
 * Drives @p messagesPerNode active messages from every node under a
 * pattern and reports delivery/cost statistics.
 */
class TrafficRunner
{
  public:
    struct Result
    {
        bool ok = false;             ///< every payload checksum held
        std::uint64_t messages = 0;  ///< messages sent
        std::uint64_t delivered = 0; ///< handler invocations
        Tick elapsed = 0;
        RunningStat perNodeInstr;    ///< instruction bill per node
        double maxOverMean = 0;      ///< load imbalance indicator
    };

    explicit TrafficRunner(Stack &stack);

    Result run(TrafficGen &gen, std::uint32_t messagesPerNode,
               std::uint64_t payloadSeed = 99);

  private:
    Stack &stack_;
    std::vector<int> handlerIds_;
    std::uint64_t delivered_ = 0;
    std::uint64_t badPayloads_ = 0;
};

} // namespace msgsim

#endif // MSGSIM_TRAFFIC_TRAFFIC_HH
