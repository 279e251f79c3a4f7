/**
 * @file
 * Packet fault injection.
 *
 * The paper's network model provides "fault-detection but not
 * fault-tolerance": packets can be lost or corrupted; corruption is
 * detected (per-packet CRC) but not corrected.  The injector
 * deterministically (seeded) drops or corrupts packets at configured
 * rates, and also supports scripted faults on specific injection
 * sequence numbers for directed tests.
 */

#ifndef MSGSIM_NET_FAULT_HH
#define MSGSIM_NET_FAULT_HH

#include <cstdint>
#include <set>

#include "net/packet.hh"
#include "sim/rng.hh"

namespace msgsim
{

/** What the injector did to a packet. */
enum class FaultAction : std::uint8_t
{
    None,      ///< delivered intact
    Drop,      ///< silently lost in the network
    Corrupt,   ///< delivered with a flipped bit (CRC will catch it)
    Duplicate, ///< delivered twice (adaptive-retry ghost copy)
};

/**
 * Seeded, per-network fault injector.  It only decides; the network
 * carries a decision out on the parked packet (Network::drop,
 * corrupt, duplicate).
 */
class FaultInjector
{
  public:
    struct Config
    {
        double dropRate = 0.0;    ///< iid probability of silent loss
        double corruptRate = 0.0; ///< iid probability of bit corruption
        /// iid probability a packet is delivered twice (a ghost copy
        /// from a speculative adaptive retry) — exercises the
        /// sequence-number dedup path of the messaging layers.
        double duplicateRate = 0.0;
        std::uint64_t seed = 0x5eedfa017ULL;
    };

    FaultInjector() : FaultInjector(Config{}) {}

    explicit FaultInjector(const Config &cfg)
        : cfg_(cfg), rng_(cfg.seed)
    {
    }

    /**
     * Decide the fate of @p pkt, leaving it untouched.  Scripted
     * faults (by injectSeq) take precedence over rates.
     */
    FaultAction apply(const Packet &pkt);

    /**
     * True when apply() can return anything but None: a scripted fault
     * is pending or a rate is non-zero.  When false, apply() has no
     * side effects (no RNG draw), so a caller may skip it.
     */
    bool
    armed() const
    {
        return !scriptedDrops_.empty() || !scriptedCorrupts_.empty() ||
               !scriptedDuplicates_.empty() || cfg_.dropRate > 0.0 ||
               cfg_.corruptRate > 0.0 || cfg_.duplicateRate > 0.0;
    }

    /** Script a drop of the packet with global injection seq @p n. */
    void scriptDrop(std::uint64_t n) { scriptedDrops_.insert(n); }

    /** Script a corruption of the packet with injection seq @p n. */
    void scriptCorrupt(std::uint64_t n) { scriptedCorrupts_.insert(n); }

    /** Script a duplication of the packet with injection seq @p n. */
    void
    scriptDuplicate(std::uint64_t n)
    {
        scriptedDuplicates_.insert(n);
    }

    std::uint64_t drops() const { return drops_; }
    std::uint64_t corruptions() const { return corruptions_; }
    std::uint64_t duplications() const { return duplications_; }

  private:
    Config cfg_;
    Rng rng_;
    std::set<std::uint64_t> scriptedDrops_;
    std::set<std::uint64_t> scriptedCorrupts_;
    std::set<std::uint64_t> scriptedDuplicates_;
    std::uint64_t drops_ = 0;
    std::uint64_t corruptions_ = 0;
    std::uint64_t duplications_ = 0;
};

} // namespace msgsim

#endif // MSGSIM_NET_FAULT_HH
