/**
 * @file
 * The hardware packet format.
 *
 * The CM-5 data network carries packets of five 32-bit words.  We
 * model a packet as: a routing envelope (source, destination, 4-bit
 * hardware tag — consumed by the network/NI, like the CM-5's
 * destination register), one messaging-layer *header* word, and
 * n data words (n = 4 on the CM-5, configurable for the Figure 8
 * packet-size sweep).  Header + data = the 5-word CM-5 payload.
 *
 * The header word is packed/unpacked by the messaging layers:
 * CMAM_4 puts the handler index there; the finite-sequence transfer
 * packs (segment, offset); the indefinite-sequence stream packs
 * (channel, sequence number).
 */

#ifndef MSGSIM_NET_PACKET_HH
#define MSGSIM_NET_PACKET_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <vector>

#include "core/types.hh"
#include "sim/log.hh"

namespace msgsim
{

/**
 * The data words of one packet.  Up to inlineWords are held in place —
 * the CMAM_4 format and the default packet size — so carrying a packet
 * never touches the heap; larger payloads (the Figure 8 sweep runs to
 * n = 128) spill to one heap block.  The surface is the subset of
 * std::vector the packet path uses.  A moved-from payload is empty.
 */
class Payload
{
  public:
    static constexpr std::size_t inlineWords = 4;

    using value_type = Word;
    using iterator = Word *;
    using const_iterator = const Word *;

    Payload() = default;
    Payload(std::initializer_list<Word> words);
    Payload(const std::vector<Word> &words);
    Payload(const Payload &other);
    Payload(Payload &&other) noexcept { steal(other); }
    Payload &operator=(const Payload &other);
    Payload &operator=(Payload &&other) noexcept;
    ~Payload() { release(); }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    /** True when the words live on the heap (size above inlineWords). */
    bool spilled() const { return cap_ > inlineWords; }

    Word *data() { return spilled() ? heap_ : inline_; }
    const Word *data() const { return spilled() ? heap_ : inline_; }
    Word *begin() { return data(); }
    Word *end() { return data() + size_; }
    const Word *begin() const { return data(); }
    const Word *end() const { return data() + size_; }
    Word &operator[](std::size_t i) { return data()[i]; }
    Word operator[](std::size_t i) const { return data()[i]; }

    void reserve(std::size_t n);

    void
    push_back(Word w)
    {
        if (size_ == cap_)
            reserve(2 * static_cast<std::size_t>(cap_));
        data()[size_++] = w;
    }

    friend bool operator==(const Payload &a, const Payload &b);

  private:
    /** Free any heap block; leaves an empty inline payload. */
    void release();
    /** Take @p other's words (and heap block); @p other becomes empty. */
    void steal(Payload &other) noexcept;

    union
    {
        Word inline_[inlineWords] = {};
        Word *heap_;
    };
    std::uint32_t size_ = 0;
    std::uint32_t cap_ = inlineWords;
};

// Inline: staging a packet moves an empty payload into its slot, and
// a call per move costs as much as the move itself.

inline void
Payload::release()
{
    if (spilled())
        delete[] heap_;
    cap_ = inlineWords;
    size_ = 0;
}

inline void
Payload::steal(Payload &other) noexcept
{
    size_ = other.size_;
    cap_ = other.cap_;
    if (other.spilled())
        heap_ = other.heap_;
    else
        std::copy(other.inline_, other.inline_ + other.size_, inline_);
    other.cap_ = inlineWords;
    other.size_ = 0;
}

inline Payload &
Payload::operator=(Payload &&other) noexcept
{
    if (this != &other) {
        release();
        steal(other);
    }
    return *this;
}

/** Hardware message tags, the NI's dispatch vector (4 bits on CM-5). */
enum class HwTag : std::uint8_t
{
    UserAm = 0,     ///< user-level active message (handler in header)
    XferData = 1,   ///< finite-sequence data packet (seg/offset header)
    StreamData = 2, ///< indefinite-sequence data packet (chan/seq header)
    Control = 3,    ///< messaging-layer internal request/reply/ack
    StreamAck = 4,  ///< per-packet/group ack of the indefinite protocol
    NumTags
};

/** Printable name of a hardware tag. */
const char *toString(HwTag tag);

/**
 * One hardware packet in flight.
 */
struct Packet
{
    NodeId src = invalidNode;  ///< injecting node
    NodeId dst = invalidNode;  ///< destination node
    HwTag tag = HwTag::UserAm; ///< hardware dispatch tag
    /// Virtual (physical, on the CM-5: left/right) data network.
    /// The CM-5 carries requests on one network and replies on the
    /// other so replies can always drain past backed-up requests —
    /// the paper's footnote 6: "The CMAM round-trip protocol using
    /// the two separate CM-5 networks however is safe."
    std::uint8_t vnet = 0;
    Word header = 0;           ///< messaging-layer header word
    Payload data;              ///< n data words

    /// CRC over header+data.  Only the checked build (MSGSIM_CHECKED)
    /// seals it at injection; elsewhere it stays as built (0 if staged).
    std::uint32_t crc = 0;
    /// Set by Network::corrupt, the one corruption path; this mark is
    /// what the destination's hardware CRC check reads.
    bool corrupted = false;
    /// Global injection sequence, for tracing and scripted faults.
    std::uint64_t injectSeq = 0;
    /// Per-(src,dst) flow index, assigned at injection.
    std::uint64_t flowIndex = 0;
    /// Causal lineage id, assigned at birth when a prof::LineageSession
    /// is attached (0 = untracked).  Purely observational: never read
    /// by the hardware model or the messaging layers.
    std::uint64_t lineage = 0;

    Packet() = default;

    Packet(NodeId s, NodeId d, HwTag t, Word hdr, Payload words)
        : src(s), dst(d), tag(t), header(hdr), data(std::move(words))
    {
    }

    /** Wire size in words: header plus data. */
    std::size_t sizeWords() const { return 1 + data.size(); }

    /** Store the CRC of the current contents (launch, checked build). */
    void seal() { crc = computeCrc(); }

    /**
     * The destination's hardware CRC check: true unless the fabric
     * corrupted the packet.  Network::corrupt marks every bit it flips,
     * so the check reads the mark.  The checked build also compares
     * the CRC sealed at launch and panics when an unmarked packet's
     * words changed: only a stray host write into a packet in flight
     * does that, a simulator bug rather than a network fault.
     */
    bool
    checksumOk() const
    {
#ifdef MSGSIM_CHECKED
        if (!corrupted && crc != computeCrc())
            msgsim_panic("packet ", injectSeq, " (node ", src, " -> ", dst,
                         ") was written in flight: its CRC no longer "
                         "matches and no fault corrupted it");
#endif
        return !corrupted;
    }

    /** CRC32-like hash of header and data words. */
    std::uint32_t computeCrc() const;
};

static_assert(sizeof(Payload) <= 24 && sizeof(Packet) <= 72,
              "the inline payload must not grow the packet");

/**
 * Header-word packing helpers.  Layout (32 bits):
 *   [31:24] field A (handler / segment / channel)
 *   [23: 0] field B (unused / offset / sequence)
 */
namespace hdr
{

constexpr Word
pack(std::uint32_t a, std::uint32_t b)
{
    return (a << 24) | (b & 0x00ffffffu);
}

constexpr std::uint32_t fieldA(Word h) { return h >> 24; }
constexpr std::uint32_t fieldB(Word h) { return h & 0x00ffffffu; }

/** Largest value field A can carry. */
constexpr std::uint32_t maxFieldA = 0xffu;
/** Largest value field B can carry. */
constexpr std::uint32_t maxFieldB = 0x00ffffffu;

} // namespace hdr

} // namespace msgsim

#endif // MSGSIM_NET_PACKET_HH
