/**
 * @file
 * Abstract routing-network interface.
 *
 * A Network moves packets between attached delivery sinks (the NIs).
 * The paper's two networks are the two engines: Cm5Network
 * (arbitrary delivery order, finite buffering with backpressure,
 * fault detection without correction) and CrNetwork (in-order
 * delivery, deadlock freedom independent of packet acceptance by
 * header rejection + hardware retransmission, packet-level fault
 * tolerance by hardware retry).  Each of the other two substrates
 * runs the engine it is indented under.  Their NetFeatures:
 *
 *  substrate      | inOrder reliable acceptInd | zeroCopy offload complQ
 *  -------------- | -------------------------- | -----------------------
 *  Cm5Network     |   no      no       no      |   no       no      no
 *    NicamNetwork |   no      no       no      |   no       yes     no
 *  CrNetwork      |   yes     yes      yes     |   no       no      no
 *    RdmaNetwork  |   yes     yes      yes     |   yes      no      yes
 *
 *  - NicamNetwork: an on-NIC handler table at the destination edge
 *    runs registered AM handlers (host-dispatch fallback on a miss);
 *  - RdmaNetwork: per-QP in-order reliable delivery is CR's; the
 *    RdmaNic host layer uses the zero-copy placement into registered
 *    regions and the host-polled completion queues it advertises.
 *
 * The model checker reads the first three bits (scheduling and fault
 * choices); the last three are capability advertisements consumed by
 * the host layers and the differential profiler.
 */

#ifndef MSGSIM_NET_NETWORK_HH
#define MSGSIM_NET_NETWORK_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/types.hh"
#include "net/lineage_hook.hh"
#include "net/packet.hh"
#include "sim/event.hh"
#include "sim/log.hh"

namespace msgsim
{

/** Virtual data networks per fabric (CM-5: the left and right trees). */
constexpr unsigned numVirtualNets = 2;

/** Column of flow (src, @p dst, @p vnet) in its source's FlowTable row. */
inline std::uint32_t
flowLane(NodeId dst, unsigned vnet)
{
    if (vnet >= numVirtualNets)
        msgsim_panic("virtual network ", vnet, " out of range");
    return dst * numVirtualNets + vnet;
}

/**
 * Per-flow state keyed by (src, dst, vnet): two vector indexings per
 * lookup instead of a tuple-keyed map.  A source gets its row when it
 * first sends, sized to @p width destinations (the fabric's node
 * count), so memory follows the sources that are active rather than
 * N².  Rows never move their elements once sized, except when a
 * destination beyond @p width shows up.
 */
template <typename T>
class FlowTable
{
  public:
    /** The state of flow (src, lane), created on first use. */
    T &
    at(NodeId src, std::uint32_t lane, std::size_t width)
    {
        if (src >= rows_.size())
            rows_.resize(static_cast<std::size_t>(src) + 1);
        std::vector<T> &row = rows_[src];
        if (lane >= row.size())
            row.resize(std::max<std::size_t>(lane + 1,
                                             width * numVirtualNets));
        return row[lane];
    }

    /** The state of @p pkt's flow, created on first use. */
    T &
    at(const Packet &pkt, std::size_t width)
    {
        return at(pkt.src, flowLane(pkt.dst, pkt.vnet), width);
    }

    /**
     * Call @p fn on every entry in (src, dst, vnet) order.  Indexes
     * afresh on every step, so @p fn may add flows.
     */
    template <typename Fn>
    void
    forEach(Fn fn)
    {
        for (std::size_t s = 0; s < rows_.size(); ++s)
            for (std::size_t k = 0; k < rows_[s].size(); ++k)
                fn(rows_[s][k]);
    }

  private:
    std::vector<std::vector<T>> rows_;
};

/**
 * Address-stable packet storage.  Chunk k holds 16 * 2^k packets and
 * never moves, so a packet keeps its address from park to release
 * while the pool grows around it: a handler may inject (and so park)
 * while it still reads its own parked request.
 */
class PacketPool
{
  public:
    /** A slot never handed out before, adding a chunk when all are. */
    std::uint32_t
    fresh()
    {
        if (handedOut_ == firstOf(chunkCount_)) {
            if (chunkCount_ == maxChunks)
                msgsim_panic("packet pool exhausted at ", handedOut_,
                             " slots");
            chunks_[chunkCount_] =
                std::make_unique<Packet[]>(firstChunk << chunkCount_);
            ++chunkCount_;
        }
        return handedOut_++;
    }

    Packet &operator[](std::uint32_t slot) { return at(slot); }
    const Packet &operator[](std::uint32_t slot) const { return at(slot); }

  private:
    static constexpr int firstChunkBits = 4;
    static constexpr std::uint32_t firstChunk = 1u << firstChunkBits;
    /// Chunks 0..27 hold 16 * (2^28 - 1) slots, all a 32-bit slot names.
    static constexpr std::size_t maxChunks = 32 - firstChunkBits;

    Packet &
    at(std::uint32_t slot) const
    {
        // Slot s lives in the chunk whose range [16 * (2^k - 1),
        // 16 * (2^(k+1) - 1)) holds it: the top bit of s + 16 names k.
        const std::uint64_t u = std::uint64_t{slot} + firstChunk;
        const int k = std::bit_width(u) - firstChunkBits - 1;
        return chunks_[static_cast<std::size_t>(k)]
                      [u - (std::uint64_t{firstChunk} << k)];
    }

    /** First slot of chunk @p k (= slots in chunks 0..k-1). */
    static std::uint32_t
    firstOf(std::size_t k)
    {
        return static_cast<std::uint32_t>((std::uint64_t{firstChunk} << k) -
                                          firstChunk);
    }

    /// A fixed table, so an access is one load of the chunk's base.
    std::array<std::unique_ptr<Packet[]>, maxChunks> chunks_;
    std::size_t chunkCount_ = 0;
    std::uint32_t handedOut_ = 0; ///< slots fresh() has returned
};

/** High-level service guarantees a network provides in hardware. */
struct NetFeatures
{
    /// Transmission order between each (src, dst) pair is preserved.
    bool inOrderDelivery = false;
    /// Every injected packet eventually arrives uncorrupted.
    bool reliableDelivery = false;
    /// Deadlock freedom does not depend on destinations accepting
    /// packets (CR: reject + hardware retransmit).
    bool acceptanceIndependent = false;
    /// Payloads are DMA-ed into registered destination memory without
    /// a host-instruction copy (rdma).
    bool zeroCopy = false;
    /// The NIC can execute registered AM handlers itself, bypassing
    /// the host dispatch loop (nicam).
    bool offloadDispatch = false;
    /// Completions are reported through a host-polled completion
    /// queue rather than status-register reads (rdma).
    bool completionQueue = false;
};

/** Aggregate traffic statistics for a network instance. */
struct NetStats
{
    std::uint64_t injected = 0;      ///< packets accepted at injection
    std::uint64_t delivered = 0;     ///< packets presented to a sink
    std::uint64_t dropped = 0;       ///< lost in the fabric or at its edge
    std::uint64_t corrupted = 0;     ///< delivered with bad CRC
    std::uint64_t duplicated = 0;    ///< ghost copies created (faults)
    std::uint64_t deliveryRetries = 0; ///< sink-full redelivery attempts
    std::uint64_t hwRetries = 0;     ///< CR hardware retransmissions
};

class ScheduleGate;

/**
 * Base class of routing substrates.
 */
class Network
{
  public:
    /** Handle of a parked packet. */
    using Slot = std::uint32_t;

    /** What a sink did with an offered packet. */
    enum class Take : std::uint8_t
    {
        Refused,  ///< not accepted; the fabric keeps the slot
        Consumed, ///< accepted and used up; the network frees the slot
        Kept,     ///< accepted into the sink's queue, which frees it
    };

    /**
     * Delivery sink, offered the packet parked in a slot (read it with
     * parked()).  Refused means the destination cannot accept it right
     * now (receive queue full or, on CR, resource-based header
     * rejection): the packet is left intact, and the fabric offers the
     * same packet again later without moving it.  A sink may move from
     * the packet only when it accepts it.  A Kept packet stays parked
     * until the sink releases its slot (the NI receive FIFO).
     */
    using SlotSinkFn = std::function<Take(Slot)>;

    explicit Network(Simulator &sim) : sim_(sim) {}
    virtual ~Network() = default;

    Network(const Network &) = delete;
    Network &operator=(const Network &) = delete;

    /** Register the delivery sink of node @p id. */
    void attach(NodeId id, SlotSinkFn fn);

    /**
     * Register a sink written against the packet, bool(Packet &) or
     * bool(Packet &&): true consumes the packet, false refuses it,
     * under the same contract (it may move from the packet only when
     * it accepts it).  For sinks that keep nothing parked: test sinks,
     * selfprof's fabric pump, perfbench's bare-fabric probe.
     */
    template <typename Fn>
        requires(!std::is_invocable_v<Fn &, Slot> &&
                 (std::is_invocable_r_v<bool, Fn &, Packet &> ||
                  std::is_invocable_r_v<bool, Fn &, Packet &&>))
    void
    attach(NodeId id, Fn fn)
    {
        attach(id, SlotSinkFn([this, fn = std::move(fn)](Slot slot) mutable {
                   Packet &pkt = parked(slot);
                   bool accepted;
                   if constexpr (std::is_invocable_v<Fn &, Packet &>)
                       accepted = fn(pkt);
                   else
                       accepted = fn(std::move(pkt));
                   return accepted ? Take::Consumed : Take::Refused;
               }));
    }

    /**
     * Inject a packet: park() it, then injectParked().  Returns false
     * when the injection port is backpressured, handing the packet
     * back in @p pkt (the software must retry, like re-pushing a CM-5
     * packet whose send_ok read failed).
     */
    bool inject(Packet &&pkt);

    /**
     * Inject the packet parked in @p slot.  Stamps injection and flow
     * sequence numbers and hands the slot to the substrate (or to an
     * attached schedule gate).  The checked build (MSGSIM_CHECKED)
     * also seals the packet's CRC here, for the destination's check
     * to verify; otherwise that check reads only the corruption mark.
     * Returns false when the injection port is backpressured, leaving
     * the slot, and the packet in it, to the caller.
     */
    bool injectParked(Slot slot);

    // ------------------------------------------------------------
    // Packet pool, shared by every substrate and the NIs.  A packet is
    // parked once, when it is staged (or injected whole); from then on
    // only its slot travels, through fabric events, order stages, flow
    // queues and the NI receive FIFO, until the consumer reads its
    // last word.  The pool grows to the high-water mark of packets
    // alive at once, never moves a packet and recycles its slots, so
    // carrying a packet from staging to consumption never allocates.
    // ------------------------------------------------------------

    /** Park @p pkt; it stays in its slot until release(). */
    Slot park(Packet &&pkt);

    /**
     * Park a fresh packet from @p src to @p dst with no data words,
     * for the caller to write in place and then injectParked() (the
     * NI send FIFO, a NIC-built reply): a packet is born in its slot.
     */
    Slot stage(NodeId src, NodeId dst, HwTag tag, Word header,
               unsigned vnet);

    /** Free @p slot: its packet was consumed or absorbed. */
    void release(Slot slot);

    /** The packet in @p slot, at one address until the slot is freed. */
    Packet &parked(Slot slot) { return pool_[slot]; }
    const Packet &parked(Slot slot) const { return pool_[slot]; }

    /** Hardware service levels of this substrate. */
    virtual NetFeatures features() const = 0;

    /**
     * Release packets held by order-scrambling stages (used at
     * teardown so no packet is stranded).
     */
    virtual void flushHeldPackets() {}

    /** Traffic statistics so far. */
    const NetStats &stats() const { return stats_; }

    // ------------------------------------------------------------
    // Per-destination-link occupancy (telemetry; never charged).
    // A packet is "in flight toward d" from the moment inject()
    // accepts it until a sink accepts it, the NIC dispatches it, or
    // a fault absorbs it.  Maintained as two preallocated counters
    // per node (sized at attach() time, so the hot paths never
    // allocate) — the probes the src/tele sampler reads.
    // ------------------------------------------------------------

    /** Packets currently inside the fabric heading for @p dst. */
    std::uint64_t
    inFlightTo(NodeId dst) const
    {
        if (dst >= injectedTo_.size())
            return 0;
        const std::uint64_t in = injectedTo_[dst];
        const std::uint64_t out = settledTo_[dst];
        return in > out ? in - out : 0;
    }

    /** Packets delivered to @p dst (sink-accepted or NIC-dispatched). */
    std::uint64_t
    deliveredTo(NodeId dst) const
    {
        return dst < deliveredTo_.size() ? deliveredTo_[dst] : 0;
    }

    /** The simulator driving this network. */
    Simulator &sim() { return sim_; }

    /**
     * Attach (or detach, with nullptr) a schedule gate.  While a gate
     * is attached the substrate never sees injected packets: the gate
     * holds their slots and decides delivery order and faults
     * explicitly, through the four acts below.
     */
    void setScheduleGate(ScheduleGate *gate) { gate_ = gate; }

    /** The attached schedule gate (nullptr when none). */
    ScheduleGate *scheduleGate() const { return gate_; }

    // ------------------------------------------------------------
    // The fabric's four acts on a parked packet.  An engine performs
    // them from its latency, order and fault machinery, and a schedule
    // gate from its explicit decisions, so NetStats, the link counters
    // and the packet trace read the same in checked and unchecked runs.
    // ------------------------------------------------------------

    /**
     * Hand the packet in @p slot to its destination.  True when it
     * left the fabric (its sink accepted it, or the edge took it:
     * nicam's handler table); false when the sink refused it, and it
     * stays in its slot, intact, to be offered again.  The base
     * presents it to the sink.
     */
    virtual bool deliver(Slot slot) { return presentToSink(slot); }

    /** Lose the packet in @p slot inside the fabric; frees the slot. */
    void drop(Slot slot);

    /**
     * Flip one bit of the packet in @p slot (of its first data word,
     * or of the header when it carries none) and mark it, so the
     * destination's CRC check fails.  It travels on.
     */
    void corrupt(Slot slot);

    /**
     * Park a ghost copy of the packet in @p slot (a speculative
     * adaptive retry) and return the copy's slot.  The copy is in
     * flight toward the same destination as the original.
     */
    Slot duplicate(Slot slot);

  protected:
    /**
     * Report a packet event to the thread's packet hook (a
     * PacketTracer or a LineageSession), if one is attached.
     */
    void
    trace(TraceEvent ev, const Packet &pkt)
    {
        if (LineageHooks *lh = LineageHooks::current())
            lh->hwEvent(ev, pkt, sim_.now());
    }

    /**
     * Substrate-specific injection of the packet parked in @p slot.
     * Returns false, leaving the slot to the caller, when the
     * injection port is busy; otherwise the substrate owns the slot.
     */
    virtual bool injectImpl(Slot slot) = 0;

    /**
     * Offer the packet in @p slot to its destination sink, in place.
     * Returns the sink's acceptance result; a refused packet stays in
     * its slot, intact, for the fabric to offer again.  Panics when
     * the destination was never attached.
     */
    bool presentToSink(Slot slot);

    /**
     * A packet bound for @p dst left the fabric by delivery outside
     * presentToSink (nicam's on-NIC handler dispatch).
     */
    void
    noteDelivered(NodeId dst)
    {
        if (dst < settledTo_.size()) {
            ++settledTo_[dst];
            ++deliveredTo_[dst];
        }
    }

    /**
     * A packet bound for @p dst was absorbed inside the fabric (fault
     * drop, NIC-side CRC discard): no longer in flight, never
     * delivered.
     */
    void
    noteAbsorbed(NodeId dst)
    {
        if (dst < settledTo_.size())
            ++settledTo_[dst];
    }

    Simulator &sim_;
    NetStats stats_;

  private:
    /** injectParked() without its host-profile scope. */
    bool launch(Slot slot);

    /** A free slot: a released one if any, else a fresh one. */
    Slot takeSlot();

    ScheduleGate *gate_ = nullptr;
    std::vector<SlotSinkFn> sinks_; ///< by node id; empty = unattached
    /// Per-destination link counters (boot-sized in attach()).
    std::vector<std::uint64_t> injectedTo_;
    std::vector<std::uint64_t> settledTo_;
    std::vector<std::uint64_t> deliveredTo_;
    std::uint64_t nextInjectSeq_ = 0;
    FlowTable<std::uint64_t> flowCounters_;
    PacketPool pool_;             ///< parked packets, by slot
    std::vector<Slot> freeSlots_; ///< released slots, reused first
};

/**
 * Delivery-schedule interception point (the `src/check` model
 * checker's hook).  When a gate is attached to a Network, every
 * injected packet's slot is handed to the gate *instead of* the
 * substrate: latency models, order policies and the fault injector
 * are all replaced by the gate's explicit decisions.  The packet stays
 * parked meanwhile, and the gate acts on it through the network's
 * deliver(), drop(), corrupt() and duplicate(), the same calls an
 * engine makes.
 */
class ScheduleGate
{
  public:
    virtual ~ScheduleGate() = default;

    /**
     * Take the slot of an injected (sealed, stamped) packet.  The gate
     * holds it until it delivers or drops the packet through the
     * network, which then frees the slot, or releases it itself.
     */
    virtual void capture(Network::Slot slot) = 0;
};

/** Element @p i of @p v, growing @p v (value-initialized) to reach it. */
template <typename T>
T &
growTo(std::vector<T> &v, std::size_t i)
{
    if (i >= v.size())
        v.resize(i + 1);
    return v[i];
}

/**
 * Link serialization at node @p id: the first tick at or after
 * @p earliest at which its port is free, which then stays busy for
 * @p gap ticks.  @p nextFree holds each node's next free tick.  A zero
 * gap is an infinitely fast port and leaves @p nextFree alone.
 */
inline Tick
serialize(std::vector<Tick> &nextFree, NodeId id, Tick earliest, Tick gap)
{
    if (gap == 0)
        return earliest;
    Tick &next = growTo(nextFree, id);
    const Tick t = std::max(earliest, next);
    next = t + gap;
    return t;
}

} // namespace msgsim

#endif // MSGSIM_NET_NETWORK_HH
