/**
 * @file
 * Protocol test-bench stack: a machine on one fabric, with one host
 * messaging layer per node.  The system has two axes — the fabric
 * (cm5, cr, rdma, nicam) and the host layer (CMAM, the paper's §4
 * high-level layer, verbs, NIC offload) — and stackPairs lists the
 * (fabric, layer) pairs a Stack can be built as.
 */

#ifndef MSGSIM_PROTOCOLS_STACK_HH
#define MSGSIM_PROTOCOLS_STACK_HH

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cm5net/cm5_network.hh"
#include "cmam/cmam.hh"
#include "crnet/cr_network.hh"
#include "machine/machine.hh"
#include "nicam/nicam_layer.hh"
#include "nicam/nicam_network.hh"
#include "rdmanet/rdma_network.hh"
#include "rdmanet/rdma_nic.hh"
#include "sim/scratch.hh"

namespace msgsim
{

/** Which routing substrate the stack runs on. */
enum class Substrate
{
    Cm5,   ///< out-of-order, finite-buffered, detection-only
    Cr,    ///< in-order, reliable, acceptance-independent
    Rdma,  ///< verbs fabric: reliable, per-QP in-order, zero-copy
    Nicam, ///< CM-5 fabric with an on-NIC handler table
};

/** Every substrate, in declaration order. */
inline constexpr Substrate allSubstrates[] = {
    Substrate::Cm5, Substrate::Cr, Substrate::Rdma, Substrate::Nicam};

/** Printable name of a substrate. */
const char *toString(Substrate s);

/** Inverse of toString(Substrate); false on an unknown name. */
bool substrateFromString(const std::string &name, Substrate &out);

/** The hardware service guarantees of a fabric (its features()). */
NetFeatures netFeatures(Substrate s);

/** Which host messaging layer the stack runs on every node. */
enum class HostLayer
{
    Cmam,    ///< the paper's §3 active-message layer, on any fabric
    Hl,      ///< the §4 layer: CMAM trusting its fabric (CR)
    Verbs,   ///< RDMA verbs: queue pairs, registration, a polled CQ
    Offload, ///< active messages dispatched on the NIC
};

/** Printable name of a host layer. */
const char *toString(HostLayer l);

/** One buildable (fabric, host layer) combination. */
struct StackPair
{
    Substrate substrate;
    HostLayer layer;
};

/**
 * Every pair in use — the only place that says which pairs exist:
 * CMAM on all four fabrics, and each later fabric's own layer.  CMAM
 * on rdma runs unchanged software over per-QP in-order reliable
 * delivery; CMAM on nicam leaves the NIC's handler table empty, so
 * every packet misses to the host and software recovery (with the
 * checker's drop/duplicate choices) still applies.
 */
inline constexpr StackPair stackPairs[] = {
    {Substrate::Cm5, HostLayer::Cmam},
    {Substrate::Cr, HostLayer::Cmam},
    {Substrate::Rdma, HostLayer::Cmam},
    {Substrate::Nicam, HostLayer::Cmam},
    {Substrate::Cr, HostLayer::Hl},
    {Substrate::Rdma, HostLayer::Verbs},
    {Substrate::Nicam, HostLayer::Offload},
};

/**
 * The layer built for fabric @p s: its non-CMAM pair in stackPairs,
 * or CMAM on a fabric that has none (cm5).
 */
HostLayer nativeLayer(Substrate s);

/**
 * How a node learns of arrived packets in event-driven execution:
 * polling (the CMAM default) or interrupts (paper footnote 2 — the
 * CM-5 NI supports it, but SPARC trap overhead makes it expensive).
 */
enum class RecvDiscipline
{
    Poll,
    Interrupt,
};

/** Printable name of a reception discipline. */
const char *toString(RecvDiscipline d);

/**
 * Configuration of a whole protocol stack.
 */
struct StackConfig
{
    Substrate substrate = Substrate::Cm5;
    HostLayer layer = HostLayer::Cmam;
    std::uint32_t nodes = 4;
    int dataWords = 4; ///< n, the hardware packet payload (CM-5: 4)
    std::size_t memWords = 1u << 20;
    std::size_t recvCapacity = static_cast<std::size_t>(-1);
    int maxSegments = 64; ///< segment table (hl: live transfers)
    bool dmaXfer = false; ///< §5 extension: DMA bulk-data movement
    /// §5 ablation: every messaging call crosses into the kernel
    /// (no user-level NI access).
    bool kernelMediated = false;

    // CM-5 substrate knobs.
    OrderPolicyFactory order;          ///< default none: no scrambling
    FaultInjector::Config faults;      ///< default fault-free
    Tick maxJitter = 0;
    double injectBusyRate = 0.0;
    std::uint64_t seed = 0xc0ffeeULL;
    Tick injectGap = 0;  ///< link bandwidth: per-source packet spacing
    Tick deliverGap = 0; ///< link bandwidth: per-dest packet spacing
    int maxOffloadEntries = 8; ///< nicam: on-NIC handler-table size

    // Host-layer knobs (CMAM's and hl's are above).
    int mrCacheSlots = 4;        ///< verbs: registration-cache entries
    std::size_t cqCapacity = 64; ///< verbs: completion-queue entries
};

/** @p layer on the first fabric stackPairs gives it (cm5 for CMAM). */
StackConfig stackConfigFor(HostLayer layer);

/**
 * Fill @p words of @p node's memory at @p buf from @p seed: the
 * application's data, written uncharged.
 */
void fillWords(Node &node, Addr buf, std::uint32_t words,
               std::uint64_t seed);

/**
 * Machine + fabric + one host layer per node.  Only the configured
 * layer is built, so the accessor of any other layer panics.
 */
class Stack
{
  public:
    /** Fatal unless (cfg.substrate, cfg.layer) is in stackPairs. */
    explicit Stack(const StackConfig &cfg);
    // Poll and progress events and the NI arrival hooks hold the
    // stack's address.
    Stack(const Stack &) = delete;
    Stack &operator=(const Stack &) = delete;

    Machine &machine() { return *machine_; }
    Simulator &sim() { return machine_->sim(); }
    Network &network() { return machine_->network(); }
    Substrate substrate() const { return cfg_.substrate; }
    int dataWords() const { return cfg_.dataWords; }
    const StackConfig &config() const { return cfg_; }

    /**
     * The CMAM layer on node @p id; on an hl stack, CMAM trusting the
     * fabric's netFeatures().
     */
    Cmam &cmam(NodeId id);
    /** The verbs NIC on node @p id. */
    RdmaNic &nic(NodeId id);
    /** The offloading host layer on node @p id. */
    NicamLayer &offload(NodeId id);

    /**
     * Host instructions node @p id's layer has spent on handler
     * dispatch (the layers' dispatchOps() mirrors); zero for verbs,
     * whose NIC dispatches.
     */
    std::uint64_t dispatchOps(NodeId id);

    /**
     * The verbs queue pair from @p a to @p b, its id valid at both
     * ends, connected on first use (uncharged control plane, like
     * RDMA connection management).
     */
    Word connectQp(NodeId a, NodeId b);

    // ------------------------------------------------------------
    // The steps of a transfer and a stream that differ by layer.
    // FiniteXfer and StreamProtocol skip what provided() names and
    // take the rest from here.
    // ------------------------------------------------------------

    /**
     * What the layer leaves to the hardware: nothing on CMAM; the
     * fabric's netFeatures() on hl and verbs; on offload, placement
     * by posted descriptor and the NIC's reorder stage (and delivery:
     * the NIC recovers no loss).
     */
    NetFeatures provided() const;

    /**
     * Post the buffer at @p dst that transfer @p tid from @p src lands
     * in: the header packet binds it on hl (uncharged); verbs
     * registers it and posts a receive, offload writes the NIC's
     * descriptor (BaseCost).  @p done runs when a poll takes in the
     * last word.  Not on CMAM, which handshakes instead.
     */
    void postTransfer(NodeId src, NodeId dst, Word tid, Addr buf,
                      std::uint32_t words, Cmam::XferDoneFn done);

    /**
     * Send @p words at @p buf to @p dst: into the buffer posted for
     * transfer @p id, or on CMAM into segment @p id.  The caller
     * scopes the feature.
     */
    void sendTransfer(NodeId src, NodeId dst, Word id, Addr buf,
                      std::uint32_t words);

    /** Takes in one stream packet at its destination, in order. */
    using StreamDeliverFn = std::function<void(const std::vector<Word> &)>;

    /**
     * Open channel @p chan of @p packets packets from @p src to @p dst
     * on a layer that provides in-order reliable delivery; @p deliver
     * takes them in.  verbs registers a send buffer and a landing
     * ring and posts a receive per packet (BaseCost); offload opens
     * the NIC's reorder ring; hl's CMAM stream sink delivers.
     */
    void openStream(NodeId src, NodeId dst, Word chan,
                    std::uint32_t packets, StreamDeliverFn deliver);

    /** Send packet @p seq of @p chan; the caller scopes the feature. */
    void sendStream(NodeId src, NodeId dst, Word chan, std::uint32_t seq,
                    const std::vector<Word> &data);

    /** Close channel @p chan: offload retires its NIC-table entry. */
    void closeStream(Word chan);

    /**
     * True on the verbs and offload layers: no CMAM, and the NIC
     * lands data in host memory for pollPending() to take in.
     */
    bool nicLands() const
    {
        return cfg_.layer == HostLayer::Verbs ||
               cfg_.layer == HostLayer::Offload;
    }

    /** The node itself. */
    Node &node(NodeId id) { return machine_->node(id); }

    /** Run the simulation to quiescence (flushing order stages). */
    void settle() { machine_->settle(); }

    // ------------------------------------------------------------
    // Progress: every decision of when a node polls.
    // ------------------------------------------------------------

    /**
     * Settle, then poll once under BaseCost on each node that holds
     * something, in node order: a packet in the NI; on verbs a
     * completion; on offload a raised done flag or released stream
     * data (probed or harvested) or a NIC-table miss.  Returns the
     * nodes polled.
     */
    std::uint32_t pollPending();

    /**
     * Event mode: from now on, everything landing at node @p id (a
     * packet, a verbs completion, a done flag or stream data) queues
     * a service entry one tick later, under BaseCost.  The
     * entry polls as pollPending() does, or on CMAM with
     * RecvDiscipline::Interrupt takes the interrupt service.  How
     * many entries is the layer's accounting: the §4 layer takes one
     * per arrival (X2 pins hl instr 12032 = 47 × 256 packets), every
     * other layer one per node while one is queued (arrivals in the
     * same tick share it).
     */
    void pollOnArrival(NodeId id,
                       RecvDiscipline discipline = RecvDiscipline::Poll);

    /** End pollOnArrival on node @p id; a queued entry still runs. */
    void stopPollOnArrival(NodeId id);

    /**
     * Event-mode progress loop: @p first ticks from now, then every
     * @p gap ticks, run @p step on node @p id under BaseCost until it
     * returns true or stopProgress().  Models the progress thread an
     * application runs instead of an arrival interrupt.  One loop per
     * node at a time.
     */
    void startProgress(NodeId id, Tick first, Tick gap,
                       std::function<bool()> step);

    /** True while node @p id's progress loop runs. */
    bool progressing(NodeId id) const { return bool(progress_[id].step); }

    /**
     * Stop every progress loop and settle, so no loop tick is left
     * queued to run a later loop's step.
     */
    void stopProgress();

  private:
    /// One node's event-mode progress state.
    struct NodeProgress
    {
        std::function<bool()> step; ///< the running loop's; empty: none
        Tick gap = 0;
        RecvDiscipline discipline = RecvDiscipline::Poll;
        bool entryQueued = false; ///< a coalesced entry waits to run
    };

    /// A verbs or offload stream channel; closed: no deliver.
    struct StreamSlot
    {
        NodeId src = 0;
        NodeId dst = 0;
        Addr srcBuf = 0; ///< verbs: the registered send buffer
        Addr ring = 0;   ///< where the packets land at dst
        std::uint32_t packets = 0;
        StreamDeliverFn deliver;
    };

    /**
     * Take in what node @p id's NIC has landed for the host; false
     * when it had nothing (and nothing was charged).
     */
    bool takeIn(NodeId id);
    /** Point node @p id's arrival hooks at @p hook (null: remove). */
    void hookArrivals(NodeId id, const std::function<void()> &hook);
    /** verbs: run the landing of a receive harvested at node @p id. */
    void completed(NodeId id, const RdmaNic::Completion &c);

    /** The arrival hook of pollOnArrival: queue a service entry. */
    void arrived(NodeId id);
    /** The service entry: poll (or interrupt) node @p id. */
    void serviceArrivals(std::uint32_t id);
    /** One progress-loop tick on node @p id. */
    void progressTick(std::uint32_t id);

    StackConfig cfg_;
    std::unique_ptr<Machine> machine_;
    // Per-node layers; only cfg_.layer's vector is filled (CMAM's
    // for hl).
    std::vector<std::unique_ptr<Cmam>> cmams_;
    std::vector<std::unique_ptr<RdmaNic>> nics_;
    std::vector<std::unique_ptr<NicamLayer>> offloads_;
    std::vector<NodeProgress> progress_;

    // The NIC layers' transfer and stream state.
    /// verbs: the queue pair of each ordered (src, dst) pair.
    std::map<std::pair<NodeId, NodeId>, Word> qps_;
    /// What a landing runs, by (node, qp) on verbs (its receives'
    /// steps in posting order, as the QP matches them) and by (node,
    /// transfer id) on offload.
    std::map<std::pair<NodeId, Word>, std::deque<Cmam::XferDoneFn>>
        landings_;
    std::map<Word, StreamSlot> streams_; ///< by channel id
    /// Landed packets on their way to a channel.  Leased: a delivery
    /// may re-enter the stack.
    ScratchPool<std::vector<Word>> wordBufs_;
};

} // namespace msgsim

#endif // MSGSIM_PROTOCOLS_STACK_HH
