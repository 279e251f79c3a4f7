/**
 * @file
 * The verbs-style host interface of the RDMA substrate.
 *
 * Where the CM-5 NI is a pair of memory-mapped FIFOs the processor
 * feeds one word at a time, a verbs NIC moves the data itself.  The
 * host's instruction bill changes shape accordingly (Breaking Band,
 * arXiv 2002.02563):
 *
 *  - *send*: build a four-word work-queue entry in host memory and
 *    ring a doorbell (one device store).  The NIC then DMA-reads the
 *    payload from the registered source region — the per-word
 *    device stores of the CM-5 path vanish;
 *  - *receive*: the NIC DMA-writes payloads straight into the posted,
 *    registered buffer (zero copy) and reports through a completion
 *    queue in host memory.  The host's receive cost is the CQ poll —
 *    charged under the new Feature::CompletionPoll column;
 *  - *registration*: before the NIC may touch a region the host must
 *    pin and translate it.  First touch is expensive, a hit in the
 *    MR cache is cheap — charged under Feature::Registration.
 *
 * The paper's 1994 overheads (buffering, in-order, fault tolerance)
 * are absorbed by the fabric (RdmaNetwork); the two new columns are
 * what today's stacks pay instead.
 */

#ifndef MSGSIM_RDMANET_RDMA_NIC_HH
#define MSGSIM_RDMANET_RDMA_NIC_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <vector>

#include "machine/node.hh"
#include "net/network.hh"
#include "net/packet.hh"

namespace msgsim
{

/**
 * Per-node verbs interface: queue pairs, doorbells, completion queue,
 * memory-registration cache.  Replaces the node's NI as the network
 * delivery sink.
 */
class RdmaNic
{
  public:
    struct Config
    {
        int mtuWords = 4;       ///< fabric packet payload (matches NI)
        int mrCacheSlots = 4;   ///< registration-cache entries
        std::size_t cqCapacity = 64; ///< completion-queue entries
        std::uint32_t pageWords = 256; ///< translation granularity
    };

    /** One harvested completion-queue entry. */
    struct Completion
    {
        enum class Kind : std::uint8_t { Send, Recv };
        Kind kind = Kind::Send;
        Word qp = 0;
        NodeId peer = invalidNode;
        std::uint32_t words = 0;
        Word userTag = 0;
    };

    /** Invoked from pollCq() for each harvested completion. */
    using CompletionFn = std::function<void(const Completion &)>;

    RdmaNic(Node &node, Network &net, const Config &cfg);

    RdmaNic(const RdmaNic &) = delete;
    RdmaNic &operator=(const RdmaNic &) = delete;

    Node &node() { return node_; }

    /** Install the completion callback (application level). */
    void setCompletionFn(CompletionFn fn) { completionFn_ = std::move(fn); }

    /**
     * Run @p fn whenever a completion lands in the CQ, a send's too,
     * so an event-mode host reaps both as settled polls do
     * (Stack::pollOnArrival installs it); null removes it.
     */
    void setArrivalHook(std::function<void()> fn)
    {
        arrivalHook_ = std::move(fn);
    }

    // ------------------------------------------------------------
    // Control plane (uncharged, like connection management).
    // ------------------------------------------------------------

    /** Bind queue pair @p qp to @p peer (done by Stack::connectQp). */
    void bindQp(Word qp, NodeId peer);

    // ------------------------------------------------------------
    // Verbs (charged host operations).
    // ------------------------------------------------------------

    /**
     * Register [addr, addr+words) with the NIC.  Charged under
     * Feature::Registration: a cache hit costs a probe (4 reg +
     * 1 mem), a miss pays pinning, per-page translation stores and
     * the device writes that program the NIC's MR table.  Returns
     * true on a cache hit.
     */
    bool regMr(Addr addr, std::uint32_t words);

    /**
     * Post a receive buffer on @p qp: recv WQE build + doorbell.
     * The buffer must be registered.  Charged as base cost.
     */
    void postRecv(Word qp, Addr buf, std::uint32_t words, Word userTag);

    /**
     * Post a send of @p words words at @p laddr on @p qp: lkey check,
     * send WQE build, doorbell.  The NIC fragments and injects the
     * message itself (zero copy).  Returns false when the completion
     * queue has no free slot for the send completion — the host must
     * poll the CQ first (doorbell backpressure).
     */
    bool postSend(Word qp, Addr laddr, std::uint32_t words,
                  Word userTag);

    /**
     * Harvest up to @p max completions (-1 = all).  Charged under
     * Feature::CompletionPoll: producer-index probes, CQE reads from
     * host memory, callback linkage.  Returns completions harvested.
     */
    int pollCq(int max = -1);

    // ------------------------------------------------------------
    // Hardware side (uncharged): the network delivery sink.
    // ------------------------------------------------------------

    /** Fragment arrival from the fabric; false = receiver not ready. */
    bool nicDeliver(const Packet &pkt);

    // ------------------------------------------------------------
    // Accounting (diagnostics; never charged).
    // ------------------------------------------------------------

    std::uint64_t mrCacheHits() const { return mrCacheHits_; }
    std::uint64_t mrCacheMisses() const { return mrCacheMisses_; }
    /** Distinct regions the NIC translates (a miss on a region it
     *  still covers adds none). */
    std::size_t registeredRegions() const { return registered_.size(); }
    std::uint64_t cqesHarvested() const { return cqesHarvested_; }
    /// Deliveries refused because the CQ had no free slot.
    std::uint64_t cqOverflowStalls() const { return cqOverflowStalls_; }
    /// Deliveries refused because no receive was posted (RNR).
    std::uint64_t rnrNoRecv() const { return rnrNoRecv_; }
    /// postSend() calls refused for want of a CQ slot.
    std::uint64_t sendStalls() const { return sendStalls_; }
    std::size_t cqDepth() const { return cq_.size(); }

    /** Receive WQEs posted but not yet consumed, across all QPs. */
    std::size_t
    postedRecvCount() const
    {
        std::size_t n = 0;
        for (const auto &[qp, q] : postedRecvs_)
            n += q.size();
        return n;
    }

    /** Send WQEs ever posted (doorbells rung). */
    std::uint64_t sendsPosted() const { return sendRingIdx_; }

    /** The NIC's configuration (CQ capacity etc.). */
    const Config &config() const { return cfg_; }

  private:
    struct QpState
    {
        NodeId peer = invalidNode;
        // Receive-side reassembly of the in-flight message.
        Addr buf = 0;
        std::uint32_t offset = 0;
        std::uint32_t remaining = 0;
        Word userTag = 0;
    };

    struct PostedRecv
    {
        Addr buf = 0;
        std::uint32_t words = 0;
        Word userTag = 0;
    };

    struct MrRegion
    {
        Addr addr = 0;
        std::uint32_t words = 0;
    };

    bool isRegistered(Addr addr, std::uint32_t words) const;
    bool cacheCovers(Addr addr, std::uint32_t words) const;
    void pushCqe(const Completion &c);

    Node &node_;
    Network &net_;
    Config cfg_;
    CompletionFn completionFn_;
    std::function<void()> arrivalHook_;

    std::map<Word, QpState> qps_;
    std::map<Word, std::deque<PostedRecv>> postedRecvs_;
    std::deque<Completion> cq_;

    // Modeled host-memory structures (allocated at boot, uncharged).
    Addr sendRingBase_ = 0; ///< send WQE ring
    Addr recvRingBase_ = 0; ///< recv WQE ring
    Addr cqRingBase_ = 0;   ///< CQE ring (NIC DMA-writes, host reads)
    Addr cqIndexAddr_ = 0;  ///< producer/consumer index pair
    Addr mrTableBase_ = 0;  ///< per-slot translation entries
    std::uint64_t sendRingIdx_ = 0;
    std::uint64_t recvRingIdx_ = 0;
    std::uint64_t cqProducer_ = 0;
    std::uint64_t cqConsumer_ = 0;

    std::vector<MrRegion> mrCache_;    ///< bounded (FIFO eviction)
    std::vector<MrRegion> registered_; ///< every region pinned, once
    std::uint64_t mrCacheNext_ = 0;

    std::uint64_t mrCacheHits_ = 0;
    std::uint64_t mrCacheMisses_ = 0;
    std::uint64_t cqesHarvested_ = 0;
    std::uint64_t cqOverflowStalls_ = 0;
    std::uint64_t rnrNoRecv_ = 0;
    std::uint64_t sendStalls_ = 0;
};

} // namespace msgsim

#endif // MSGSIM_RDMANET_RDMA_NIC_HH
