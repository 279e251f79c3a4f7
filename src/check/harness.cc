#include "check/harness.hh"

#include <algorithm>
#include <map>
#include <sstream>

#include "protocols/finite_xfer.hh"
#include "protocols/socket.hh"
#include "protocols/stream.hh"
#include "sim/log.hh"
#include "wire/mux.hh"

namespace msgsim::check
{

namespace
{

/** Nodes in a scenario's machine: two at least. */
std::uint32_t
machineNodes(const ScenarioConfig &cfg)
{
    return std::max<std::uint32_t>(2, cfg.nodes);
}

/**
 * Word @p word of packet (or frame) @p pkt from source @p src, a
 * sending node or a wire stream: distinct per source, packet and
 * word (below 256 sources, 65,536 packets and 256 words), and rising
 * with the packet index, so a delivered word tells which source sent
 * it and where it stands in that source's order.
 */
constexpr Word
payloadWord(std::uint32_t src, std::uint32_t pkt, std::uint32_t word = 0)
{
    return src << 24 | pkt << 8 | word;
}

} // namespace

ScenarioHarness::ScenarioHarness(const ScenarioConfig &cfg)
    : cfg_(cfg)
{
    StackConfig sc;
    sc.substrate = cfg.substrate;
    sc.nodes = machineNodes(cfg);
    stack_ = std::make_unique<Stack>(sc);
    controller_ =
        std::make_unique<ScheduleController>(stack_->network());
}

void
ScenarioHarness::progress()
{
    // Handled packets may send (acks, replies) — those injections
    // are captured by the controller, so this loop reaches a
    // fixpoint once every already-delivered packet is consumed.
    for (int round = 0; round < 256; ++round) {
        if (stack_->pollPending() == 0) {
            stack_->settle();
            return;
        }
    }
    msgsim_panic("scenario progress loop failed to reach fixpoint");
}

namespace
{

// ----------------------------------------------------------------
// Contract 1, active messages: nodes [first, end) each fire
// `packets` am4s at one sink (single_packet: node 0 at node 1;
// incast: every other node at node 0, the fan-in storm).  No
// software recovery exists, so the specification is fault-aware:
// every message is delivered exactly once, minus the copies the
// schedule destroyed (dropped or corrupted), plus the ones it
// duplicated; and an in-order substrate keeps each source's
// messages in order (fan-in may interleave sources freely).
// ----------------------------------------------------------------
class AmScenario : public ScenarioHarness
{
  public:
    AmScenario(const ScenarioConfig &cfg, NodeId first, NodeId end,
               NodeId sink)
        : ScenarioHarness(cfg), first_(first), end_(end), sink_(sink)
    {
        for (NodeId id = 0; id < stack_->machine().nodeCount(); ++id)
            handler_ = stack_->cmam(id).registerHandler(
                [this](NodeId src, const std::vector<Word> &args) {
                    delivered_.emplace_back(src, args[0]);
                });
        controller_->setDecisionHook(
            [this](const Choice &c, const Packet &pkt) {
                if (pkt.tag != HwTag::UserAm || pkt.data.empty())
                    return;
                if (c.kind == ChoiceKind::Drop ||
                    c.kind == ChoiceKind::Corrupt)
                    --expected_[pkt.data[0]];
                else if (c.kind == ChoiceKind::Duplicate)
                    ++expected_[pkt.data[0]];
            });
    }

    void
    start() override
    {
        for (std::uint32_t i = 0; i < cfg_.packets; ++i) {
            for (NodeId src = first_; src < end_; ++src) {
                const Word value = payloadWord(src, i);
                expected_[value] = 1;
                FeatureScope fs(stack_->node(src).acct(),
                                Feature::BaseCost);
                stack_->cmam(src).am4(sink_, handler_, {value, 0, 0, 0});
            }
        }
    }

    bool
    done() const override
    {
        std::uint64_t want = 0;
        for (const auto &[value, count] : expected_)
            want += static_cast<std::uint64_t>(std::max(count, 0));
        return delivered_.size() == want;
    }

    std::string
    protocolInvariant() const override
    {
        std::map<Word, int> seen;
        for (const auto &[src, value] : delivered_)
            ++seen[value];
        for (const auto &[value, count] : seen) {
            auto it = expected_.find(value);
            const int want = it == expected_.end()
                                 ? 0
                                 : std::max(0, it->second);
            if (count > want) {
                std::ostringstream os;
                os << "value " << std::hex << value << std::dec
                   << " delivered " << count << "x, expected "
                   << want;
                return os.str();
            }
        }
        if (stack_->network().features().inOrderDelivery) {
            std::map<NodeId, Word> last;
            for (const auto &[src, value] : delivered_) {
                const auto [it, first] = last.try_emplace(src, value);
                if (!first && value < it->second) {
                    std::ostringstream os;
                    os << "in-order substrate reordered source " << src
                       << "'s messages";
                    return os.str();
                }
                it->second = value;
            }
        }
        return "";
    }

    std::string
    protocolFinal() const override
    {
        const std::string step = protocolInvariant();
        if (!step.empty())
            return step;
        if (!done()) {
            std::ostringstream os;
            os << "only " << delivered_.size() << " of the surviving "
               << "messages were delivered";
            return os.str();
        }
        return "";
    }

  private:
    NodeId first_, end_, sink_;
    int handler_ = 0;
    /// (source, value) in delivery order at the sink.
    std::vector<std::pair<NodeId, Word>> delivered_;
    std::map<Word, int> expected_; ///< per-value surviving copies
};

// ----------------------------------------------------------------
// Contract 2, the finite-sequence transfer, with explicit restart
// recovery as the kick.
// ----------------------------------------------------------------
class TransferScenario : public ScenarioHarness
{
  public:
    explicit TransferScenario(const ScenarioConfig &cfg)
        : ScenarioHarness(cfg)
    {
        xfer_ = std::make_unique<FiniteXfer>(*stack_);
    }

    void
    start() override
    {
        FiniteXferParams p;
        p.src = 0;
        p.dst = 1;
        p.words = cfg_.packets * static_cast<std::uint32_t>(
                                     stack_->dataWords());
        tid_ = xfer_->beginTransfer(p);
    }

    bool
    kick() override
    {
        return xfer_->restartTransfer(tid_, maxRestarts_);
    }

    bool done() const override { return xfer_->transferComplete(tid_); }

    std::string
    protocolInvariant() const override
    {
        if (xfer_->activeDstSegments() > 1)
            return "more than one destination segment live for a "
                   "single transfer";
        return "";
    }

    std::string
    protocolFinal() const override
    {
        if (!xfer_->transferComplete(tid_))
            return "transfer never completed";
        if (!xfer_->transferDataOk(tid_))
            return "transfer completed with corrupt destination data";
        if (xfer_->activeDstSegments() != 0)
            return "destination segment leaked after completion";
        return "";
    }

  private:
    static constexpr int maxRestarts_ = 8;
    std::unique_ptr<FiniteXfer> xfer_;
    Word tid_ = 0;
};

// ----------------------------------------------------------------
// Contract 3, the indefinite-sequence stream on a persistent
// channel from node 0 to node 1.  Exactly-once in-order delivery
// must hold under drops, corruption, AND duplication, with the
// reorder buffer and retransmission ring within their bounds; the
// kick is the timeout model (flush partial group acks, retransmit
// unacked).
// ----------------------------------------------------------------
class StreamScenario : public ScenarioHarness
{
  public:
    explicit StreamScenario(const ScenarioConfig &cfg)
        : ScenarioHarness(cfg)
    {
        proto_ = std::make_unique<StreamProtocol>(*stack_);
        proto_->setBugAckBeforeInsert(cfg.bugAckBeforeInsert);
    }

    void
    start() override
    {
        chan_ = proto_->openPersistent(
            0, 1, cfg_.groupAck, /*ringPackets=*/cfg_.packets,
            [this](std::uint32_t, const std::vector<Word> &w) {
                delivered_.push_back(w[0]);
            });
        // The ring has as many slots as packets, so this never
        // blocks on the (gated, schedule-driven) progress loop.
        proto_->sendOn(chan_, payload());
    }

    bool
    kick() override
    {
        const auto acksBefore = proto_->totals().acksSent;
        proto_->flushGroupAcks(chan_);
        bool acted = proto_->totals().acksSent != acksBefore;
        if (proto_->channelUnacked(chan_) > 0) {
            proto_->retransmitUnacked(chan_);
            acted = true;
        }
        return acted;
    }

    bool
    done() const override
    {
        return delivered_.size() == cfg_.packets &&
               proto_->channelUnacked(chan_) == 0;
    }

    std::string
    protocolInvariant() const override
    {
        if (delivered_.size() > cfg_.packets)
            return "more packets delivered than were sent";
        for (std::size_t i = 0; i < delivered_.size(); ++i) {
            if (delivered_[i] !=
                payloadWord(0, static_cast<std::uint32_t>(i))) {
                std::ostringstream os;
                os << "stream broke in-order exactly-once delivery "
                      "at packet "
                   << i;
                return os.str();
            }
        }
        // A closed channel holds nothing to bound: close() drained it.
        if (!proto_->channelOpen(chan_))
            return "";
        if (proto_->channelPending(chan_) >
            proto_->channelArenaSlots(chan_))
            return "reorder buffer exceeded its arena";
        if (proto_->channelUnacked(chan_) >
            proto_->channelRetxSlots(chan_))
            return "retransmission ring exceeded its capacity";
        return "";
    }

    std::string
    protocolFinal() const override
    {
        const std::string step = protocolInvariant();
        if (!step.empty())
            return step;
        if (delivered_.size() != cfg_.packets) {
            std::ostringstream os;
            os << "stream delivered " << delivered_.size() << " of "
               << cfg_.packets << " packets";
            return os.str();
        }
        if (!proto_->channelOpen(chan_))
            return "";
        if (proto_->channelUnacked(chan_) != 0)
            return "sender retains unacknowledged packets at "
                   "quiescence";
        if (proto_->channelPending(chan_) != 0)
            return "reorder buffer not empty at quiescence";
        return "";
    }

  protected:
    /** Every packet's words, in send order. */
    std::vector<Word>
    payload() const
    {
        const auto n = static_cast<std::uint32_t>(stack_->dataWords());
        std::vector<Word> words;
        words.reserve(cfg_.packets * n);
        for (std::uint32_t i = 0; i < cfg_.packets; ++i)
            for (std::uint32_t j = 0; j < n; ++j)
                words.push_back(payloadWord(0, i, j));
        return words;
    }

    std::unique_ptr<StreamProtocol> proto_;
    Word chan_ = 0;
    /// First word of each delivered packet, in delivery order.
    std::vector<Word> delivered_;
};

// The socket API over the same channel: opened and written through
// StreamSocket, and closed (drained, then retired) once the schedule
// completes, so the teardown is verified too.
class SocketScenario : public StreamScenario
{
  public:
    using StreamScenario::StreamScenario;

    void
    start() override
    {
        StreamSocket::Options opts;
        opts.groupAck = cfg_.groupAck;
        opts.ringPackets = cfg_.packets;
        socket_ = std::make_unique<StreamSocket>(
            *proto_, 0, 1,
            [this](const std::vector<Word> &w) {
                delivered_.push_back(w[0]);
            },
            opts);
        chan_ = socket_->channel();
        socket_->write(payload());
    }

    // A schedule cut short (a violation, the step bound) leaves the
    // channel mid-flight behind the gate, where closing it would
    // drive a network that cannot move.
    ~SocketScenario() override
    {
        if (socket_)
            socket_->abort();
    }

    void finish() override { socket_->close(); }

    std::string
    protocolFinal() const override
    {
        if (socket_->isOpen())
            return "socket still open after teardown";
        return StreamScenario::protocolFinal();
    }

  private:
    std::unique_ptr<StreamSocket> socket_;
};

// ----------------------------------------------------------------
// Contract 4, the wire layer's StreamMux: framed multi-stream
// transport with per-stream sliding-window flow control, riding a
// reliable channel pair.  Streams open in batches; each batch sends
// every frame round-robin over its streams, then closes them, before
// the next batch opens.  One batch of --streams streams is the
// window-stall/refill race (wire_window: sends defer to the backlog
// and only cumulative acks, which the schedule orders freely, pump
// them out; with --wire-corrupt-every the CRC-reject resend path
// joins in); two batches of one are the attach-while-detaching race
// (wire_attach: stream A closes with frames still unacked, then B
// attaches and pushes data while A tears down).  Safety, per step:
// in-order exactly-once intact delivery per stream, the window
// bound, and no delivery on a reset stream; at the end every stream
// delivered all its frames and is detached on both sides.
// ----------------------------------------------------------------
class WireScenario : public ScenarioHarness
{
  public:
    WireScenario(const ScenarioConfig &cfg,
                 std::vector<std::uint32_t> batches)
        : ScenarioHarness(cfg), batches_(std::move(batches))
    {
        proto_ = std::make_unique<StreamProtocol>(*stack_);
        wire::MuxOptions mo;
        mo.groupAck = cfg.groupAck;
        // Under the schedule gate nothing is delivered until the
        // explorer says so, so a full retransmit ring would spin
        // forever inside sendOn.  Size the rings for the whole
        // scenario: every frame ever sent (including the wire-level
        // kick resends) fits without blocking.
        mo.ringPackets = 512;
        mo.window = static_cast<std::uint8_t>(
            cfg.window < 1 ? 1 : cfg.window);
        mo.ackEvery = 1;
        mux_ = std::make_unique<wire::StreamMux>(
            *stack_, *proto_, 0, 1, mo,
            [this](std::uint16_t sid, std::uint32_t seq,
                   const std::vector<Word> &payload) {
                onDeliver(sid, seq, payload);
            });
        mux_->setCorruptEveryN(cfg.wireCorruptEvery);
        mux_->setBugResetDeliver(cfg.bugWireResetDeliver);
    }

    void
    start() override
    {
        for (const std::uint32_t n : batches_) {
            const std::size_t first = sids_.size();
            for (std::uint32_t s = 0; s < n; ++s)
                sids_.push_back(mux_->openStream());
            for (std::uint32_t i = 0; i < cfg_.packets; ++i)
                for (std::size_t k = first; k < sids_.size(); ++k)
                    mux_->send(sids_[k], payloadFor(sids_[k], i));
            for (std::size_t k = first; k < sids_.size(); ++k)
                mux_->closeStream(sids_[k]);
        }
    }

    bool kick() override { return mux_->kick(); }

    bool
    done() const override
    {
        for (const std::uint16_t sid : sids_) {
            if (mux_->sendState(sid) != wire::SendState::Detached)
                return false;
            if (mux_->deliveredOn(sid) != cfg_.packets)
                return false;
        }
        return mux_->quiescent();
    }

    std::string
    protocolInvariant() const override
    {
        for (const auto &[sid, words] : delivered_) {
            for (std::size_t i = 0; i < words.size(); ++i) {
                if (words[i] !=
                    payloadWord(sid, static_cast<std::uint32_t>(i))) {
                    std::ostringstream os;
                    os << "stream " << sid
                       << " broke in-order exactly-once delivery "
                          "at frame "
                       << i;
                    return os.str();
                }
            }
        }
        for (const std::uint16_t sid : sids_) {
            if (mux_->unacked(sid) >
                static_cast<std::size_t>(cfg_.window)) {
                std::ostringstream os;
                os << "stream " << sid
                   << " exceeded its sliding window: "
                   << mux_->unacked(sid) << " unacked frames";
                return os.str();
            }
        }
        if (mux_->stats().deliveredAfterReset != 0)
            return "data delivered on a reset stream";
        return "";
    }

    std::string
    protocolFinal() const override
    {
        const std::string step = protocolInvariant();
        if (!step.empty())
            return step;
        for (const std::uint16_t sid : sids_) {
            if (mux_->deliveredOn(sid) != cfg_.packets ||
                mux_->sendState(sid) != wire::SendState::Detached ||
                mux_->recvState(sid) != wire::RecvState::Detached) {
                std::ostringstream os;
                os << "stream " << sid << " ended "
                   << toString(mux_->sendState(sid)) << "/"
                   << toString(mux_->recvState(sid)) << " with "
                   << mux_->deliveredOn(sid) << " of "
                   << cfg_.packets << " frames";
                return os.str();
            }
        }
        if (!mux_->quiescent())
            return "wire layer not quiescent at end of schedule";
        return "";
    }

  protected:
    virtual void
    onDeliver(std::uint16_t sid, std::uint32_t,
              const std::vector<Word> &payload)
    {
        delivered_[sid].push_back(payload[0]);
    }

    static std::vector<Word>
    payloadFor(std::uint16_t sid, std::uint32_t frame)
    {
        return {payloadWord(sid, frame, 0), payloadWord(sid, frame, 1)};
    }

    std::unique_ptr<StreamProtocol> proto_;
    std::unique_ptr<wire::StreamMux> mux_;
    std::vector<std::uint32_t> batches_; ///< streams per batch
    std::vector<std::uint16_t> sids_;
    /// Per-stream first payload words, in delivery order.
    std::map<std::uint16_t, std::vector<Word>> delivered_;
};

// The reset-vs-inflight-data race: one stream, never closed; the
// receiver aborts it from inside the first delivery, with the rest
// of the window still in the network.  The contract says every
// later DATA frame is discarded; the seeded bug (--bug-wire-reset)
// keeps delivering and the checker must catch it.
class WireResetScenario : public WireScenario
{
  public:
    explicit WireResetScenario(const ScenarioConfig &cfg)
        : WireScenario(cfg, {})
    {
    }

    void
    start() override
    {
        sid_ = mux_->openStream();
        sids_.push_back(sid_);
        for (std::uint32_t i = 0; i < cfg_.packets; ++i)
            mux_->send(sid_, payloadFor(sid_, i));
    }

    bool
    done() const override
    {
        return resetIssued_ &&
               mux_->sendState(sid_) == wire::SendState::Reset &&
               mux_->quiescent();
    }

    std::string
    protocolFinal() const override
    {
        const std::string step = protocolInvariant();
        if (!step.empty())
            return step;
        if (mux_->deliveredOn(sid_) != 1) {
            std::ostringstream os;
            os << "reset stream delivered "
               << mux_->deliveredOn(sid_)
               << " frames, expected exactly the pre-reset one";
            return os.str();
        }
        if (mux_->recvState(sid_) != wire::RecvState::Reset)
            return "receiver side not in reset state at end";
        if (!mux_->quiescent())
            return "wire layer not quiescent after reset settled";
        return "";
    }

  protected:
    void
    onDeliver(std::uint16_t sid, std::uint32_t seq,
              const std::vector<Word> &payload) override
    {
        WireScenario::onDeliver(sid, seq, payload);
        if (!resetIssued_) {
            resetIssued_ = true;
            mux_->resetStream(sid);
        }
    }

  private:
    std::uint16_t sid_ = 0;
    bool resetIssued_ = false;
};

using Harness = std::unique_ptr<ScenarioHarness>;

/** A @p S harness: one row of the scenario table. */
template <class S>
Harness
build(const ScenarioConfig &cfg)
{
    return std::make_unique<S>(cfg);
}

/**
 * Every checker protocol: its name and its harness, one of the four
 * contracts above with the row's senders, sink or stream batches.
 */
constexpr struct
{
    const char *name;
    Harness (*make)(const ScenarioConfig &);
} scenarios[] = {
    {"single_packet",
     [](const ScenarioConfig &c) -> Harness {
         return std::make_unique<AmScenario>(c, /*first=*/0, /*end=*/1,
                                             /*sink=*/1);
     }},
    {"incast",
     [](const ScenarioConfig &c) -> Harness {
         return std::make_unique<AmScenario>(c, /*first=*/1,
                                             machineNodes(c), /*sink=*/0);
     }},
    {"finite_xfer", build<TransferScenario>},
    {"stream", build<StreamScenario>},
    {"socket", build<SocketScenario>},
    {"wire_window",
     [](const ScenarioConfig &c) -> Harness {
         return std::make_unique<WireScenario>(
             c, std::vector<std::uint32_t>{std::max(1u, c.streams)});
     }},
    {"wire_reset", build<WireResetScenario>},
    {"wire_attach",
     [](const ScenarioConfig &c) -> Harness {
         return std::make_unique<WireScenario>(
             c, std::vector<std::uint32_t>{1, 1});
     }},
};

} // namespace

std::vector<std::string>
ScenarioHarness::protocols()
{
    std::vector<std::string> names;
    for (const auto &s : scenarios)
        names.emplace_back(s.name);
    return names;
}

std::unique_ptr<ScenarioHarness>
ScenarioHarness::make(const ScenarioConfig &cfg)
{
    for (const auto &s : scenarios)
        if (cfg.protocol == s.name)
            return s.make(cfg);
    msgsim_fatal("unknown checker protocol '", cfg.protocol, "'");
}

} // namespace msgsim::check
