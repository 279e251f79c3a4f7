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

ScenarioHarness::ScenarioHarness(const ScenarioConfig &cfg)
    : cfg_(cfg)
{
    StackConfig sc;
    sc.substrate = cfg.substrate;
    sc.nodes = cfg.nodes < 2 ? 2 : cfg.nodes;
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
// Protocol 1: single-packet active messages.  No software recovery
// exists, so the specification is fault-aware: every message is
// delivered exactly once, minus the ones the schedule explicitly
// destroyed (dropped or corrupted), in order on an in-order
// substrate.
// ----------------------------------------------------------------
class SinglePacketScenario : public ScenarioHarness
{
  public:
    explicit SinglePacketScenario(const ScenarioConfig &cfg)
        : ScenarioHarness(cfg)
    {
        for (NodeId id = 0; id < stack_->machine().nodeCount(); ++id)
            handler_ = stack_->cmam(id).registerHandler(
                [this](NodeId, const std::vector<Word> &args) {
                    delivered_.push_back(args.empty() ? 0 : args[0]);
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
        Node &src = stack_->node(0);
        for (std::uint32_t i = 0; i < cfg_.packets; ++i) {
            const Word value = 0xc0de0000u + i;
            sent_.push_back(value);
            expected_[value] = 1;
            FeatureScope fs(src.acct(), Feature::BaseCost);
            stack_->cmam(0).am4(1, handler_, {value, i, 0, 0});
        }
    }

    bool
    done() const override
    {
        std::uint64_t want = 0;
        for (const auto &[value, count] : expected_)
            if (count > 0)
                want += static_cast<std::uint64_t>(count);
        return delivered_.size() == want;
    }

    std::string
    protocolInvariant() const override
    {
        std::map<Word, int> seen;
        for (Word v : delivered_)
            ++seen[v];
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
        if (stack_->network().features().inOrderDelivery &&
            !std::is_sorted(delivered_.begin(), delivered_.end())) {
            return "in-order substrate delivered messages out of "
                   "order";
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
    int handler_ = 0;
    std::vector<Word> sent_;
    std::vector<Word> delivered_;
    std::map<Word, int> expected_; ///< per-value surviving copies
};

// ----------------------------------------------------------------
// Incast: every non-zero node fires `packets` active messages at
// node 0 — the datacenter fan-in storm as a checked scenario.  Like
// single_packet the specification is fault-aware (exactly-once
// among the surviving copies), plus per-source monotonic delivery
// on an in-order substrate: fan-in may interleave sources freely,
// but no fabric may reorder any one of them.
// ----------------------------------------------------------------
class IncastScenario : public ScenarioHarness
{
  public:
    explicit IncastScenario(const ScenarioConfig &cfg)
        : ScenarioHarness(cfg)
    {
        for (NodeId id = 0; id < stack_->machine().nodeCount(); ++id)
            handler_ = stack_->cmam(id).registerHandler(
                [this](NodeId src, const std::vector<Word> &args) {
                    delivered_.emplace_back(
                        src, args.empty() ? 0 : args[0]);
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
        const std::uint32_t n = stack_->machine().nodeCount();
        for (std::uint32_t i = 0; i < cfg_.packets; ++i) {
            for (NodeId src = 1; src < n; ++src) {
                const Word value =
                    (static_cast<Word>(src) << 16) | i;
                expected_[value] = 1;
                Node &nd = stack_->node(src);
                FeatureScope fs(nd.acct(), Feature::BaseCost);
                stack_->cmam(src).am4(0, handler_, {value, i, 0, 0});
            }
        }
    }

    bool
    done() const override
    {
        std::uint64_t want = 0;
        for (const auto &[value, count] : expected_)
            if (count > 0)
                want += static_cast<std::uint64_t>(count);
        return delivered_.size() == want;
    }

    std::string
    protocolInvariant() const override
    {
        std::map<Word, int> seen;
        for (const auto &[src, v] : delivered_)
            ++seen[v];
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
            for (const auto &[src, v] : delivered_) {
                auto it = last.find(src);
                if (it != last.end() && v < it->second) {
                    std::ostringstream os;
                    os << "in-order substrate reordered source "
                       << src << "'s fan-in stream";
                    return os.str();
                }
                last[src] = std::max(
                    it == last.end() ? v : it->second, v);
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
            os << "only " << delivered_.size()
               << " of the surviving fan-in messages were delivered";
            return os.str();
        }
        return "";
    }

  private:
    int handler_ = 0;
    /// (source, value) in delivery order at the sink.
    std::vector<std::pair<NodeId, Word>> delivered_;
    std::map<Word, int> expected_; ///< per-value surviving copies
};

// ----------------------------------------------------------------
// Protocol 2: the finite-sequence transfer, with explicit restart
// recovery as the kick.
// ----------------------------------------------------------------
class FiniteXferScenario : public ScenarioHarness
{
  public:
    explicit FiniteXferScenario(const ScenarioConfig &cfg)
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
// Protocol 3: the indefinite-sequence stream on a persistent
// channel.  Exactly-once in-order delivery must hold under drops,
// corruption, AND duplication; the kick is the timeout model
// (flush partial group acks, retransmit unacked).
// ----------------------------------------------------------------
class StreamScenario : public ScenarioHarness
{
  public:
    explicit StreamScenario(const ScenarioConfig &cfg)
        : ScenarioHarness(cfg)
    {
        proto_ = std::make_unique<StreamProtocol>(*stack_);
        proto_->setBugAckBeforeInsert(cfg.bugAckBeforeInsert);
        chan_ = proto_->openPersistent(
            0, 1, cfg.groupAck, /*ringPackets=*/cfg.packets,
            [this](std::uint32_t seq, const std::vector<Word> &w) {
                deliveredSeqs_.push_back(seq);
                deliveredFirstWords_.push_back(w.empty() ? 0 : w[0]);
            });
    }

    void
    start() override
    {
        const int n = stack_->dataWords();
        std::vector<Word> words;
        words.reserve(cfg_.packets * static_cast<std::uint32_t>(n));
        for (std::uint32_t i = 0; i < cfg_.packets; ++i)
            for (int j = 0; j < n; ++j)
                words.push_back(value(i, j));
        // The ring has as many slots as packets, so this never
        // blocks on the (gated, schedule-driven) progress loop.
        proto_->sendOn(chan_, words);
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
        return proto_->channelDelivered(chan_) == cfg_.packets &&
               proto_->channelUnacked(chan_) == 0;
    }

    std::string
    protocolInvariant() const override
    {
        if (proto_->channelDelivered(chan_) > cfg_.packets)
            return "more packets delivered than were sent";
        for (std::size_t i = 0; i < deliveredSeqs_.size(); ++i) {
            if (deliveredSeqs_[i] != i)
                return "delivery sequence broke in-order "
                       "exactly-once contract";
            if (deliveredFirstWords_[i] !=
                value(static_cast<std::uint32_t>(i), 0))
                return "delivered payload does not match what was "
                       "sent";
        }
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
        if (proto_->channelDelivered(chan_) != cfg_.packets) {
            std::ostringstream os;
            os << "stream delivered "
               << proto_->channelDelivered(chan_) << " of "
               << cfg_.packets << " packets";
            return os.str();
        }
        if (proto_->channelUnacked(chan_) != 0)
            return "sender retains unacknowledged packets at "
                   "quiescence";
        if (proto_->channelPending(chan_) != 0)
            return "reorder buffer not empty at quiescence";
        return "";
    }

  protected:
    static Word
    value(std::uint32_t pkt, int word)
    {
        return 0xab000000u + pkt * 64u +
               static_cast<std::uint32_t>(word);
    }

    std::unique_ptr<StreamProtocol> proto_;
    Word chan_ = 0;
    std::vector<std::uint32_t> deliveredSeqs_;
    std::vector<Word> deliveredFirstWords_;
};

// ----------------------------------------------------------------
// Protocol 4: the socket API over the stream engine, including the
// explicit close()/drain() teardown once the schedule completes.
// ----------------------------------------------------------------
class SocketScenario : public ScenarioHarness
{
  public:
    explicit SocketScenario(const ScenarioConfig &cfg)
        : ScenarioHarness(cfg)
    {
        proto_ = std::make_unique<StreamProtocol>(*stack_);
        proto_->setBugAckBeforeInsert(cfg.bugAckBeforeInsert);
        StreamSocket::Options opts;
        opts.groupAck = cfg.groupAck;
        opts.ringPackets = cfg.packets;
        socket_ = std::make_unique<StreamSocket>(
            *proto_, 0, 1,
            [this](const std::vector<Word> &w) {
                deliveredFirstWords_.push_back(w.empty() ? 0 : w[0]);
            },
            opts);
    }

    void
    start() override
    {
        const int n = stack_->dataWords();
        std::vector<Word> words;
        words.reserve(cfg_.packets * static_cast<std::uint32_t>(n));
        for (std::uint32_t i = 0; i < cfg_.packets; ++i)
            for (int j = 0; j < n; ++j)
                words.push_back(value(i, j));
        socket_->write(words);
    }

    bool
    kick() override
    {
        if (!socket_->isOpen())
            return false;
        const auto acksBefore = proto_->totals().acksSent;
        proto_->flushGroupAcks(socket_->channel());
        bool acted = proto_->totals().acksSent != acksBefore;
        if (socket_->unacked() > 0) {
            proto_->retransmitUnacked(socket_->channel());
            acted = true;
        }
        return acted;
    }

    bool
    done() const override
    {
        return deliveredFirstWords_.size() == cfg_.packets &&
               socket_->unacked() == 0;
    }

    void
    finish() override
    {
        // Everything is delivered and acked; teardown must be clean
        // and instantaneous.
        socket_->close();
    }

    std::string
    protocolInvariant() const override
    {
        if (deliveredFirstWords_.size() > cfg_.packets)
            return "more packets delivered than were written";
        for (std::size_t i = 0; i < deliveredFirstWords_.size(); ++i)
            if (deliveredFirstWords_[i] !=
                value(static_cast<std::uint32_t>(i), 0))
                return "socket delivered data out of order or "
                       "corrupted";
        return "";
    }

    std::string
    protocolFinal() const override
    {
        const std::string step = protocolInvariant();
        if (!step.empty())
            return step;
        if (deliveredFirstWords_.size() != cfg_.packets) {
            std::ostringstream os;
            os << "socket delivered " << deliveredFirstWords_.size()
               << " of " << cfg_.packets << " packets";
            return os.str();
        }
        if (socket_->isOpen())
            return "socket still open after teardown";
        return "";
    }

  private:
    static Word
    value(std::uint32_t pkt, int word)
    {
        return 0xcd000000u + pkt * 64u +
               static_cast<std::uint32_t>(word);
    }

    std::unique_ptr<StreamProtocol> proto_;
    std::unique_ptr<StreamSocket> socket_;
    std::vector<Word> deliveredFirstWords_;
};

// ----------------------------------------------------------------
// Protocols 5-7: the wire layer's StreamMux — framed multi-stream
// transport with per-stream sliding-window flow control, riding a
// reliable channel pair.  Shared base: the mux, the per-stream
// delivery journal, and the wire safety contract (in-order
// exactly-once per stream, intact payloads, window bound, and no
// delivery on a reset stream).
// ----------------------------------------------------------------
class WireScenarioBase : public ScenarioHarness
{
  protected:
    explicit WireScenarioBase(const ScenarioConfig &cfg)
        : ScenarioHarness(cfg)
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

    virtual void
    onDeliver(std::uint16_t sid, std::uint32_t seq,
              const std::vector<Word> &payload)
    {
        seqs_[sid].push_back(seq);
        firstWords_[sid].push_back(payload.empty() ? 0 : payload[0]);
    }

    static Word
    value(std::uint16_t sid, std::uint32_t frame, int word)
    {
        return 0xef000000u + (static_cast<Word>(sid) << 16) +
               frame * 8u + static_cast<Word>(word);
    }

    std::vector<Word>
    payloadFor(std::uint16_t sid, std::uint32_t frame) const
    {
        return {value(sid, frame, 0), value(sid, frame, 1)};
    }

    /** The wire layer's core safety contract, checked per step. */
    std::string
    wireSafety() const
    {
        for (const auto &[sid, seqs] : seqs_) {
            const auto &words = firstWords_.at(sid);
            for (std::size_t i = 0; i < seqs.size(); ++i) {
                if (seqs[i] != i) {
                    std::ostringstream os;
                    os << "stream " << sid
                       << " broke in-order exactly-once delivery "
                          "at frame "
                       << i;
                    return os.str();
                }
                if (words[i] !=
                    value(sid, static_cast<std::uint32_t>(i), 0)) {
                    std::ostringstream os;
                    os << "stream " << sid
                       << " delivered a corrupted payload at frame "
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

  public:
    bool kick() override { return mux_->kick(); }

  protected:
    std::unique_ptr<StreamProtocol> proto_;
    std::unique_ptr<wire::StreamMux> mux_;
    std::vector<std::uint16_t> sids_;
    /// Per-stream delivery journal at the receiver.
    std::map<std::uint16_t, std::vector<std::uint32_t>> seqs_;
    std::map<std::uint16_t, std::vector<Word>> firstWords_;
};

// The window-stall/refill race: several streams round-robin more
// frames than the window admits, so sends defer to the backlog and
// only cumulative acks (which the schedule orders freely) pump them
// out.  With --wire-corrupt-every the CRC-reject resend path joins
// the exploration.
class WireWindowScenario : public WireScenarioBase
{
  public:
    explicit WireWindowScenario(const ScenarioConfig &cfg)
        : WireScenarioBase(cfg)
    {
    }

    void
    start() override
    {
        const std::uint32_t n = cfg_.streams < 1 ? 1 : cfg_.streams;
        for (std::uint32_t s = 0; s < n; ++s)
            sids_.push_back(mux_->openStream());
        for (std::uint32_t i = 0; i < cfg_.packets; ++i)
            for (const std::uint16_t sid : sids_)
                mux_->send(sid, payloadFor(sid, i));
        for (const std::uint16_t sid : sids_)
            mux_->closeStream(sid);
    }

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
        return wireSafety();
    }

    std::string
    protocolFinal() const override
    {
        const std::string step = wireSafety();
        if (!step.empty())
            return step;
        for (const std::uint16_t sid : sids_) {
            if (mux_->deliveredOn(sid) != cfg_.packets) {
                std::ostringstream os;
                os << "stream " << sid << " delivered "
                   << mux_->deliveredOn(sid) << " of "
                   << cfg_.packets << " frames";
                return os.str();
            }
            if (mux_->sendState(sid) != wire::SendState::Detached ||
                mux_->recvState(sid) != wire::RecvState::Detached) {
                std::ostringstream os;
                os << "stream " << sid << " ended "
                   << toString(mux_->sendState(sid)) << "/"
                   << toString(mux_->recvState(sid))
                   << ", expected detached/detached";
                return os.str();
            }
        }
        if (!mux_->quiescent())
            return "wire layer not quiescent at end of schedule";
        return "";
    }
};

// The reset-vs-inflight-data race: the receiver aborts the stream
// from inside the first delivery, with the rest of the window still
// in the network.  The contract says every later DATA frame is
// discarded; the seeded bug (--bug-wire-reset) keeps delivering and
// the checker must catch it.
class WireResetScenario : public WireScenarioBase
{
  public:
    explicit WireResetScenario(const ScenarioConfig &cfg)
        : WireScenarioBase(cfg)
    {
    }

    void
    start() override
    {
        sid_ = mux_->openStream();
        sids_.push_back(sid_);
        for (std::uint32_t i = 0; i < cfg_.packets; ++i)
            mux_->send(sid_, payloadFor(sid_, i));
        // No close: the receiver aborts mid-stream instead.
    }

    bool
    done() const override
    {
        return resetIssued_ &&
               mux_->sendState(sid_) == wire::SendState::Reset &&
               mux_->quiescent();
    }

    std::string
    protocolInvariant() const override
    {
        return wireSafety();
    }

    std::string
    protocolFinal() const override
    {
        const std::string step = wireSafety();
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
        WireScenarioBase::onDeliver(sid, seq, payload);
        if (!resetIssued_) {
            resetIssued_ = true;
            mux_->resetStream(sid);
        }
    }

  private:
    std::uint16_t sid_ = 0;
    bool resetIssued_ = false;
};

// The attach-while-detaching race: stream A is closed with frames
// still unacked (DETACH deferred in state Closing), then stream B
// attaches and pushes data through the same channel while A is
// still tearing down.  Per-stream in-order exactly-once must hold
// for both, and both must end fully detached.
class WireAttachScenario : public WireScenarioBase
{
  public:
    explicit WireAttachScenario(const ScenarioConfig &cfg)
        : WireScenarioBase(cfg)
    {
    }

    void
    start() override
    {
        const std::uint16_t a = mux_->openStream();
        sids_.push_back(a);
        for (std::uint32_t i = 0; i < cfg_.packets; ++i)
            mux_->send(a, payloadFor(a, i));
        mux_->closeStream(a); // Closing: frames still unacked
        const std::uint16_t b = mux_->openStream();
        sids_.push_back(b);
        for (std::uint32_t i = 0; i < cfg_.packets; ++i)
            mux_->send(b, payloadFor(b, i));
        mux_->closeStream(b);
    }

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
        return wireSafety();
    }

    std::string
    protocolFinal() const override
    {
        const std::string step = wireSafety();
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
};

/** A @p S harness: one row of the scenario table. */
template <class S>
std::unique_ptr<ScenarioHarness>
build(const ScenarioConfig &cfg)
{
    return std::make_unique<S>(cfg);
}

/** Every checker protocol: its name and its harness. */
constexpr struct
{
    const char *name;
    std::unique_ptr<ScenarioHarness> (*make)(const ScenarioConfig &);
} scenarios[] = {
    {"single_packet", build<SinglePacketScenario>},
    {"incast", build<IncastScenario>},
    {"finite_xfer", build<FiniteXferScenario>},
    {"stream", build<StreamScenario>},
    {"socket", build<SocketScenario>},
    {"wire_window", build<WireWindowScenario>},
    {"wire_reset", build<WireResetScenario>},
    {"wire_attach", build<WireAttachScenario>},
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
