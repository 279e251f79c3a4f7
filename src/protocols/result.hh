/**
 * @file
 * Common result type of protocol runs — the per-role instruction
 * breakdown plus functional-integrity and dynamic-behaviour stats —
 * and the RunFrame every protocol run measures one with.
 */

#ifndef MSGSIM_PROTOCOLS_RESULT_HH
#define MSGSIM_PROTOCOLS_RESULT_HH

#include <cstdint>

#include "core/counter.hh"
#include "core/types.hh"
#include "protocols/stack.hh"

namespace msgsim
{

/**
 * Outcome of one protocol run.
 */
struct RunResult
{
    BreakdownCounter counts; ///< source/destination instruction counts
    bool dataOk = false;     ///< end-to-end payload integrity verified
    Tick elapsed = 0;        ///< simulated time of the whole exchange

    std::uint64_t packets = 0;         ///< data packets sent (first try)
    /// Host instructions spent on handler dispatch (poll linkage,
    /// status decode, handler linkage) — diagnostic mirror of the
    /// layer's dispatchOps() counters; zero on substrates that
    /// dispatch in the NIC.
    std::uint64_t dispatchOps = 0;
    std::uint64_t oooArrivals = 0;     ///< packets buffered out of order
    std::uint64_t acksSent = 0;        ///< acknowledgement packets
    std::uint64_t retransmissions = 0; ///< software retransmissions
    std::uint64_t duplicates = 0;      ///< duplicate data packets seen
};

/**
 * The measurement around one exchange.  Construction snapshots both
 * endpoints' instruction counters and the start tick; finish() writes
 * the differences into a RunResult.
 */
class RunFrame
{
  public:
    RunFrame(Stack &stack, NodeId src, NodeId dst)
        : stack_(stack), src_(stack.node(src)), dst_(stack.node(dst)),
          srcBefore_(src_.acct().counter()),
          dstBefore_(dst_.acct().counter()), t0_(stack.sim().now())
    {
    }

    Tick t0() const { return t0_; }

    /**
     * Fill @p res's counts and elapsed = @p end - t0.  The engines
     * end at their completion instant, before any straggler settle.
     */
    void
    finish(RunResult &res, Tick end) const
    {
        res.counts.src = src_.acct().counter().diff(srcBefore_);
        res.counts.dst = dst_.acct().counter().diff(dstBefore_);
        res.elapsed = end - t0_;
    }

    /** finish() at the current tick: after the final settle. */
    void finish(RunResult &res) const { finish(res, stack_.sim().now()); }

  private:
    Stack &stack_;
    Node &src_;
    Node &dst_;
    InstrCounter srcBefore_;
    InstrCounter dstBefore_;
    Tick t0_;
};

} // namespace msgsim

#endif // MSGSIM_PROTOCOLS_RESULT_HH
