/**
 * @file
 * Discrete-event simulation kernel.
 *
 * A single EventQueue orders events by (tick, insertion sequence);
 * ties break FIFO so the simulation is deterministic.  Every event is
 * a trivially copyable typed record: a handler function, its target
 * and one 32-bit argument (a fabric's packet event carries a pool
 * slot, a protocol timer its transfer or channel id, a Stack poll or
 * progress tick its node).  There are no closure events.  The
 * Simulator owns the queue and the global clock and provides
 * run-to-completion and run-until-predicate drivers.
 */

#ifndef MSGSIM_SIM_EVENT_HH
#define MSGSIM_SIM_EVENT_HH

#include <bit>
#include <cstdint>
#include <functional>
#include <type_traits>
#include <vector>

#include <string>

#include "core/types.hh"
#include "sim/log.hh"

namespace msgsim
{

class MetricsRegistry;

/**
 * Time-ordered queue of scheduled events: a calendar queue (Brown,
 * CACM 31(10), 1988) with one bucket per tick.
 *
 * The window covers the 64 ticks from the last popped one.
 * An event due inside it is appended to its tick's FIFO bucket, and a
 * bitmap marks the non-empty buckets, so a pop is one rotate and one
 * count-trailing-zeros.  An event due beyond the window waits in a
 * small heap ordered by (tick, sequence).  When a pop moves the
 * window, the waiting events it now covers are appended to their
 * buckets in (tick, sequence) order, before the popped event runs:
 * every event a bucket receives later was scheduled later, so each
 * bucket stays in insertion order and the pop order is exactly
 * (tick, insertion sequence), as a heap's would be.
 */
class EventQueue
{
  public:
    /** A typed event's handler: called as fn(target, arg). */
    using Handler = void (*)(void *target, std::uint32_t arg);

    /** One popped event; calling it runs the event once. */
    struct Event
    {
        Handler fn = nullptr;
        void *target = nullptr;
        std::uint32_t arg = 0;

        void operator()() const { fn(target, arg); }
    };

    EventQueue() = default;
    // The buckets are valid only where the bitmap says so.
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /**
     * Schedule fn(target, arg) at absolute time @p when, which must
     * not precede the last popped event's.
     */
    void
    schedule(Tick when, Handler fn, void *target, std::uint32_t arg)
    {
        // Unsigned: a tick before base_ wraps far beyond the window.
        if (when - base_ < window)
            append(when, allocNode(Node{fn, target, arg, none}));
        else
            scheduleFar(when, Node{fn, target, arg, none});
        ++size_;
        ++nextSeq_;
    }

    /** Events scheduled over the queue's lifetime. */
    std::uint64_t scheduled() const { return nextSeq_; }

    /** True when no events remain. */
    bool empty() const { return size_ == 0; }

    /** Number of pending events. */
    std::size_t size() const { return size_; }

    /** Time of the earliest pending event; queue must be non-empty. */
    Tick nextTick() const;

    /**
     * Pop and return the earliest event; queue must be non-empty.
     * The event's scheduled time is written to @p when.
     */
    Event pop(Tick &when);

  private:
    /** Ticks the bucket window covers, one bucket (and bit) each. */
    static constexpr unsigned window = 64;

    using Index = std::uint32_t;
    static constexpr Index none = ~Index{0};

    /** A pending event; `next` links its bucket or the free list. */
    struct Node
    {
        Handler fn;
        void *target;
        std::uint32_t arg;
        Index next;
    };

    /** A tick's FIFO of nodes; valid only while its bit is set. */
    struct Bucket
    {
        Index head;
        Index tail;
    };

    /** An event due beyond the window. */
    struct Far
    {
        Tick when;
        std::uint64_t seq;
        Index node;
    };

    static_assert(sizeof(Node) == 24, "a node is three words");
    static_assert(std::is_trivially_copyable_v<Node> &&
                      std::is_trivially_copyable_v<Far>,
                  "the slab and the far heap move plain records");

    Index
    allocNode(const Node &node)
    {
        if (free_ == none)
            return growSlab(node);
        const Index n = free_;
        free_ = nodes_[n].next;
        nodes_[n] = node;
        return n;
    }

    /** Append node @p n to the bucket of @p when, inside the window. */
    void
    append(Tick when, Index n)
    {
        const unsigned b = static_cast<unsigned>(when % window);
        const std::uint64_t bit = std::uint64_t{1} << b;
        if (occupied_ & bit) {
            nodes_[buckets_[b].tail].next = n;
            buckets_[b].tail = n;
        } else {
            buckets_[b] = Bucket{n, n};
            occupied_ |= bit;
        }
    }

    /** Offset from base_ of the earliest non-empty bucket. */
    unsigned
    firstOccupied() const
    {
        return static_cast<unsigned>(std::countr_zero(
            std::rotr(occupied_, static_cast<int>(base_ % window))));
    }

    /** Store @p node in a new slab slot (no free node left). */
    Index growSlab(const Node &node);

    /** Queue @p node beyond the window; panics before base_. */
    void scheduleFar(Tick when, const Node &node);

    /** Move base_ to @p when and admit the far events it now covers. */
    void
    advance(Tick when)
    {
        base_ = when;
        if (!far_.empty() && far_.front().when - base_ < window)
            admitFar();
    }

    /** Append the far events inside the window to their buckets. */
    void admitFar();

    std::vector<Node> nodes_;  ///< slab; free nodes chain from free_
    Index free_ = none;
    std::uint64_t occupied_ = 0; ///< bit b: bucket b holds an event
    Tick base_ = 0;              ///< the last popped tick
    std::vector<Far> far_;       ///< min-heap on (when, seq)
    std::size_t size_ = 0;
    std::uint64_t nextSeq_ = 0;
    Bucket buckets_[window]; ///< bucket b: the window's tick = b mod 64
};

/**
 * The simulation driver: a clock plus an event queue.
 */
class Simulator
{
  public:
    Simulator() = default;
    // Fabrics and observers hold the simulator's address.
    Simulator(const Simulator &) = delete;
    Simulator &operator=(const Simulator &) = delete;

    /** Current simulation time. */
    Tick now() const { return now_; }

    /**
     * At absolute time @p when (>= now), call (target->*Method)(arg):
     * one typed record, no closure.
     */
    template <auto Method, typename T>
    void
    scheduleAt(Tick when, T *target, std::uint32_t arg)
    {
        checkNotPast(when);
        queue_.schedule(when, &invoke<Method, T>, target, arg);
    }

    /** True when no events are pending. */
    bool idle() const { return queue_.empty(); }

    /** Number of pending events. */
    std::size_t pending() const { return queue_.size(); }

    /**
     * Execute events in order until the queue drains.  Returns the
     * number of events executed.  @p maxEvents bounds runaway
     * simulations (0 means unlimited).
     */
    std::uint64_t run(std::uint64_t maxEvents = 0);

    /**
     * Execute events until @p done() returns true (checked after each
     * event) or the queue drains.  Returns true if @p done fired.
     */
    bool runUntil(const std::function<bool()> &done,
                  std::uint64_t maxEvents = 0);

    /** Advance the clock with no event execution (test helper). */
    void
    advanceTo(Tick when)
    {
        if (when < now_)
            msgsim_panic("advanceTo() in the past");
        now_ = when;
    }

    // ------------------------------------------------------------
    // Observability.  Raw counters are always maintained (a handful
    // of integer ops per event); richer hooks fire only when a
    // TraceSession is attached and bound to this simulator's clock.
    // None of this touches instruction accounting.
    // ------------------------------------------------------------

    /** Events dispatched over the simulator's lifetime. */
    std::uint64_t eventsDispatched() const { return eventsDispatched_; }

    /** Events scheduled over the simulator's lifetime. */
    std::uint64_t eventsScheduled() const { return queue_.scheduled(); }

    /** Clock advances (dispatches whose tick moved time forward). */
    std::uint64_t tickAdvances() const { return tickAdvances_; }

    /** High-water mark of the pending-event queue depth. */
    std::size_t maxQueueDepth() const { return maxQueueDepth_; }

    /**
     * Snapshot the event-loop counters into @p reg under
     * "<prefix>.events_dispatched" etc.
     */
    void publishMetrics(MetricsRegistry &reg,
                        const std::string &prefix = "sim") const;

  private:
    bool step();

    void
    checkNotPast(Tick when) const
    {
        if (when < now_)
            msgsim_panic("scheduleAt() in the past: ", when, " < ", now_);
    }

    template <auto Method, typename T>
    static void
    invoke(void *target, std::uint32_t arg)
    {
        (static_cast<T *>(target)->*Method)(arg);
    }

    Tick now_ = 0;
    EventQueue queue_;
    std::uint64_t eventsDispatched_ = 0;
    std::uint64_t tickAdvances_ = 0;
    std::size_t maxQueueDepth_ = 0;
};

} // namespace msgsim

#endif // MSGSIM_SIM_EVENT_HH
