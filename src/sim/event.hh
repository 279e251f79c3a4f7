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
 * Time-ordered queue of scheduled events: a 4-ary min-heap of
 * (tick, sequence) keyed records.
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

    /** Schedule fn(target, arg) at absolute time @p when. */
    void
    schedule(Tick when, Handler fn, void *target, std::uint32_t arg)
    {
        push(Entry{when, nextSeq_++, Event{fn, target, arg}});
    }

    /** Events scheduled over the queue's lifetime. */
    std::uint64_t scheduled() const { return nextSeq_; }

    /** True when no events remain. */
    bool empty() const { return heap_.empty(); }

    /** Number of pending events. */
    std::size_t size() const { return heap_.size(); }

    /** Time of the earliest pending event; queue must be non-empty. */
    Tick
    nextTick() const
    {
        if (heap_.empty())
            msgsim_panic("nextTick() on empty event queue");
        return heap_.front().when;
    }

    /**
     * Pop and return the earliest event; queue must be non-empty.
     * The event's scheduled time is written to @p when.
     */
    Event pop(Tick &when);

  private:
    struct Entry
    {
        Tick when;
        std::uint64_t seq;
        Event event;

        bool
        before(const Entry &other) const
        {
            if (when != other.when)
                return when < other.when;
            return seq < other.seq;
        }
    };

    static_assert(std::is_trivially_copyable_v<Entry>,
                  "the heap moves events as plain records");

    void push(const Entry &entry);

    std::vector<Entry> heap_; ///< 4-ary heap: children of i are 4i+1..4i+4
    std::uint64_t nextSeq_ = 0;
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
