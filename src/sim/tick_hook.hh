/**
 * @file
 * Clock-advance observation hook for the simulation kernel.
 *
 * A TickHooks implementation (the telemetry sampler in src/tele) is
 * notified whenever the Simulator's clock is about to move forward —
 * the one moment when all state at the old tick is final and the
 * state observed is exactly "end of tick `prev`".  The hook fires
 * *between* events, never schedules anything, and never touches
 * Accounting, so an attached observer cannot perturb event counts,
 * dispatch order, or instruction totals.
 *
 * The observer lives in the tick slot of obs::context and attaches
 * by its one rule (sim/obs_context.hh): lab sweep workers each
 * sample their own simulator, and with nothing attached the hook
 * site in Simulator::step() is one thread-local load.
 */

#ifndef MSGSIM_SIM_TICK_HOOK_HH
#define MSGSIM_SIM_TICK_HOOK_HH

#include "core/types.hh"
#include "sim/obs_context.hh"

namespace msgsim
{

class Simulator;

/**
 * Abstract clock-advance observer.
 */
class TickHooks
{
  public:
    virtual ~TickHooks() { detach(); }

    /**
     * The clock of @p sim is moving from @p prev to @p next
     * (prev < next).  All events at ticks <= prev have executed;
     * the event that caused the advance has not run yet.
     */
    virtual void onTickAdvance(const Simulator &sim, Tick prev,
                               Tick next) = 0;

    /** The attached hooks on this thread, or nullptr (fast path). */
    static TickHooks *current() { return obs::context.tick; }

    /** Make this instance the thread's clock-advance observer. */
    void attach() { obs::attach(obs::context.tick, this, "TickHooks"); }

    /** Stop observing (no-op when not attached). */
    void detach() { obs::detach(obs::context.tick, this); }
};

} // namespace msgsim

#endif // MSGSIM_SIM_TICK_HOOK_HH
