/**
 * @file
 * The one attachment point for every observer.
 *
 * Five observer kinds watch a run without perturbing it, through four
 * slots of obs::context, a per-thread struct:
 *
 *  - trace:   span tracing (TraceSession);
 *  - lineage: the packet hook (LineageHooks, net/lineage_hook.hh),
 *             held by a prof::LineageSession or a PacketTracer, never
 *             both;
 *  - host:    host self-profiling (hostprof::HostProfiler);
 *  - tick:    clock-advance sampling (TickHooks, i.e. the telemetry
 *             sampler).
 *
 * Every observer attaches by the same rule:
 *
 *  - attach() fills the calling thread's slot.  Attaching a second,
 *    different observer to the same slot on that thread is fatal;
 *    re-attaching the same one is a no-op;
 *  - detach() clears the slot only while it holds this observer, and
 *    every observer's destructor detaches.
 *
 * Because the slots are per thread, concurrent lab sweep workers each
 * observe their own simulator and never another's.  The struct is
 * constant-initialized, so a hook site with nothing attached costs
 * one thread-local load and a null test (no lazy-init guard), and
 * the interposed operator new in hostprof.cc may read the host slot
 * at any point of the process lifetime.
 */

#ifndef MSGSIM_SIM_OBS_CONTEXT_HH
#define MSGSIM_SIM_OBS_CONTEXT_HH

#include "sim/log.hh"

namespace msgsim
{

class LineageHooks;
class TickHooks;
class TraceSession;

namespace hostprof
{
class HostProfiler;
}

namespace obs
{

/** The observers attached on one thread (nullptr = none). */
struct Context
{
    TraceSession *trace = nullptr;
    LineageHooks *lineage = nullptr;
    hostprof::HostProfiler *host = nullptr;
    TickHooks *tick = nullptr;
};

/** The calling thread's observers. */
inline constinit thread_local Context context;

/**
 * Put @p observer into @p slot, one of the calling thread's
 * obs::context slots.  @p kind names the observer kind in the
 * error raised when a different observer already holds the slot.
 */
template <typename T>
void
attach(T *&slot, T *observer, const char *kind)
{
    if (slot != nullptr && slot != observer)
        msgsim_fatal("another ", kind,
                     " is already attached on this thread");
    slot = observer;
}

/** Empty @p slot if @p observer holds it. */
template <typename T>
void
detach(T *&slot, T *observer)
{
    if (slot == observer)
        slot = nullptr;
}

} // namespace obs
} // namespace msgsim

#endif // MSGSIM_SIM_OBS_CONTEXT_HH
