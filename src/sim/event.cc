#include "sim/event.hh"

#include "hostprof/hostprof.hh"
#include "sim/metrics.hh"
#include "sim/tick_hook.hh"
#include "sim/trace_session.hh"

namespace msgsim
{

void
EventQueue::push(const Entry &entry)
{
    std::size_t i = heap_.size();
    heap_.push_back(entry);
    while (i > 0) {
        const std::size_t parent = (i - 1) / 4;
        if (!entry.before(heap_[parent]))
            break;
        heap_[i] = heap_[parent];
        i = parent;
    }
    heap_[i] = entry;
}

EventQueue::Event
EventQueue::pop(Tick &when)
{
    if (heap_.empty())
        msgsim_panic("pop() on empty event queue");
    const Entry top = heap_.front();
    const Entry last = heap_.back();
    heap_.pop_back();
    const std::size_t n = heap_.size();
    if (n > 0) {
        // Sift the old last entry down from the root.
        std::size_t i = 0;
        for (;;) {
            const std::size_t first = 4 * i + 1;
            if (first >= n)
                break;
            std::size_t best = first;
            const std::size_t end = first + 4 < n ? first + 4 : n;
            for (std::size_t c = first + 1; c < end; ++c)
                if (heap_[c].before(heap_[best]))
                    best = c;
            if (!heap_[best].before(last))
                break;
            heap_[i] = heap_[best];
            i = best;
        }
        heap_[i] = last;
    }
    when = top.when;
    return top.event;
}

bool
Simulator::step()
{
    if (queue_.empty())
        return false;
    // Host self-profiling phases: the heap pop and the handler run
    // get their own scopes, so sim.step's *self* cost is exactly the
    // dispatch bookkeeping between them.  One thread-local pointer
    // test each when no profiler is attached.
    hostprof::HostScope stepScope(hostprof::Site::SimStep);
    Tick when = 0;
    EventQueue::Event event;
    {
        hostprof::HostScope popScope(hostprof::Site::SimHeapPop);
        event = queue_.pop(when);
    }
    if (when != now_) {
        ++tickAdvances_;
        // Clock-advance observation point: state at tick now_ is
        // final, the event scheduled for `when` has not run yet.
        // One thread-local pointer test when nothing is attached;
        // the hook never schedules events or touches Accounting.
        if (TickHooks *th = TickHooks::current())
            th->onTickAdvance(*this, now_, when);
    }
    now_ = when;
    ++eventsDispatched_;
    const std::size_t depth = queue_.size();
    if (depth > maxQueueDepth_)
        maxQueueDepth_ = depth;
    if (TraceSession *ts = TraceSession::current()) {
        if (ts->clockIs(this))
            ts->counterSample("sim.queue_depth",
                              static_cast<double>(depth));
    }
    {
        hostprof::HostScope runScope(hostprof::Site::SimHandler);
        event();
    }
    return true;
}

void
Simulator::publishMetrics(MetricsRegistry &reg,
                          const std::string &prefix) const
{
    reg.counter(prefix + ".events_dispatched") = eventsDispatched_;
    reg.counter(prefix + ".events_scheduled") = eventsScheduled();
    reg.counter(prefix + ".tick_advances") = tickAdvances_;
    reg.gauge(prefix + ".max_queue_depth") =
        static_cast<double>(maxQueueDepth_);
    reg.gauge(prefix + ".now") = static_cast<double>(now_);
}

std::uint64_t
Simulator::run(std::uint64_t maxEvents)
{
    std::uint64_t executed = 0;
    while (step()) {
        ++executed;
        if (maxEvents && executed >= maxEvents)
            break;
    }
    return executed;
}

bool
Simulator::runUntil(const std::function<bool()> &done,
                    std::uint64_t maxEvents)
{
    std::uint64_t executed = 0;
    if (done())
        return true;
    while (step()) {
        ++executed;
        if (done())
            return true;
        if (maxEvents && executed >= maxEvents)
            break;
    }
    return done();
}

} // namespace msgsim
