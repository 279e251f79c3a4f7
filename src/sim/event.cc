#include "sim/event.hh"

#include <algorithm>

#include "hostprof/hostprof.hh"
#include "sim/metrics.hh"
#include "sim/tick_hook.hh"
#include "sim/trace_session.hh"

namespace msgsim
{

namespace
{

/** Heap order for far events: the earliest (when, seq) at the front. */
struct Later
{
    template <typename Far>
    bool
    operator()(const Far &a, const Far &b) const
    {
        if (a.when != b.when)
            return a.when > b.when;
        return a.seq > b.seq;
    }
};

} // namespace

void
EventQueue::scheduleFar(Tick when, const Node &node)
{
    if (when < base_)
        msgsim_panic("schedule() before the last popped tick: ", when,
                     " < ", base_);
    far_.push_back(Far{when, nextSeq_, allocNode(node)});
    std::push_heap(far_.begin(), far_.end(), Later{});
}

EventQueue::Index
EventQueue::growSlab(const Node &node)
{
    nodes_.push_back(node);
    return static_cast<Index>(nodes_.size() - 1);
}

void
EventQueue::admitFar()
{
    do {
        append(far_.front().when, far_.front().node);
        std::pop_heap(far_.begin(), far_.end(), Later{});
        far_.pop_back();
    } while (!far_.empty() && far_.front().when - base_ < window);
}

Tick
EventQueue::nextTick() const
{
    if (size_ == 0)
        msgsim_panic("nextTick() on empty event queue");
    if (occupied_ == 0)
        return far_.front().when;
    return base_ + firstOccupied();
}

EventQueue::Event
EventQueue::pop(Tick &when)
{
    if (size_ == 0)
        msgsim_panic("pop() on empty event queue");
    // Every far event lies beyond the window, so a non-empty bucket
    // holds the earliest; with none, restart the window at the
    // earliest far event.
    if (occupied_ == 0)
        advance(far_.front().when);
    else if (const unsigned ahead = firstOccupied(); ahead != 0)
        advance(base_ + ahead);
    const unsigned b = static_cast<unsigned>(base_ % window);
    Bucket &bucket = buckets_[b];
    const Index n = bucket.head;
    Node &node = nodes_[n];
    if (n == bucket.tail)
        occupied_ &= ~(std::uint64_t{1} << b);
    else
        bucket.head = node.next;
    node.next = free_;
    free_ = n;
    --size_;
    when = base_;
    return Event{node.fn, node.target, node.arg};
}

bool
Simulator::step()
{
    if (queue_.empty())
        return false;
    // Host self-profiling phases: the queue pop and the handler run
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
