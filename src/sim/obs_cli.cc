#include "sim/obs_cli.hh"

#include <fstream>

#include "sim/event.hh"
#include "sim/log.hh"

namespace msgsim::obs
{

Scope::Scope(const Options &opts) : opts_(opts)
{
    if (!opts_.traceOut.empty()) {
        session_ = std::make_unique<TraceSession>();
        session_->attach();
    }
}

Scope::~Scope()
{
    finish(0);
}

int
Scope::finish(int status)
{
    bool written = true;
    if (session_) {
        // Phase counters double as metrics so a single --metrics-out
        // run still reports how often each protocol step ran.
        MetricsRegistry &reg = metrics();
        for (const auto &[key, count] : session_->spanCounts())
            reg.counter("trace.span." + key) = count;
        reg.counter("trace.records_observed") = session_->observed();
        reg.counter("trace.records_dropped") = session_->dropped();
        // Ring-eviction visibility: with dropped > 0 the timeline is
        // truncated, and everything before this tick may be missing.
        reg.gauge("trace.oldest_retained_tick") =
            static_cast<double>(session_->oldestRetainedTick());

        written = session_->writeChromeTrace(opts_.traceOut);
        if (written)
            msgsim_inform("trace written to ", opts_.traceOut);
        else
            msgsim_warn("could not write trace to ", opts_.traceOut);
        session_->detach();
        session_.reset();
    }
    if (!opts_.metricsOut.empty()) {
        std::ofstream out(opts_.metricsOut);
        out << metrics().dumpJson();
        out.close();
        if (out) {
            msgsim_inform("metrics written to ", opts_.metricsOut);
        } else {
            msgsim_warn("could not write metrics to ",
                        opts_.metricsOut);
            written = false;
        }
        opts_.metricsOut.clear();
    }
    return written || status != 0 ? status : 1;
}

void
Scope::bindClock(const Simulator &sim)
{
    if (session_)
        session_->bindClock(&sim);
}

void
Scope::collect(const Simulator &sim, const std::string &prefix)
{
    sim.publishMetrics(metrics(), prefix);
}

} // namespace msgsim::obs
