/**
 * @file
 * Command-line wiring for the observability layer.
 *
 * The per-run CLIs and the examples declare, through
 * cli::FlagTable::observability() (sim/flag_table.hh),
 *
 *     --trace-out=<file>     write a Chrome trace-event JSON timeline
 *     --metrics-out=<file>   write the metrics registry as JSON
 *
 * into an Options, and Scope turns them into an attached
 * TraceSession plus an end-of-run dump of the registry it owns:
 *
 *     int main(int argc, char **argv) {
 *         msgsim::obs::Options obs;
 *         msgsim::cli::FlagTable flags("tool", "what it does");
 *         flags.observability(obs).parse(argc, argv);
 *         msgsim::obs::Scope scope(obs);
 *         ...
 *         scope.bindClock(stack.sim());       // timestamps
 *         ...
 *         scope.collect(stack.sim(), "sim");  // event-loop metrics
 *         return scope.finish(status);        // <- files written here
 *     }
 */

#ifndef MSGSIM_SIM_OBS_CLI_HH
#define MSGSIM_SIM_OBS_CLI_HH

#include <memory>
#include <string>

#include "sim/metrics.hh"
#include "sim/trace_session.hh"

namespace msgsim
{

class Simulator;

namespace obs
{

/** Parsed observability options. */
struct Options
{
    std::string traceOut;   ///< --trace-out=<file> (empty = off)
    std::string metricsOut; ///< --metrics-out=<file> (empty = off)
};

/**
 * RAII wiring: owns the TraceSession (attached for the scope's
 * lifetime when tracing was requested) and the metrics registry, and
 * writes the requested output files at finish(), or on destruction
 * when it was not called.
 */
class Scope
{
  public:
    explicit Scope(const Options &opts);
    ~Scope();

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    /** True when a trace session is attached. */
    bool tracing() const { return session_ != nullptr; }

    /** The owned session (nullptr when tracing is off). */
    TraceSession *session() { return session_.get(); }

    /** The registry the metrics dump will serialize. */
    MetricsRegistry &metrics() { return metrics_; }

    /** Bind the trace clock to @p sim (rebind when switching stacks). */
    void bindClock(const Simulator &sim);

    /** Snapshot @p sim's event-loop counters into the registry. */
    void collect(const Simulator &sim,
                 const std::string &prefix = "sim");

    /**
     * Write the requested files and detach the session.  Returns the
     * run's exit @p status, or 1 when a file could not be written and
     * @p status was 0.
     */
    int finish(int status);

  private:
    Options opts_;
    std::unique_ptr<TraceSession> session_;
    MetricsRegistry metrics_;
};

} // namespace obs
} // namespace msgsim

#endif // MSGSIM_SIM_OBS_CLI_HH
