/**
 * @file
 * Unified metrics registry.
 *
 * A MetricsRegistry gathers the repo's ad-hoc statistics primitives
 * (named counters, RunningStat, Histogram) behind named, labelled
 * metrics with a text and a JSON dump.  Components expose
 * publishMetrics(registry) hooks that snapshot their internal
 * counters into the registry; benches and examples dump it with
 * --metrics-out.
 *
 * Naming convention: dotted lowercase paths ("sim.events_dispatched",
 * "ni.recv_refusals"), with labels for dimensions ("node" = "3").
 * The canonical flattened key is "name{k=v,k2=v2}" with labels in
 * insertion order.
 */

#ifndef MSGSIM_SIM_METRICS_HH
#define MSGSIM_SIM_METRICS_HH

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "sim/stats.hh"

namespace msgsim
{

/**
 * A collection of named metrics, owned by whoever dumps it (a tool
 * dumps the one its obs::Scope holds).
 */
class MetricsRegistry
{
  public:
    using Labels = std::vector<std::pair<std::string, std::string>>;

    /** What one registered metric holds. */
    enum class MetricKind : std::uint8_t
    {
        Counter,   ///< monotonically increasing integer
        Gauge,     ///< last-write-wins scalar
        Stat,      ///< RunningStat over samples
        Histogram, ///< fixed-bin histogram over samples
    };

    // ------------------------------------------------------------
    // Registration / lookup (create-on-first-use).  References stay
    // valid for the registry's lifetime.
    // ------------------------------------------------------------

    /** A counter cell; increment it directly. */
    std::uint64_t &counter(const std::string &name,
                           const Labels &labels = {});

    /** A gauge cell; assign it directly. */
    double &gauge(const std::string &name, const Labels &labels = {});

    /** A running-statistics collector. */
    RunningStat &stat(const std::string &name,
                      const Labels &labels = {});

    /**
     * A histogram with uniform bins over [lo, hi); the shape
     * arguments apply only on first use.
     */
    Histogram &histogram(const std::string &name, double lo, double hi,
                         std::size_t bins, const Labels &labels = {});

    /** True when a metric with this name/labels exists. */
    bool has(const std::string &name, const Labels &labels = {}) const;

    /** Number of registered metrics. */
    std::size_t size() const { return metrics_.size(); }

    /** The canonical flattened key ("name{k=v}"). */
    static std::string flatKey(const std::string &name,
                               const Labels &labels);

    // ------------------------------------------------------------
    // Dumps.
    // ------------------------------------------------------------

    /** One line per metric, sorted by key. */
    std::string dumpText() const;

    /** A JSON object {"metrics": [...]}; keys sorted. */
    std::string dumpJson() const;

    /** Drop every metric. */
    void clear() { metrics_.clear(); }

  private:
    struct Metric
    {
        MetricKind kind = MetricKind::Counter;
        std::string name;
        Labels labels;
        std::uint64_t counter = 0;
        double gauge = 0.0;
        RunningStat stat;
        std::optional<Histogram> hist;
    };

    Metric &fetch(MetricKind kind, const std::string &name,
                  const Labels &labels);

    std::map<std::string, Metric> metrics_;
};

} // namespace msgsim

#endif // MSGSIM_SIM_METRICS_HH
