#include "sim/metrics.hh"

#include <sstream>

#include "core/json.hh"
#include "sim/log.hh"

namespace msgsim
{

namespace
{

const char *
kindName(MetricsRegistry::MetricKind k)
{
    switch (k) {
      case MetricsRegistry::MetricKind::Counter:   return "counter";
      case MetricsRegistry::MetricKind::Gauge:     return "gauge";
      case MetricsRegistry::MetricKind::Stat:      return "stat";
      case MetricsRegistry::MetricKind::Histogram: return "histogram";
      default:                                     return "?";
    }
}

} // namespace

std::string
MetricsRegistry::flatKey(const std::string &name, const Labels &labels)
{
    if (labels.empty())
        return name;
    std::string key = name + "{";
    bool first = true;
    for (const auto &[k, v] : labels) {
        if (!first)
            key += ",";
        first = false;
        key += k + "=" + v;
    }
    key += "}";
    return key;
}

MetricsRegistry::Metric &
MetricsRegistry::fetch(MetricKind kind, const std::string &name,
                       const Labels &labels)
{
    const std::string key = flatKey(name, labels);
    auto it = metrics_.find(key);
    if (it == metrics_.end()) {
        Metric m;
        m.kind = kind;
        m.name = name;
        m.labels = labels;
        it = metrics_.emplace(key, std::move(m)).first;
    } else if (it->second.kind != kind) {
        msgsim_fatal("metric '", key, "' registered as ",
                     kindName(it->second.kind), ", requested as ",
                     kindName(kind));
    }
    return it->second;
}

std::uint64_t &
MetricsRegistry::counter(const std::string &name, const Labels &labels)
{
    return fetch(MetricKind::Counter, name, labels).counter;
}

double &
MetricsRegistry::gauge(const std::string &name, const Labels &labels)
{
    return fetch(MetricKind::Gauge, name, labels).gauge;
}

RunningStat &
MetricsRegistry::stat(const std::string &name, const Labels &labels)
{
    return fetch(MetricKind::Stat, name, labels).stat;
}

Histogram &
MetricsRegistry::histogram(const std::string &name, double lo,
                           double hi, std::size_t bins,
                           const Labels &labels)
{
    Metric &m = fetch(MetricKind::Histogram, name, labels);
    if (!m.hist)
        m.hist.emplace(lo, hi, bins);
    return *m.hist;
}

bool
MetricsRegistry::has(const std::string &name, const Labels &labels) const
{
    return metrics_.count(flatKey(name, labels)) != 0;
}

std::string
MetricsRegistry::dumpText() const
{
    std::ostringstream os;
    for (const auto &[key, m] : metrics_) {
        os << key << "  ";
        switch (m.kind) {
          case MetricKind::Counter:
            os << "counter  " << m.counter;
            break;
          case MetricKind::Gauge:
            os << "gauge  " << jsonNumber(m.gauge);
            break;
          case MetricKind::Stat:
            os << "stat  count=" << m.stat.count()
               << " mean=" << jsonNumber(m.stat.mean())
               << " min=" << jsonNumber(m.stat.min())
               << " max=" << jsonNumber(m.stat.max())
               << " stddev=" << jsonNumber(m.stat.stddev());
            break;
          case MetricKind::Histogram:
            if (m.hist) {
                os << "histogram  count=" << m.hist->stat().count()
                   << " mean=" << jsonNumber(m.hist->stat().mean())
                   << " p50=" << jsonNumber(m.hist->percentile(50.0))
                   << " p99=" << jsonNumber(m.hist->percentile(99.0))
                   << "  " << m.hist->renderAscii();
            }
            break;
        }
        os << "\n";
    }
    return os.str();
}

std::string
MetricsRegistry::dumpJson() const
{
    std::ostringstream os;
    os << "{\"metrics\":[";
    bool first = true;
    for (const auto &[key, m] : metrics_) {
        if (!first)
            os << ",";
        first = false;
        os << "\n{\"name\":\"" << jsonEscape(m.name) << "\",\"labels\":{";
        bool lf = true;
        for (const auto &[k, v] : m.labels) {
            if (!lf)
                os << ",";
            lf = false;
            os << "\"" << jsonEscape(k) << "\":\"" << jsonEscape(v) << "\"";
        }
        os << "},\"type\":\"" << kindName(m.kind) << "\"";
        switch (m.kind) {
          case MetricKind::Counter:
            os << ",\"value\":" << m.counter;
            break;
          case MetricKind::Gauge:
            os << ",\"value\":" << jsonNumber(m.gauge);
            break;
          case MetricKind::Stat:
            os << ",\"count\":" << m.stat.count()
               << ",\"mean\":" << jsonNumber(m.stat.mean())
               << ",\"min\":" << jsonNumber(m.stat.min())
               << ",\"max\":" << jsonNumber(m.stat.max())
               << ",\"stddev\":" << jsonNumber(m.stat.stddev());
            break;
          case MetricKind::Histogram:
            if (m.hist) {
                os << ",\"count\":" << m.hist->stat().count()
                   << ",\"mean\":" << jsonNumber(m.hist->stat().mean())
                   << ",\"p50\":" << jsonNumber(m.hist->percentile(50.0))
                   << ",\"p99\":" << jsonNumber(m.hist->percentile(99.0))
                   << ",\"bins\":[";
                bool bf = true;
                for (std::uint64_t b : m.hist->bins()) {
                    if (!bf)
                        os << ",";
                    bf = false;
                    os << b;
                }
                os << "]";
            }
            break;
        }
        os << "}";
    }
    os << "\n]}\n";
    return os.str();
}

} // namespace msgsim
