#include "tele/heatmap.hh"

#include <algorithm>

namespace msgsim::tele
{

namespace
{

/**
 * Resample one track onto @p bins bins of @p binTicks starting at
 * @p origin: gauges take the max of the forward-filled step
 * function inside each bin, counters the increase across the bin.
 */
std::vector<double>
binTrack(const std::vector<Sample> &samples, ProbeKind kind,
         Tick origin, Tick binTicks, std::size_t bins)
{
    std::vector<double> out(bins, 0.0);
    if (samples.empty())
        return out;

    if (kind == ProbeKind::Gauge) {
        double level = samples.front().value;
        std::size_t next = 0;
        for (std::size_t b = 0; b < bins; ++b) {
            const Tick end = origin + static_cast<Tick>(b + 1) *
                                          binTicks;
            double peak = level;
            while (next < samples.size() &&
                   samples[next].tick < end) {
                level = samples[next].value;
                peak = std::max(peak, level);
                ++next;
            }
            out[b] = peak;
        }
        return out;
    }

    // Counter: value at end of bin minus value at end of previous
    // bin, forward-filled.
    double prevEnd = samples.front().value;
    std::size_t next = 0;
    double level = prevEnd;
    for (std::size_t b = 0; b < bins; ++b) {
        const Tick end = origin + static_cast<Tick>(b + 1) * binTicks;
        while (next < samples.size() && samples[next].tick < end) {
            level = samples[next].value;
            ++next;
        }
        out[b] = level - prevEnd;
        prevEnd = level;
    }
    return out;
}

} // namespace

Heatmap
buildHeatmap(const TeleSession &session, std::size_t maxBins)
{
    Heatmap hm;
    if (maxBins == 0)
        maxBins = 1;
    const Tick span = session.lastSampleTick() >=
                              session.firstSampleTick()
                          ? session.lastSampleTick() -
                                session.firstSampleTick() + 1
                          : 1;
    const Tick period = session.config().period;
    Tick bin = (span + static_cast<Tick>(maxBins) - 1) /
               static_cast<Tick>(maxBins);
    bin = ((bin + period - 1) / period) * period;
    if (bin < 1)
        bin = 1;
    hm.binTicks = bin;
    hm.origin = (session.firstSampleTick() / bin) * bin;
    hm.bins = static_cast<std::size_t>(
        (session.lastSampleTick() - hm.origin) / bin + 1);

    for (std::size_t t = 0; t < session.tracks().size(); ++t) {
        const auto &tr = session.tracks()[t];
        const std::vector<Sample> samples = session.samples(t);
        if (samples.empty())
            continue;
        HeatmapRow row;
        row.track = t;
        row.label = tr.qual;
        if (tr.desc.node != invalidNode)
            row.label += "[" + std::to_string(tr.desc.node) + "]";
        row.kind = tr.desc.kind;
        row.capacity = tr.desc.capacity;
        row.values = binTrack(samples, tr.desc.kind, hm.origin,
                              hm.binTicks, hm.bins);
        for (const double v : row.values)
            row.peak = std::max(row.peak, v);
        hm.rows.push_back(std::move(row));
    }
    return hm;
}

std::string
Heatmap::renderAscii() const
{
    static const char levels[] = " .:-=+*#%@";
    std::size_t width = 0;
    for (const HeatmapRow &row : rows)
        width = std::max(width, row.label.size());

    std::string out;
    out += "heatmap: " + std::to_string(bins) + " bins x " +
           std::to_string(static_cast<long long>(binTicks)) +
           " ticks from tick " +
           std::to_string(static_cast<long long>(origin)) + "\n";
    for (const HeatmapRow &row : rows) {
        out += row.label;
        out.append(width - row.label.size(), ' ');
        out += " |";
        const double denom = row.capacity > 0 ? row.capacity
                                              : row.peak;
        for (const double v : row.values) {
            std::size_t lvl = 0;
            if (denom > 0 && v > 0) {
                lvl = 1 + static_cast<std::size_t>(v / denom * 8.0);
                lvl = std::min<std::size_t>(lvl, 9);
            }
            out += levels[lvl];
        }
        out += "| peak=" + jsonNumber(row.peak);
        if (row.capacity > 0)
            out += "/" + jsonNumber(row.capacity);
        out += "\n";
    }
    return out;
}

Json
Heatmap::toJson() const
{
    Json doc = Json::object();
    doc.set("bin_ticks", static_cast<std::int64_t>(binTicks));
    doc.set("origin", static_cast<std::int64_t>(origin));
    doc.set("bins", static_cast<std::int64_t>(bins));
    Json arr = Json::array();
    for (const HeatmapRow &row : rows) {
        Json jr = Json::object();
        jr.set("track", row.label);
        jr.set("kind", toString(row.kind));
        if (row.capacity > 0)
            jr.set("capacity", row.capacity);
        jr.set("peak", row.peak);
        Json values = Json::array();
        for (const double v : row.values) {
            const std::int64_t iv = static_cast<std::int64_t>(v);
            if (static_cast<double>(iv) == v)
                values.push(iv);
            else
                values.push(v);
        }
        jr.set("values", std::move(values));
        arr.push(std::move(jr));
    }
    doc.set("rows", std::move(arr));
    return doc;
}

} // namespace msgsim::tele
