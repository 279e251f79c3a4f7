#include "tele/report.hh"

#include <algorithm>
#include <cstdio>
#include <map>

namespace msgsim::tele
{

namespace
{

/**
 * Max forward-filled level of @p samples inside [begin, end].  The
 * series is a step function: a window with no samples inside it holds
 * the last sampled value before it.
 */
double
windowMax(const std::vector<Sample> &samples, Tick begin, Tick end)
{
    double level = 0.0;
    bool seeded = false;
    double peak = 0.0;
    bool inWindow = false;
    for (const Sample &s : samples) {
        if (s.tick > end)
            break;
        if (s.tick < begin) {
            level = s.value;
            seeded = true;
            continue;
        }
        if (!inWindow && seeded)
            peak = level;
        inWindow = true;
        peak = std::max(peak, s.value);
        level = s.value;
    }
    if (!inWindow)
        return seeded ? level : 0.0;
    return peak;
}

std::string
percent(double fraction)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.1f%%", fraction * 100.0);
    return buf;
}

} // namespace

BottleneckReport
buildReport(const TeleSession &session, Tick windowTicks,
            double threshold)
{
    BottleneckReport rep;
    rep.threshold = threshold;

    const Tick period = session.config().period;
    const Tick first = session.firstSampleTick();
    const Tick last = session.lastSampleTick();
    if (session.snapshots() == 0)
        return rep;

    if (windowTicks == 0) {
        const Tick span = last >= first ? last - first + 1 : 1;
        windowTicks = (span + 15) / 16;
    }
    windowTicks = ((windowTicks + period - 1) / period) * period;
    if (windowTicks < 1)
        windowTicks = 1;
    rep.windowTicks = windowTicks;

    // Pre-fetch the capacity-bounded gauge tracks once.
    struct Candidate
    {
        std::size_t track;
        std::string label;
        std::vector<Sample> samples;
    };
    std::vector<Candidate> cands;
    for (std::size_t t = 0; t < session.tracks().size(); ++t) {
        const auto &tr = session.tracks()[t];
        if (tr.desc.kind != ProbeKind::Gauge ||
            tr.desc.capacity <= 0)
            continue;
        Candidate c;
        c.track = t;
        c.label = tr.qual;
        if (tr.desc.node != invalidNode)
            c.label += "[" + std::to_string(tr.desc.node) + "]";
        c.samples = session.samples(t);
        if (!c.samples.empty())
            cands.push_back(std::move(c));
    }

    const Tick origin = (first / windowTicks) * windowTicks;
    std::map<std::string, std::size_t> leaderCounts;
    for (Tick begin = origin; begin <= last; begin += windowTicks) {
        const Tick end = begin + windowTicks - 1;
        ++rep.windows;

        bool have = false;
        SaturatedWindow best;
        for (const Candidate &c : cands) {
            const auto &tr = session.tracks()[c.track];
            const double occ = windowMax(c.samples, begin, end);
            const double frac = occ / tr.desc.capacity;
            if (!have || frac > best.fraction) {
                have = true;
                best.begin = begin;
                best.end = end;
                best.track = c.track;
                best.label = c.label;
                best.node = tr.desc.node;
                best.occupancy = occ;
                best.capacity = tr.desc.capacity;
                best.fraction = frac;
                best.resource = tr.desc.resource.empty()
                                    ? tr.qual
                                    : tr.desc.resource;
            }
        }
        if (have && best.fraction >= threshold) {
            ++leaderCounts[best.label];
            rep.saturated.push_back(std::move(best));
        }
    }

    for (const auto &[label, count] : leaderCounts) {
        if (count > rep.topResourceWindows) {
            rep.topResourceWindows = count;
            rep.topResourceLabel = label;
        }
    }
    return rep;
}

std::string
BottleneckReport::renderText() const
{
    std::string out;
    out += "bottleneck report: window=" +
           std::to_string(static_cast<long long>(windowTicks)) +
           " ticks threshold=" + percent(threshold) + " windows=" +
           std::to_string(windows) + "\n";
    if (saturated.empty()) {
        out += "  no resource reached the saturation threshold\n";
        return out;
    }
    for (const SaturatedWindow &w : saturated) {
        out += "  ticks " +
               std::to_string(static_cast<long long>(w.begin)) + "-" +
               std::to_string(static_cast<long long>(w.end)) + ": ";
        if (w.node != invalidNode)
            out += "node " + std::to_string(w.node) + " ";
        out += w.label + " " + percent(w.fraction) + " of " +
               jsonNumber(w.capacity) + " — " + w.resource +
               " saturated\n";
    }
    out += "  top bottleneck: " + topResourceLabel + " (" +
           std::to_string(topResourceWindows) + "/" +
           std::to_string(windows) + " windows)\n";
    return out;
}

Json
BottleneckReport::toJson() const
{
    Json doc = Json::object();
    doc.set("window_ticks", static_cast<std::int64_t>(windowTicks));
    doc.set("threshold", threshold);
    doc.set("windows", static_cast<std::int64_t>(windows));
    Json arr = Json::array();
    for (const SaturatedWindow &w : saturated) {
        Json jw = Json::object();
        jw.set("begin", static_cast<std::int64_t>(w.begin));
        jw.set("end", static_cast<std::int64_t>(w.end));
        jw.set("track", w.label);
        if (w.node != invalidNode)
            jw.set("node", static_cast<std::int64_t>(w.node));
        jw.set("occupancy", w.occupancy);
        jw.set("capacity", w.capacity);
        jw.set("fraction", w.fraction);
        jw.set("resource", w.resource);
        arr.push(std::move(jw));
    }
    doc.set("saturated", std::move(arr));
    doc.set("top_resource", topResourceLabel);
    doc.set("top_resource_windows",
            static_cast<std::int64_t>(topResourceWindows));
    return doc;
}

} // namespace msgsim::tele
