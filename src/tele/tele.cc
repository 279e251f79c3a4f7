#include "tele/tele.hh"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "sim/event.hh"
#include "sim/log.hh"
#include "sim/trace_session.hh"

namespace msgsim::tele
{

const char *
toString(ProbeKind k)
{
    switch (k) {
      case ProbeKind::Gauge:   return "gauge";
      case ProbeKind::Counter: return "counter";
      default:                 return "?";
    }
}

std::string
formatValue(double v)
{
    const std::int64_t i = static_cast<std::int64_t>(v);
    char buf[64];
    if (static_cast<double>(i) == v) {
        std::snprintf(buf, sizeof(buf), "%" PRId64, i);
    } else {
        std::snprintf(buf, sizeof(buf), "%.17g", v);
    }
    return buf;
}

TeleSession::TeleSession() : TeleSession(Config{}) {}

TeleSession::TeleSession(const Config &cfg) : cfg_(cfg)
{
    if (cfg_.period < 1)
        msgsim_fatal("tele sample period must be >= 1 tick");
    if (cfg_.ringCapacity < 1)
        msgsim_fatal("tele ring capacity must be >= 1");
}

std::size_t
TeleSession::addProbe(const TrackDesc &desc, ReadFn read)
{
    if (!read)
        msgsim_fatal("tele probe ", desc.layer, ".", desc.name,
                     " has no reader");
    Track tr;
    tr.desc = desc;
    tr.qual = desc.layer + "." + desc.name;
    tr.read = std::move(read);
    tracks_.push_back(std::move(tr));
    return tracks_.size() - 1;
}

void
TeleSession::retireProbesFrom(std::size_t firstIndex)
{
    for (std::size_t t = firstIndex; t < tracks_.size(); ++t)
        tracks_[t].read = nullptr;
}

void
TeleSession::record(Track &tr, Tick when, double value)
{
    ++tr.observed;
    ++samplesObserved_;
    if (tr.ring.size() == cfg_.ringCapacity) {
        // Ring full: evict the oldest retained sample.
        tr.ring.pop_front();
        ++tr.dropped;
        ++samplesDropped_;
    }
    tr.ring.push_back(Sample{when, value});
}

void
TeleSession::sampleAt(Tick when)
{
    if (haveSampled_ && when <= last_)
        return;
    for (Track &tr : tracks_) {
        if (!tr.read)
            continue;
        record(tr, when, tr.read());
    }
    if (!haveSampled_)
        first_ = when;
    haveSampled_ = true;
    last_ = when;
    ++snapshots_;
}

void
TeleSession::onTickAdvance(const Simulator &sim, Tick prev, Tick next)
{
    if (clock_ != &sim)
        return;
    // First sample-period boundary in (prev, next]: the state being
    // snapshotted is constant over that whole interval, so one sample
    // at the first boundary represents every boundary the advance
    // crossed (the series is a step function).
    const Tick boundary = (prev / cfg_.period + 1) * cfg_.period;
    if (boundary <= next)
        sampleAt(boundary);
}

std::vector<Sample>
TeleSession::samples(std::size_t t) const
{
    const Track &tr = tracks_.at(t);
    std::vector<Sample> out;
    out.reserve(tr.ring.size());
    for (std::size_t i = 0; i < tr.ring.size(); ++i)
        out.push_back(tr.ring[i]);
    return out;
}

double
TeleSession::peakValue(std::size_t t) const
{
    const Track &tr = tracks_.at(t);
    double peak = 0.0;
    for (std::size_t i = 0; i < tr.ring.size(); ++i)
        peak = std::max(peak, tr.ring[i].value);
    return peak;
}

std::string
TeleSession::tracksText() const
{
    std::string out;
    out += "tele period=" + formatValue(
               static_cast<double>(cfg_.period)) +
           " snapshots=" + std::to_string(snapshots_) + "\n";
    for (std::size_t t = 0; t < tracks_.size(); ++t) {
        const Track &tr = tracks_[t];
        out += "# " + tr.qual;
        if (tr.desc.node != invalidNode)
            out += " node=" + std::to_string(tr.desc.node);
        out += std::string(" kind=") + toString(tr.desc.kind);
        if (tr.desc.capacity > 0)
            out += " cap=" + formatValue(tr.desc.capacity);
        out += " observed=" + std::to_string(tr.observed) +
               " dropped=" + std::to_string(tr.dropped) + "\n";
        for (const Sample &s : samples(t))
            out += formatValue(static_cast<double>(s.tick)) + ":" +
                   formatValue(s.value) + " ";
        out += "\n";
    }
    return out;
}

Json
TeleSession::tracksJson() const
{
    Json doc = Json::object();
    doc.set("period", static_cast<std::int64_t>(cfg_.period));
    doc.set("snapshots", static_cast<std::int64_t>(snapshots_));
    doc.set("first_tick", static_cast<std::int64_t>(first_));
    doc.set("last_tick", static_cast<std::int64_t>(last_));
    Json arr = Json::array();
    for (std::size_t t = 0; t < tracks_.size(); ++t) {
        const Track &tr = tracks_[t];
        Json jt = Json::object();
        jt.set("track", tr.qual);
        if (tr.desc.node != invalidNode)
            jt.set("node", static_cast<std::int64_t>(tr.desc.node));
        jt.set("kind", toString(tr.desc.kind));
        if (tr.desc.capacity > 0)
            jt.set("capacity", tr.desc.capacity);
        if (!tr.desc.resource.empty())
            jt.set("resource", tr.desc.resource);
        jt.set("observed", static_cast<std::int64_t>(tr.observed));
        jt.set("dropped", static_cast<std::int64_t>(tr.dropped));
        Json ticks = Json::array();
        Json values = Json::array();
        for (const Sample &s : samples(t)) {
            ticks.push(static_cast<std::int64_t>(s.tick));
            const std::int64_t iv =
                static_cast<std::int64_t>(s.value);
            if (static_cast<double>(iv) == s.value)
                values.push(iv);
            else
                values.push(s.value);
        }
        jt.set("ticks", std::move(ticks));
        jt.set("values", std::move(values));
        arr.push(std::move(jt));
    }
    doc.set("tracks", std::move(arr));
    return doc;
}

void
TeleSession::exportCounters(TraceSession &ts) const
{
    for (std::size_t t = 0; t < tracks_.size(); ++t) {
        const Track &tr = tracks_[t];
        for (const Sample &s : samples(t))
            ts.counterSampleAt(s.tick, tr.desc.node,
                               tr.qual.c_str(), s.value);
    }
}

std::string
TeleSession::tracksDigest() const
{
    const std::string text = tracksText();
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : text) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, h);
    return buf;
}

} // namespace msgsim::tele
