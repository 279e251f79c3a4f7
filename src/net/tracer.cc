#include "net/tracer.hh"

#include <cstdio>
#include <sstream>

#include "sim/trace_session.hh"

namespace msgsim
{

const char *
toString(TraceEvent ev)
{
    switch (ev) {
      case TraceEvent::Inject:  return "inject";
      case TraceEvent::Deliver: return "deliver";
      case TraceEvent::Drop:    return "drop";
      case TraceEvent::Corrupt: return "corrupt";
      case TraceEvent::Reject:  return "reject";
      case TraceEvent::HwRetry: return "hw-retry";
      case TraceEvent::Duplicate: return "duplicate";
      default:                  return "?";
    }
}

std::string
TraceRecord::format() const
{
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "%10llu  %-8s  %3u -> %3u  %-11s  seq=%llu  "
                  "hdr=%08x",
                  static_cast<unsigned long long>(when),
                  toString(event), src, dst, toString(tag),
                  static_cast<unsigned long long>(injectSeq), header);
    return buf;
}

PacketTracer::PacketTracer(std::size_t capacity)
    : capacity_(capacity ? capacity : 1),
      perEvent_(8, 0)
{
}

void
PacketTracer::record(Tick when, TraceEvent ev, const Packet &pkt)
{
    TraceRecord rec;
    rec.when = when;
    rec.event = ev;
    rec.src = pkt.src;
    rec.dst = pkt.dst;
    rec.tag = pkt.tag;
    rec.injectSeq = pkt.injectSeq;
    rec.header = pkt.header;

    if (ring_.size() == capacity_)
        ring_.pop_front();
    ring_.push_back(rec);
    ++observed_;
    const auto evIdx = static_cast<std::size_t>(ev);
    if (evIdx >= perEvent_.size())
        perEvent_.resize(evIdx + 1, 0);
    ++perEvent_[evIdx];
    if (observer_)
        observer_(rec);
}

std::uint64_t
PacketTracer::observed(TraceEvent ev) const
{
    const auto evIdx = static_cast<std::size_t>(ev);
    return evIdx < perEvent_.size() ? perEvent_[evIdx] : 0;
}

std::vector<TraceRecord>
PacketTracer::snapshot() const
{
    std::vector<TraceRecord> out;
    out.reserve(ring_.size());
    for (std::size_t i = 0; i < ring_.size(); ++i)
        out.push_back(ring_[i]);
    return out;
}

std::vector<TraceRecord>
PacketTracer::select(
    const std::function<bool(const TraceRecord &)> &pred) const
{
    std::vector<TraceRecord> out;
    for (const auto &rec : snapshot())
        if (pred(rec))
            out.push_back(rec);
    return out;
}

std::string
PacketTracer::dump() const
{
    std::ostringstream os;
    for (const auto &rec : snapshot())
        os << rec.format() << "\n";
    return os.str();
}

void
attachTraceBridge(PacketTracer &tracer, TraceSession &session)
{
    tracer.setObserver([&session](const TraceRecord &rec) {
        // Injections happen at the source; delivery-side events land
        // on the destination's track.
        const NodeId node =
            rec.event == TraceEvent::Inject ? rec.src : rec.dst;
        session.instantAt(rec.when, node, "hw", toString(rec.event),
                          static_cast<double>(rec.injectSeq));
    });
}

} // namespace msgsim
