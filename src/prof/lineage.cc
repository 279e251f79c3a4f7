#include "prof/lineage.hh"

#include <algorithm>
#include <cstdio>

#include "sim/stats.hh"
#include "sim/trace_session.hh"

namespace msgsim::prof
{

const char *
toString(LineageSession::EdgeKind kind)
{
    switch (kind) {
      case LineageSession::EdgeKind::Birth:        return "birth";
      case LineageSession::EdgeKind::Inject:       return "inject";
      case LineageSession::EdgeKind::Deliver:      return "deliver";
      case LineageSession::EdgeKind::Reject:       return "reject";
      case LineageSession::EdgeKind::Drop:         return "drop";
      case LineageSession::EdgeKind::Corrupt:      return "corrupt";
      case LineageSession::EdgeKind::HwRetry:      return "hw_retry";
      case LineageSession::EdgeKind::Duplicate:    return "duplicate";
      case LineageSession::EdgeKind::HandlerBegin: return "handler_begin";
      case LineageSession::EdgeKind::HandlerEnd:   return "handler_end";
    }
    return "?";
}

namespace
{

LineageSession::EdgeKind
edgeOf(TraceEvent ev)
{
    switch (ev) {
      case TraceEvent::Inject:    return LineageSession::EdgeKind::Inject;
      case TraceEvent::Deliver:   return LineageSession::EdgeKind::Deliver;
      case TraceEvent::Reject:    return LineageSession::EdgeKind::Reject;
      case TraceEvent::Drop:      return LineageSession::EdgeKind::Drop;
      case TraceEvent::Corrupt:   return LineageSession::EdgeKind::Corrupt;
      case TraceEvent::HwRetry:   return LineageSession::EdgeKind::HwRetry;
      case TraceEvent::Duplicate:
        return LineageSession::EdgeKind::Duplicate;
    }
    return LineageSession::EdgeKind::Inject;
}

} // namespace

LineageSession::LineageSession() : LineageSession(Config()) {}

LineageSession::LineageSession(const Config &cfg) : cfg_(cfg) {}

void
LineageSession::record(const Edge &e)
{
    if (edges_.size() >= cfg_.maxEdges) {
        ++edgesDropped_;
        return;
    }
    edges_.push_back(e);
}

void
LineageSession::packetBorn(Packet &pkt, NodeId node, Tick now)
{
    std::uint64_t parent = 0;
    auto it = handlerStack_.find(node);
    if (it != handlerStack_.end() && !it->second.empty())
        parent = it->second.back();

    pkt.lineage = nextId_++;
    if (parent != 0)
        parent_[pkt.lineage] = parent;
    record(Edge{pkt.lineage, parent, EdgeKind::Birth, node, now});
}

void
LineageSession::hwEvent(TraceEvent ev, const Packet &pkt, Tick now)
{
    if (pkt.lineage == 0)
        return; // staged before this session attached
    const EdgeKind kind = edgeOf(ev);
    const NodeId node = kind == EdgeKind::Inject ? pkt.src : pkt.dst;
    record(Edge{pkt.lineage, 0, kind, node, now});
}

void
LineageSession::handlerBegin(NodeId node, const Packet &pkt, Tick now)
{
    // Push even an untracked (0) lineage so handlerEnd pops
    // symmetrically; births under it are simply parentless.
    handlerStack_[node].push_back(pkt.lineage);
    if (pkt.lineage != 0)
        record(Edge{pkt.lineage, 0, EdgeKind::HandlerBegin, node, now});
}

void
LineageSession::handlerEnd(NodeId node, Tick now)
{
    auto it = handlerStack_.find(node);
    if (it == handlerStack_.end() || it->second.empty())
        return; // unmatched end (handler began before attach)
    const std::uint64_t lineage = it->second.back();
    it->second.pop_back();
    if (lineage != 0)
        record(Edge{lineage, 0, EdgeKind::HandlerEnd, node, now});
}

std::uint64_t
LineageSession::parentOf(std::uint64_t lineage) const
{
    auto it = parent_.find(lineage);
    return it == parent_.end() ? 0 : it->second;
}

std::uint64_t
LineageSession::rootOf(std::uint64_t lineage) const
{
    std::uint64_t cur = lineage;
    for (;;) {
        const std::uint64_t up = parentOf(cur);
        if (up == 0 || up == cur)
            return cur;
        cur = up;
    }
}

void
LineageSession::exportTo(TraceSession &ts) const
{
    // One flow chain per causal tree, keyed by the root lineage:
    // every location where the tree shows up (send, delivery,
    // handler) becomes one arrow point, in chronological order.
    struct Point
    {
        Tick tick;
        NodeId node;
    };
    std::map<std::uint64_t, std::vector<Point>> chains;
    for (const Edge &e : edges_) {
        switch (e.kind) {
          case EdgeKind::Birth:
          case EdgeKind::Inject:
          case EdgeKind::Deliver:
          case EdgeKind::HandlerBegin:
            chains[rootOf(e.lineage)].push_back(
                Point{e.tick, e.node});
            break;
          default:
            break; // faults/retries don't advance the arrow
        }
    }
    for (const auto &[root, points] : chains) {
        if (points.size() < 2)
            continue; // an arrow needs two ends
        for (std::size_t i = 0; i < points.size(); ++i) {
            const auto phase =
                i == 0 ? TraceSession::FlowPhase::Start
                : i + 1 == points.size()
                    ? TraceSession::FlowPhase::End
                    : TraceSession::FlowPhase::Step;
            ts.flowAt(points[i].tick, points[i].node, "lineage",
                      "pkt", root, phase);
        }
    }
}

WaterfallReport
LineageSession::waterfall() const
{
    // Per-lineage lifecycle ticks, folded from the edge stream.
    struct Life
    {
        bool hasBirth = false, hasInject = false, hasPresent = false;
        bool hasDeliver = false, hasHandler = false;
        Tick birth = 0, inject = 0, firstPresent = 0;
        Tick lastDeliver = 0, handler = 0;
        NodeId birthNode = invalidNode;
    };
    std::map<std::uint64_t, Life> lives;
    for (const Edge &e : edges_) {
        Life &l = lives[e.lineage];
        switch (e.kind) {
          case EdgeKind::Birth:
            if (!l.hasBirth) {
                l.hasBirth = true;
                l.birth = e.tick;
                l.birthNode = e.node;
            }
            break;
          case EdgeKind::Inject:
            if (!l.hasInject) {
                l.hasInject = true;
                l.inject = e.tick;
            }
            break;
          case EdgeKind::Deliver:
          case EdgeKind::Reject:
            if (!l.hasPresent) {
                l.hasPresent = true;
                l.firstPresent = e.tick;
            }
            if (e.kind == EdgeKind::Deliver) {
                l.hasDeliver = true;
                l.lastDeliver = e.tick;
            }
            break;
          case EdgeKind::HandlerBegin:
            if (!l.hasHandler) {
                l.hasHandler = true;
                l.handler = e.tick;
            }
            break;
          default:
            break;
        }
    }

    // Children index, for the ack-wait segment: a child delivered
    // back at the parent's birth node closes the round trip.
    std::map<std::uint64_t, std::vector<std::uint64_t>> children;
    for (const auto &[child, parent] : parent_)
        children[parent].push_back(child);

    WaterfallReport out;
    out.segments.resize(5);
    out.segments[0].name = "send_sw";
    out.segments[1].name = "wire";
    out.segments[2].name = "queue_wait";
    out.segments[3].name = "recv_sw";
    out.segments[4].name = "ack_wait";

    for (const auto &[lineage, l] : lives) {
        bool contributed = false;
        auto take = [&](std::size_t seg, Tick from, Tick to) {
            if (to < from)
                return;
            out.segments[seg].samples.push_back(
                static_cast<double>(to - from));
            contributed = true;
        };
        if (l.hasBirth && l.hasInject)
            take(0, l.birth, l.inject);
        if (l.hasInject && l.hasPresent)
            take(1, l.inject, l.firstPresent);
        if (l.hasPresent && l.hasDeliver)
            take(2, l.firstPresent, l.lastDeliver);
        if (l.hasDeliver && l.hasHandler)
            take(3, l.lastDeliver, l.handler);

        if (l.hasDeliver && l.birthNode != invalidNode) {
            // Earliest causal reply delivered back where we started.
            bool found = false;
            Tick replyAt = 0;
            auto cit = children.find(lineage);
            if (cit != children.end()) {
                for (std::uint64_t child : cit->second) {
                    auto lit = lives.find(child);
                    if (lit == lives.end() || !lit->second.hasDeliver)
                        continue;
                    if (lit->second.birthNode == l.birthNode)
                        continue; // sibling from same node, not a reply
                    if (!found ||
                        lit->second.lastDeliver < replyAt) {
                        found = true;
                        replyAt = lit->second.lastDeliver;
                    }
                }
            }
            if (found && replyAt >= l.lastDeliver)
                take(4, l.lastDeliver, replyAt);
        }
        if (contributed)
            ++out.lineages;
    }
    return out;
}

std::string
WaterfallReport::render() const
{
    std::string out;
    char line[160];
    std::snprintf(line, sizeof(line), "%-10s %8s %8s %8s %8s %8s\n",
                  "segment", "n", "p50", "p90", "p99", "max");
    out += line;
    for (const Segment &seg : segments) {
        double hi = 1.0;
        for (double s : seg.samples)
            hi = std::max(hi, s);
        Histogram h(0.0, hi + 1.0, 40);
        for (double s : seg.samples)
            h.sample(s);
        std::snprintf(line, sizeof(line),
                      "%-10s %8llu %8.0f %8.0f %8.0f %8.0f  %s\n",
                      seg.name.c_str(),
                      static_cast<unsigned long long>(h.stat().count()),
                      h.percentile(50), h.percentile(90),
                      h.percentile(99), h.stat().max(),
                      h.renderAscii().c_str());
        out += line;
    }
    return out;
}

Json
WaterfallReport::toJson() const
{
    Json doc = Json::object();
    doc.set("lineages", std::uint64_t(lineages));
    Json segs = Json::array();
    for (const Segment &seg : segments) {
        double hi = 1.0;
        for (double s : seg.samples)
            hi = std::max(hi, s);
        Histogram h(0.0, hi + 1.0, 40);
        for (double s : seg.samples)
            h.sample(s);
        Json j = Json::object();
        j.set("name", seg.name);
        j.set("samples", h.stat().count());
        j.set("p50", h.percentile(50));
        j.set("p90", h.percentile(90));
        j.set("p99", h.percentile(99));
        j.set("max", h.stat().max());
        segs.push(std::move(j));
    }
    doc.set("segments", std::move(segs));
    return doc;
}

} // namespace msgsim::prof
