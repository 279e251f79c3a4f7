#include "sim/trace_session.hh"

#include <fstream>
#include <set>
#include <sstream>

#include "core/json.hh"
#include "sim/event.hh"

namespace msgsim
{

TraceSession::TraceSession() : TraceSession(Config()) {}

TraceSession::TraceSession(const Config &cfg) : cfg_(cfg)
{
    if (cfg_.capacity == 0)
        cfg_.capacity = 1;
}

Tick
TraceSession::now() const
{
    return clock_ ? clock_->now() : 0;
}

void
TraceSession::push(const Record &rec)
{
    if (ring_.size() == cfg_.capacity) {
        ring_.pop_front();
        ++dropped_;
    }
    ring_.push_back(rec);
    ++observed_;
}

void
TraceSession::beginSpan(NodeId node, const char *cat, const char *name)
{
    open_[node].push_back(OpenSpan{now(), cat, name});
    ++spanCounts_[std::string(cat) + "/" + name];
    if (spanObserver_)
        spanObserver_->onBeginSpan(node, cat, name);
}

void
TraceSession::endSpan(NodeId node)
{
    auto it = open_.find(node);
    if (it == open_.end() || it->second.empty()) {
        ++unmatchedEnds_;
        return;
    }
    const OpenSpan span = it->second.back();
    it->second.pop_back();

    Record rec;
    rec.kind = Kind::Span;
    rec.start = span.start;
    rec.end = now();
    rec.node = node;
    rec.cat = span.cat;
    rec.name = span.name;
    push(rec);
    if (spanObserver_)
        spanObserver_->onEndSpan(node, span.cat, span.name);
}

void
TraceSession::instant(NodeId node, const char *cat, const char *name,
                      double value)
{
    instantAt(now(), node, cat, name, value);
}

void
TraceSession::instantAt(Tick when, NodeId node, const char *cat,
                        const char *name, double value)
{
    Record rec;
    rec.kind = Kind::Instant;
    rec.start = when;
    rec.end = when;
    rec.node = node;
    rec.cat = cat;
    rec.name = name;
    rec.value = value;
    push(rec);
}

void
TraceSession::counterSample(NodeId node, const char *name, double value)
{
    counterSampleAt(now(), node, name, value);
}

void
TraceSession::counterSampleAt(Tick when, NodeId node, const char *name,
                              double value)
{
    Record rec;
    rec.kind = Kind::Counter;
    rec.start = when;
    rec.end = rec.start;
    rec.node = node;
    rec.cat = "counter";
    rec.name = name;
    rec.value = value;
    push(rec);
}

void
TraceSession::flowAt(Tick when, NodeId node, const char *cat,
                     const char *name, std::uint64_t id,
                     FlowPhase phase)
{
    Record rec;
    rec.kind = Kind::Flow;
    rec.start = when;
    rec.end = when;
    rec.node = node;
    rec.cat = cat;
    rec.name = name;
    rec.flowId = id;
    rec.flowPhase = phase;
    push(rec);
}

Tick
TraceSession::oldestRetainedTick() const
{
    return ring_.empty() ? 0 : ring_.front().start;
}

std::size_t
TraceSession::openSpans() const
{
    std::size_t n = 0;
    for (const auto &[node, stack] : open_)
        n += stack.size();
    return n;
}

std::vector<TraceSession::Record>
TraceSession::snapshot() const
{
    std::vector<Record> out;
    out.reserve(ring_.size());
    for (std::size_t i = 0; i < ring_.size(); ++i)
        out.push_back(ring_[i]);
    return out;
}

void
TraceSession::clear()
{
    ring_.clear();
    open_.clear();
}

std::string
TraceSession::chromeTraceJson()
{
    // Flush spans still open (e.g. a run cut short) so they appear.
    for (auto &[node, stack] : open_) {
        while (!stack.empty())
            endSpan(node);
    }

    const auto records = snapshot();

    std::set<NodeId> nodes;
    for (const auto &rec : records)
        if (rec.node != invalidNode)
            nodes.insert(rec.node);

    std::ostringstream os;
    os << "{\"traceEvents\":[";
    bool first = true;
    auto sep = [&] {
        if (!first)
            os << ",";
        first = false;
        os << "\n";
    };

    sep();
    os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,"
          "\"args\":{\"name\":\"msgsim\"}}";
    for (NodeId n : nodes) {
        sep();
        os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,"
              "\"tid\":" << n << ",\"args\":{\"name\":\"node "
           << n << "\"}}";
    }

    for (const auto &rec : records) {
        const std::uint64_t tid =
            rec.node == invalidNode ? 0 : rec.node;
        sep();
        switch (rec.kind) {
          case Kind::Span:
            os << "{\"name\":\"" << jsonEscape(rec.name)
               << "\",\"cat\":\"" << jsonEscape(rec.cat)
               << "\",\"ph\":\"X\",\"ts\":" << rec.start
               << ",\"dur\":" << (rec.end - rec.start)
               << ",\"pid\":0,\"tid\":" << tid << "}";
            break;
          case Kind::Instant:
            os << "{\"name\":\"" << jsonEscape(rec.name)
               << "\",\"cat\":\"" << jsonEscape(rec.cat)
               << "\",\"ph\":\"i\",\"s\":\"t\",\"ts\":" << rec.start
               << ",\"pid\":0,\"tid\":" << tid
               << ",\"args\":{\"v\":" << jsonNumber(rec.value)
               << "}}";
            break;
          case Kind::Counter: {
            // Per-node counters get distinct timeline names so
            // chrome://tracing does not merge them across nodes.
            std::string name = rec.name;
            if (rec.node != invalidNode)
                name = "node" + std::to_string(rec.node) + "/" + name;
            os << "{\"name\":\"" << jsonEscape(name)
               << "\",\"ph\":\"C\",\"ts\":" << rec.start
               << ",\"pid\":0,\"tid\":" << tid
               << ",\"args\":{\"value\":" << jsonNumber(rec.value)
               << "}}";
            break;
          }
          case Kind::Flow: {
            const char *ph =
                rec.flowPhase == FlowPhase::Start ? "s"
                : rec.flowPhase == FlowPhase::Step ? "t"
                                                   : "f";
            os << "{\"name\":\"" << jsonEscape(rec.name)
               << "\",\"cat\":\"" << jsonEscape(rec.cat)
               << "\",\"ph\":\"" << ph << "\",\"ts\":" << rec.start
               << ",\"pid\":0,\"tid\":" << tid
               << ",\"id\":" << rec.flowId;
            if (rec.flowPhase == FlowPhase::End)
                os << ",\"bp\":\"e\"";
            os << "}";
            break;
          }
        }
    }
    os << "\n],\"displayTimeUnit\":\"ns\",\"otherData\":{"
          "\"tool\":\"msgsim\",\"clock\":\"sim ticks (exported as "
          "microseconds)\"}}\n";
    return os.str();
}

bool
TraceSession::writeChromeTrace(const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << chromeTraceJson();
    return static_cast<bool>(out);
}

} // namespace msgsim
