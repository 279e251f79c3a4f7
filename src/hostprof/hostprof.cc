#include "hostprof/hostprof.hh"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>

#include "sim/metrics.hh"

namespace msgsim::hostprof
{

namespace
{

// Process-wide allocation meters, maintained whether or not any
// profiler is attached (the disabled-mode zero-allocation test and
// the CLI's totals both read these).
std::atomic<std::uint64_t> g_allocCount{0};
std::atomic<std::uint64_t> g_allocBytes{0};

struct SiteInfo
{
    const char *name;
    int subsystem;
};

constexpr const char *kSubsystems[numSubsystems] = {
    "sim", "net", "cm5", "cr", "ni", "cmam", "proto",
    "rdma", "nicam", "traffic", "coll", "wire",
};

constexpr SiteInfo kSites[numSites] = {
    {"sim.step", 0},
    {"sim.heap_pop", 0},
    {"sim.handler", 0},
    {"net.inject", 1},
    {"net.deliver", 1},
    {"cm5.route", 2},
    {"cm5.deliver", 2},
    {"cr.route", 3},
    {"cr.deliver", 3},
    {"ni.send", 4},
    {"ni.recv", 4},
    {"ni.hw_deliver", 4},
    {"ni.dma", 4},
    {"cmam.send", 5},
    {"cmam.poll", 5},
    {"cmam.handler", 5},
    {"proto.single_packet", 6},
    {"proto.finite_xfer", 6},
    {"proto.stream", 6},
    {"proto.socket", 6},
    {"rdma.route", 7},
    {"rdma.deliver", 7},
    {"rdma.post", 7},
    {"rdma.poll", 7},
    {"nicam.route", 8},
    {"nicam.deliver", 8},
    {"nicam.send", 8},
    {"traffic.send", 9},
    {"traffic.drain", 9},
    {"coll.send", 10},
    {"coll.progress", 10},
    {"wire.encode", 11},
    {"wire.decode", 11},
    {"wire.mux", 11},
};

} // namespace

const char *
siteName(Site s)
{
    return kSites[static_cast<int>(s)].name;
}

const char *
subsystemName(int idx)
{
    return kSubsystems[idx];
}

int
siteSubsystem(Site s)
{
    return kSites[static_cast<int>(s)].subsystem;
}

std::uint64_t
globalAllocCount()
{
    return g_allocCount.load(std::memory_order_relaxed);
}

std::uint64_t
globalAllocBytes()
{
    return g_allocBytes.load(std::memory_order_relaxed);
}

HostProfiler::HostProfiler()
{
    inProfiler_ = true;
    nodes_.reserve(256);
    stack_.reserve(64);
    nodes_.push_back(Node{}); // the root
    inProfiler_ = false;
}

int
HostProfiler::findOrAddChild(int parent, Site s)
{
    for (int c : nodes_[static_cast<std::size_t>(parent)].children)
        if (nodes_[static_cast<std::size_t>(c)].site == s)
            return c;
    const int child = static_cast<int>(nodes_.size());
    Node n;
    n.site = s;
    n.parent = parent;
    nodes_.push_back(std::move(n));
    nodes_[static_cast<std::size_t>(parent)].children.push_back(child);
    return child;
}

void
HostProfiler::enterSite(Site s)
{
    // Tree/stack growth must not count as workload heap traffic:
    // route it to the overhead bucket via the reentrancy flag.
    inProfiler_ = true;
    const int child = findOrAddChild(cur_, s);
    ++nodes_[static_cast<std::size_t>(child)].enters;
    ++enters_;
    cur_ = child;
    stack_.push_back(Frame{child, 0});
    inProfiler_ = false;
    // Timestamp last so our own bookkeeping lands in the parent's
    // self cost, not the child's.
    stack_.back().start = tscNow();
}

void
HostProfiler::exitSite()
{
    const std::uint64_t end = tscNow();
    if (stack_.empty())
        return; // unbalanced exit; tolerate rather than crash
    inProfiler_ = true;
    const Frame f = stack_.back();
    stack_.pop_back();
    nodes_[static_cast<std::size_t>(f.node)].cycles += end - f.start;
    ++exits_;
    cur_ = stack_.empty() ? 0 : stack_.back().node;
    inProfiler_ = false;
}

void
HostProfiler::noteAlloc(std::size_t bytes)
{
    if (inProfiler_) {
        ++overheadAllocs_;
        overheadAllocBytes_ += bytes;
        return;
    }
    if (cur_ == 0) {
        ++unscopedAllocs_;
        unscopedAllocBytes_ += bytes;
        return;
    }
    Node &n = nodes_[static_cast<std::size_t>(cur_)];
    ++n.allocs;
    n.allocBytes += bytes;
    ++scopedAllocs_;
    scopedAllocBytes_ += bytes;
}

std::uint64_t
HostProfiler::rootCycles() const
{
    std::uint64_t total = 0;
    for (int c : nodes_[0].children)
        total += nodes_[static_cast<std::size_t>(c)].cycles;
    return total;
}

void
HostProfiler::buildRow(int node, std::string path, int depth,
                       std::vector<Row> &out) const
{
    const Node &n = nodes_[static_cast<std::size_t>(node)];
    std::uint64_t childCycles = 0;
    for (int c : n.children)
        childCycles += nodes_[static_cast<std::size_t>(c)].cycles;

    Row row;
    row.path = path;
    row.site = n.site;
    row.depth = depth;
    row.enters = n.enters;
    row.totalCycles = n.cycles;
    row.selfCycles = n.cycles >= childCycles ? n.cycles - childCycles
                                             : 0;
    row.allocs = n.allocs;
    row.allocBytes = n.allocBytes;
    out.push_back(std::move(row));

    for (int c : n.children) {
        const Node &cn = nodes_[static_cast<std::size_t>(c)];
        buildRow(c, path + ";" + siteName(cn.site), depth + 1, out);
    }
}

std::vector<HostProfiler::Row>
HostProfiler::rows() const
{
    std::vector<Row> out;
    out.reserve(nodes_.size());
    for (int c : nodes_[0].children) {
        const Node &cn = nodes_[static_cast<std::size_t>(c)];
        buildRow(c, siteName(cn.site), 1, out);
    }
    std::sort(out.begin(), out.end(),
              [](const Row &a, const Row &b) { return a.path < b.path; });
    return out;
}

std::vector<HostProfiler::SubsystemRow>
HostProfiler::subsystems() const
{
    std::vector<SubsystemRow> out(numSubsystems);
    for (int i = 0; i < numSubsystems; ++i)
        out[static_cast<std::size_t>(i)].name = kSubsystems[i];

    const std::vector<Row> all = rows();
    std::uint64_t total = 0;
    for (const Row &r : all) {
        auto &sub =
            out[static_cast<std::size_t>(siteSubsystem(r.site))];
        sub.enters += r.enters;
        sub.selfCycles += r.selfCycles;
        sub.allocs += r.allocs;
        sub.allocBytes += r.allocBytes;
        total += r.selfCycles;
    }
    if (total > 0)
        for (auto &sub : out)
            sub.share = static_cast<double>(sub.selfCycles) /
                        static_cast<double>(total);
    return out;
}

std::string
HostProfiler::foldedStacks(const std::string &prefix) const
{
    std::string out;
    for (const Row &r : rows()) {
        if (r.selfCycles == 0)
            continue;
        out += prefix;
        out += ";";
        out += r.path;
        out += " ";
        out += std::to_string(r.selfCycles);
        out += "\n";
    }
    return out;
}

Json
HostProfiler::toJson() const
{
    Json doc = Json::object();

    Json scopes = Json::object();
    scopes.set("enters", enters_);
    scopes.set("exits", exits_);
    scopes.set("balanced", balanced());
    scopes.set("root_cycles", rootCycles());
    doc.set("scopes", std::move(scopes));

    Json alloc = Json::object();
    alloc.set("scoped_count", scopedAllocs_);
    alloc.set("scoped_bytes", scopedAllocBytes_);
    alloc.set("unscoped_count", unscopedAllocs_);
    alloc.set("unscoped_bytes", unscopedAllocBytes_);
    alloc.set("profiler_overhead_count", overheadAllocs_);
    alloc.set("profiler_overhead_bytes", overheadAllocBytes_);
    alloc.set("process_total_count", globalAllocCount());
    alloc.set("process_total_bytes", globalAllocBytes());
    doc.set("alloc", std::move(alloc));

    Json subs = Json::array();
    for (const SubsystemRow &s : subsystems()) {
        Json j = Json::object();
        j.set("subsystem", s.name);
        j.set("enters", s.enters);
        j.set("self_cycles", s.selfCycles);
        j.set("share", s.share);
        j.set("allocs", s.allocs);
        j.set("alloc_bytes", s.allocBytes);
        subs.push(std::move(j));
    }
    doc.set("subsystems", std::move(subs));

    Json rws = Json::array();
    for (const Row &r : rows()) {
        Json j = Json::object();
        j.set("path", r.path);
        j.set("site", siteName(r.site));
        j.set("depth", r.depth);
        j.set("enters", r.enters);
        j.set("total_cycles", r.totalCycles);
        j.set("self_cycles", r.selfCycles);
        j.set("allocs", r.allocs);
        j.set("alloc_bytes", r.allocBytes);
        rws.push(std::move(j));
    }
    doc.set("rows", std::move(rws));
    return doc;
}

void
HostProfiler::publishMetrics(MetricsRegistry &reg,
                             const std::string &prefix) const
{
    for (const SubsystemRow &s : subsystems()) {
        const MetricsRegistry::Labels labels = {
            {"subsystem", s.name}};
        reg.counter(prefix + ".enters", labels) = s.enters;
        reg.counter(prefix + ".self_cycles", labels) = s.selfCycles;
        reg.counter(prefix + ".allocs", labels) = s.allocs;
        reg.counter(prefix + ".alloc_bytes", labels) = s.allocBytes;
        reg.gauge(prefix + ".share", labels) = s.share;
    }
    reg.counter(prefix + ".scope_enters") = enters_;
    reg.counter(prefix + ".scope_exits") = exits_;
    reg.counter(prefix + ".root_cycles") = rootCycles();
    reg.counter(prefix + ".unscoped_allocs") = unscopedAllocs_;
    reg.counter(prefix + ".overhead_allocs") = overheadAllocs_;
}

} // namespace msgsim::hostprof

// ------------------------------------------------------------------
// Global operator new/delete interposition.
//
// Lives in this translation unit on purpose: every instrumented site
// references the profiler's symbols, so this object file is pulled
// into every executable and the replacement operators always win over
// the toolchain defaults.  All forms route through malloc/free (ASan
// intercepts at that layer, so leak/overflow checking still works),
// count into the process-wide meters, and attribute to the calling
// thread's attached profiler when there is one.
// ------------------------------------------------------------------

namespace
{

inline void
noteAllocGlobal(std::size_t n)
{
    using namespace msgsim::hostprof;
    g_allocCount.fetch_add(1, std::memory_order_relaxed);
    g_allocBytes.fetch_add(n, std::memory_order_relaxed);
    if (HostProfiler *hp = HostProfiler::current())
        hp->noteAlloc(n);
}

void *
allocOrThrow(std::size_t n)
{
    for (;;) {
        if (void *p = std::malloc(n ? n : 1))
            return p;
        std::new_handler h = std::get_new_handler();
        if (h == nullptr)
            throw std::bad_alloc();
        h();
    }
}

void *
allocAligned(std::size_t n, std::size_t align)
{
    // C11 aligned_alloc wants the size rounded to the alignment.
    const std::size_t rounded = (n + align - 1) / align * align;
    return std::aligned_alloc(align, rounded ? rounded : align);
}

void *
allocAlignedOrThrow(std::size_t n, std::size_t align)
{
    for (;;) {
        if (void *p = allocAligned(n, align))
            return p;
        std::new_handler h = std::get_new_handler();
        if (h == nullptr)
            throw std::bad_alloc();
        h();
    }
}

} // namespace

void *
operator new(std::size_t n)
{
    noteAllocGlobal(n);
    return allocOrThrow(n);
}

void *
operator new[](std::size_t n)
{
    noteAllocGlobal(n);
    return allocOrThrow(n);
}

void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    noteAllocGlobal(n);
    return std::malloc(n ? n : 1);
}

void *
operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    noteAllocGlobal(n);
    return std::malloc(n ? n : 1);
}

void *
operator new(std::size_t n, std::align_val_t align)
{
    noteAllocGlobal(n);
    return allocAlignedOrThrow(n, static_cast<std::size_t>(align));
}

void *
operator new[](std::size_t n, std::align_val_t align)
{
    noteAllocGlobal(n);
    return allocAlignedOrThrow(n, static_cast<std::size_t>(align));
}

void *
operator new(std::size_t n, std::align_val_t align,
             const std::nothrow_t &) noexcept
{
    noteAllocGlobal(n);
    return allocAligned(n, static_cast<std::size_t>(align));
}

void *
operator new[](std::size_t n, std::align_val_t align,
               const std::nothrow_t &) noexcept
{
    noteAllocGlobal(n);
    return allocAligned(n, static_cast<std::size_t>(align));
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::align_val_t,
                const std::nothrow_t &) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::align_val_t,
                  const std::nothrow_t &) noexcept
{
    std::free(p);
}
