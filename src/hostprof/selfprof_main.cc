/**
 * @file
 * msgsim-selfprof: profile the *simulator itself* and report where
 * its host time goes, per subsystem.
 *
 *     msgsim-selfprof --workload=p1 --flame-out=self.folded
 *
 * runs the default p1 workload set (cm5 pump, cr pump, cmam am4
 * round) with the host self-profiler attached and prints the
 * per-subsystem breakdown: self TSC cycles, share of the total
 * (sums to 100% by construction), scope entries, and heap allocation
 * traffic.  Optional perf_event_open hardware counters (--hw) layer
 * instructions / cache misses / branch misses on top, falling back
 * to TSC-only cleanly when the container denies perf access.
 *
 * Composes with --trace-out / --metrics-out; the metrics dump gains
 * the hostprof.* gauges including hostprof.counters_available.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "hostprof/hostprof.hh"
#include "hostprof/hw_counters.hh"
#include "prof/profile.hh"
#include "protocols/stack.hh"
#include "sim/flag_table.hh"
#include "sim/metrics.hh"
#include "traffic/engine.hh"

namespace
{

using namespace msgsim;

constexpr const char *kTool = "msgsim-selfprof";

/** One profiled workload's wall-clock result. */
struct WorkloadRun
{
    std::string label;
    std::uint64_t packets = 0;
    double wallUs = 0.0;
};

double
usSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/**
 * Pump 4-word packets from node 0 to node 1 through @p s's fabric
 * alone: a 16-node Stack's network with node 1's NI sink replaced by
 * a counter, so neither the NI nor CMAM is on the path.
 */
WorkloadRun
pumpFabric(Substrate s, std::uint64_t packets)
{
    WorkloadRun run;
    run.label = std::string(toString(s)) + " network";
    StackConfig cfg;
    cfg.substrate = s;
    cfg.nodes = 16;
    Stack stack(cfg);
    Network &net = stack.network();
    std::uint64_t delivered = 0;
    // On nicam every packet hits the on-NIC handler table: the pump
    // measures the offload dispatch path, not the host fallback.
    if (s == Substrate::Nicam)
        static_cast<NicamNetwork &>(net).offloadHandler(
            1, HwTag::UserAm, 0,
            [&delivered](const Packet &) { ++delivered; });
    net.attach(1, [&delivered](Packet &) {
        ++delivered;
        return true;
    });
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < packets; ++i) {
        net.inject(Packet(0, 1, HwTag::UserAm, 0, {1, 2, 3, 4}));
        stack.sim().run();
    }
    run.wallUs = usSince(t0);
    run.packets = delivered;
    return run;
}

WorkloadRun
pumpAm4(std::uint64_t rounds)
{
    WorkloadRun run;
    run.label = "cmam am4 round";
    StackConfig cfg;
    cfg.nodes = 2;
    Stack stack(cfg);
    const int h = stack.cmam(1).registerHandler(
        [](NodeId, const std::vector<Word> &) {});
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < rounds; ++i) {
        stack.cmam(0).am4(1, h, {1, 2, 3, 4});
        stack.settle();
        stack.cmam(1).poll();
        ++run.packets;
    }
    run.wallUs = usSince(t0);
    return run;
}

WorkloadRun
runIncast(std::uint64_t packets)
{
    WorkloadRun run;
    run.label = "incast traffic";
    TrafficSpec spec;
    spec.pattern = TrafficPattern::Incast;
    spec.nodes = 16;
    // Size the run by fragment count: packets / (nodes * frags).
    spec.sizeWords = 4; // 2 fragments per message
    spec.messagesPerNode = static_cast<std::uint32_t>(
        std::max<std::uint64_t>(1, packets / (16 * 2)));
    Stack stack(trafficStackConfig(spec, Substrate::Cm5));
    TrafficEngine engine(stack);
    const auto t0 = std::chrono::steady_clock::now();
    const TrafficResult res = engine.run(spec);
    run.wallUs = usSince(t0);
    run.packets = res.shape.fragmentsSent;
    if (!res.ok)
        run.packets = 0; // surface the failure in the report
    return run;
}

/** The xfer or stream protocol on cm5, timed from the built stack. */
WorkloadRun
runProfProtocol(const std::string &protocol, std::uint32_t words)
{
    WorkloadRun run;
    run.label = protocol == "stream" ? "stream protocol" : "finite xfer";
    prof::ProfConfig cfg;
    cfg.protocol = protocol;
    cfg.words = words;
    auto t0 = std::chrono::steady_clock::now();
    const RunResult res = prof::runProtocol(
        cfg, [&t0](Machine &) { t0 = std::chrono::steady_clock::now(); });
    run.wallUs = usSince(t0);
    run.packets = res.packets;
    return run;
}

using Runs = std::vector<WorkloadRun>;

/** One --workload: its name and what it runs for (packets, words). */
struct Workload
{
    std::string name;
    std::function<Runs(std::uint64_t, std::uint32_t)> run;
};

/** Every workload, in --help order. */
std::vector<Workload>
workloads()
{
    std::vector<Workload> all = {
        {"p1", [](std::uint64_t n, std::uint32_t) {
             return Runs{pumpFabric(Substrate::Cm5, n),
                         pumpFabric(Substrate::Cr, n), pumpAm4(n / 4)};
         }}};
    for (Substrate s : allSubstrates)
        all.push_back({toString(s), [s](std::uint64_t n, std::uint32_t) {
                           return Runs{pumpFabric(s, n)};
                       }});
    all.push_back({"am4", [](std::uint64_t n, std::uint32_t) {
                       return Runs{pumpAm4(n / 4)};
                   }});
    for (const char *protocol : {"xfer", "stream"})
        all.push_back({protocol, [protocol](std::uint64_t,
                                            std::uint32_t words) {
                           return Runs{runProfProtocol(protocol, words)};
                       }});
    all.push_back({"incast", [](std::uint64_t n, std::uint32_t) {
                       return Runs{runIncast(n)};
                   }});
    return all;
}

/**
 * Check the folded-stack grammar: space-free ';' frames under the
 * "host" root, one space, a count.
 */
bool
foldedGrammarOk(const std::string &folded)
{
    std::size_t pos = 0;
    while (pos < folded.size()) {
        std::size_t eol = folded.find('\n', pos);
        if (eol == std::string::npos)
            return false; // every line is newline-terminated
        const std::string line = folded.substr(pos, eol - pos);
        pos = eol + 1;
        const std::size_t space = line.find(' ');
        if (space == std::string::npos || space == 0)
            return false;
        const std::string frames = line.substr(0, space);
        const std::string count = line.substr(space + 1);
        if (count.empty() ||
            count.find_first_not_of("0123456789") !=
                std::string::npos)
            return false;
        if (frames.find(' ') != std::string::npos)
            return false;
        if (frames.rfind("host;", 0) != 0 || frames.back() == ';' ||
            frames.find(";;") != std::string::npos)
            return false;
    }
    return true;
}

int
smokeChecks(const hostprof::HostProfiler &hp, double shareSum)
{
    int failures = 0;
    auto expect = [&failures](bool ok, const char *what) {
        if (!ok) {
            std::fprintf(stderr, "selfprof smoke FAILED: %s\n", what);
            ++failures;
        }
    };
    const auto subs = hp.subsystems();
    expect(std::count_if(subs.begin(), subs.end(),
                         [](const auto &s) { return s.enters > 0; }) >= 3,
           "at least 3 active subsystems");
    expect(hp.balanced(), "scopes balanced");
    expect(hp.totalEnters() > 0, "scopes entered");
    expect(hp.totalEnters() == hp.totalExits(),
           "enters == exits");
    expect(hp.rootCycles() > 0, "nonzero root cycles");
    expect(shareSum > 0.99 && shareSum < 1.01,
           "subsystem shares sum to 100% +/- 1%");
    expect(hp.scopedAllocs() > 0, "scoped allocations attributed");
    expect(foldedGrammarOk(hp.foldedStacks()),
           "folded-stack grammar, every line under host;");
    std::string reason;
    const bool avail = hostprof::HwCounters::probe(&reason);
    std::printf("hw counter probe: %s (%s)\n",
                avail ? "available" : "unavailable",
                reason.c_str());
    if (failures == 0)
        std::printf("selfprof smoke ok\n");
    return failures == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::vector<Workload> all = workloads();
    std::vector<std::string> names;
    for (const Workload &w : all)
        names.push_back(w.name);

    std::string workload = "p1";
    std::uint64_t packets = 200'000;
    std::uint32_t words = 64;
    bool wantHw = false, smoke = false;
    std::string flameOut, jsonOut;
    obs::Options obsOpts;

    cli::FlagTable flags(kTool,
                         "Profile the simulator itself: where its host "
                         "time goes, per subsystem.");
    flags
        .choice("--workload=NAME", workload, names,
                "what to run (p1 = the cm5 and cr pumps and a CMAM am4 "
                "round)")
        .number("--packets=N", packets, "packets per network workload")
        .number("--words=N", words, "transfer volume for xfer/stream")
        .toggle("--hw", wantHw, "enable perf_event_open hardware counters")
        .text("--flame-out=FILE", flameOut,
              "write folded flamegraph stacks (self cycles)")
        .text("--json-out=FILE", jsonOut, "write the full profile report")
        .toggle("--smoke", smoke, "run the internal self-checks (CTest)")
        .observability(obsOpts);
    flags.parse(argc, argv);

    obs::Scope scope(obsOpts);
    MetricsRegistry &metrics = scope.metrics();
    hostprof::publishHwAvailability(metrics);

    hostprof::HostProfiler hp;
    hostprof::HwCounters hw;
    std::string hwReason = "not requested";
    bool hwRunning = false;
    if (wantHw) {
        hwRunning = hw.start();
        hwReason = hw.reason();
        if (!hwRunning)
            std::fprintf(stderr,
                         "msgsim-selfprof: hardware counters "
                         "unavailable, TSC only: %s\n",
                         hwReason.c_str());
    }

    const Workload &chosen = *std::find_if(
        all.begin(), all.end(),
        [&workload](const Workload &w) { return w.name == workload; });
    hp.attach();
    const Runs runs = chosen.run(packets, words);
    hp.detach();
    hw.stop();
    const hostprof::HwSample hwSample = hw.sample();

    hp.publishMetrics(metrics);

    // ---------------- report ----------------

    std::printf("host self-profile (%s workload)\n\n",
                workload.c_str());
    for (const WorkloadRun &run : runs)
        std::printf("  %-16s %9llu packets  %12.0f us\n",
                    run.label.c_str(),
                    static_cast<unsigned long long>(run.packets),
                    run.wallUs);

    std::printf("\n| subsystem | self cycles | share %% | enters | "
                "allocs | alloc KiB |\n");
    std::printf("|-----------|-------------|---------|--------|"
                "--------|-----------|\n");
    const auto subs = hp.subsystems();
    double shareSum = 0.0;
    for (const auto &s : subs) {
        shareSum += s.share;
        std::printf(
            "| %-9s | %11llu | %7.2f | %6llu | %6llu | %9.1f |\n",
            s.name.c_str(),
            static_cast<unsigned long long>(s.selfCycles),
            100.0 * s.share,
            static_cast<unsigned long long>(s.enters),
            static_cast<unsigned long long>(s.allocs),
            static_cast<double>(s.allocBytes) / 1024.0);
    }

    auto ranked = subs;
    std::sort(ranked.begin(), ranked.end(),
              [](const auto &a, const auto &b) {
                  return a.selfCycles > b.selfCycles;
              });
    std::printf("\ntop cost centers:");
    int shown = 0;
    for (const auto &s : ranked) {
        if (shown == 3 || s.selfCycles == 0)
            break;
        std::printf(" %d) %s (%.1f%%)", ++shown, s.name.c_str(),
                    100.0 * s.share);
    }
    std::printf("\nshares sum: %.1f%%   scopes: %llu enter / %llu "
                "exit   allocs: %llu scoped + %llu unscoped\n",
                100.0 * shareSum,
                static_cast<unsigned long long>(hp.totalEnters()),
                static_cast<unsigned long long>(hp.totalExits()),
                static_cast<unsigned long long>(hp.scopedAllocs()),
                static_cast<unsigned long long>(hp.unscopedAllocs()));
    if (wantHw) {
        if (hwSample.ok)
            std::printf("hw counters: %llu instructions, %llu cache "
                        "misses, %llu branch misses\n",
                        static_cast<unsigned long long>(
                            hwSample.instructions),
                        static_cast<unsigned long long>(
                            hwSample.cacheMisses),
                        static_cast<unsigned long long>(
                            hwSample.branchMisses));
        else
            std::printf("hw counters: unavailable (%s)\n",
                        hwReason.c_str());
    }

    bool ok = true;
    if (!flameOut.empty())
        ok = cli::writeFile(kTool, flameOut, hp.foldedStacks(),
                            "folded stacks") &&
             ok;
    if (!jsonOut.empty()) {
        Json doc = Json::object();
        Json wl = Json::array();
        for (const WorkloadRun &run : runs) {
            Json j = Json::object();
            j.set("label", run.label);
            j.set("packets", run.packets);
            j.set("wall_us", run.wallUs);
            wl.push(std::move(j));
        }
        doc.set("workload", workload);
        doc.set("runs", std::move(wl));
        Json hwj = Json::object();
        hwj.set("requested", wantHw);
        hwj.set("available", hwSample.ok);
        hwj.set("reason", wantHw ? hwReason : "not requested");
        if (hwSample.ok) {
            hwj.set("instructions", hwSample.instructions);
            hwj.set("cache_misses", hwSample.cacheMisses);
            hwj.set("branch_misses", hwSample.branchMisses);
        }
        doc.set("hw", std::move(hwj));
        doc.set("profile", hp.toJson());
        ok = cli::writeFile(kTool, jsonOut, doc.dump(2) + "\n",
                            "report") &&
             ok;
    }
    return scope.finish(smoke ? smokeChecks(hp, shareSum) : ok ? 0 : 1);
}
