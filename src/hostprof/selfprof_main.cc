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
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "cm5net/cm5_network.hh"
#include "crnet/cr_network.hh"
#include "nicam/nicam_network.hh"
#include "rdmanet/rdma_network.hh"
#include "hostprof/hostprof.hh"
#include "hostprof/hw_counters.hh"
#include "prof/profile.hh"
#include "protocols/stack.hh"
#include "sim/metrics.hh"
#include "sim/obs_cli.hh"
#include "traffic/engine.hh"

namespace
{

using namespace msgsim;

void
usage(std::FILE *out)
{
    std::fputs(
        "usage: msgsim-selfprof [options]\n"
        "\n"
        "  --workload=W       p1 (default: cm5 + cr + am4), or one of\n"
        "                     cm5 | cr | rdma | nicam | am4 | xfer | "
        "stream | incast\n"
        "  --packets=N        packets per network workload "
        "(default 200000)\n"
        "  --words=N          transfer volume for xfer/stream "
        "(default 64)\n"
        "  --hw               enable perf_event_open hardware "
        "counters\n"
        "  --flame-out=F      write folded flamegraph stacks "
        "(self cycles)\n"
        "  --json-out=F       write the full profile report\n"
        "  --smoke            small run + internal self-checks "
        "(CTest)\n"
        "  --trace-out=F / --metrics-out=F   PR 1 observability\n",
        out);
}

struct Options
{
    std::string workload = "p1";
    std::uint64_t packets = 200'000;
    std::uint32_t words = 64;
    bool hw = false;
    bool smoke = false;
    std::string flameOut;
    std::string jsonOut;
};

bool
parse(int argc, char **argv, Options &opt)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto valueOf = [&arg](const char *prefix) {
            return arg.substr(std::strlen(prefix));
        };
        if (arg == "--help" || arg == "-h") {
            usage(stdout);
            std::exit(0);
        } else if (arg.rfind("--workload=", 0) == 0) {
            opt.workload = valueOf("--workload=");
        } else if (arg.rfind("--packets=", 0) == 0) {
            opt.packets = std::strtoull(
                valueOf("--packets=").c_str(), nullptr, 10);
        } else if (arg.rfind("--words=", 0) == 0) {
            opt.words = static_cast<std::uint32_t>(std::strtoul(
                valueOf("--words=").c_str(), nullptr, 10));
        } else if (arg == "--hw") {
            opt.hw = true;
        } else if (arg == "--smoke") {
            opt.smoke = true;
        } else if (arg.rfind("--flame-out=", 0) == 0) {
            opt.flameOut = valueOf("--flame-out=");
        } else if (arg.rfind("--json-out=", 0) == 0) {
            opt.jsonOut = valueOf("--json-out=");
        } else {
            std::fprintf(stderr,
                         "msgsim-selfprof: unknown argument '%s'\n",
                         arg.c_str());
            usage(stderr);
            return false;
        }
    }
    return true;
}

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

/** A bare 16-node fabric of type @p Net. */
template <class Net>
std::unique_ptr<Network>
fabric(Simulator &sim)
{
    typename Net::Config cfg;
    cfg.nodes = 16;
    return std::make_unique<Net>(sim, cfg);
}

/** Pump 4-word packets from node 0 to node 1 of @p s's fabric. */
WorkloadRun
pumpFabric(Substrate s, std::uint64_t packets)
{
    WorkloadRun run;
    run.label = std::string(toString(s)) + " network";
    Simulator sim;
    std::unique_ptr<Network> net;
    switch (s) {
      case Substrate::Cm5:   net = fabric<Cm5Network>(sim); break;
      case Substrate::Cr:    net = fabric<CrNetwork>(sim); break;
      case Substrate::Rdma:  net = fabric<RdmaNetwork>(sim); break;
      case Substrate::Nicam: net = fabric<NicamNetwork>(sim); break;
    }
    std::uint64_t delivered = 0;
    // On nicam every packet hits the on-NIC handler table: the pump
    // measures the offload dispatch path, not the host fallback.
    if (s == Substrate::Nicam)
        static_cast<NicamNetwork &>(*net).offloadHandler(
            1, HwTag::UserAm, 0,
            [&delivered](const Packet &) { ++delivered; });
    net->attach(1, [&delivered](Packet &) {
        ++delivered;
        return true;
    });
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < packets; ++i) {
        net->inject(Packet(0, 1, HwTag::UserAm, 0, {1, 2, 3, 4}));
        sim.run();
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

std::vector<WorkloadRun>
runWorkloads(const Options &opt)
{
    std::vector<WorkloadRun> runs;
    const std::uint64_t n = opt.packets;
    Substrate fabricOnly = Substrate::Cm5;
    if (opt.workload == "p1") {
        runs.push_back(pumpFabric(Substrate::Cm5, n));
        runs.push_back(pumpFabric(Substrate::Cr, n));
        runs.push_back(pumpAm4(n / 4));
    } else if (substrateFromString(opt.workload, fabricOnly)) {
        runs.push_back(pumpFabric(fabricOnly, n));
    } else if (opt.workload == "am4") {
        runs.push_back(pumpAm4(n / 4));
    } else if (opt.workload == "xfer" || opt.workload == "stream") {
        runs.push_back(runProfProtocol(opt.workload, opt.words));
    } else if (opt.workload == "incast") {
        runs.push_back(runIncast(n));
    }
    return runs;
}

bool
writeFile(const std::string &path, const std::string &text,
          const char *what)
{
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr,
                     "msgsim-selfprof: cannot write %s to %s\n",
                     what, path.c_str());
        return false;
    }
    out << text;
    std::printf("%s written to %s\n", what, path.c_str());
    return true;
}

/** Check the folded-stack grammar: space-free ';' frames + count. */
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
        if (frames.front() == ';' || frames.back() == ';' ||
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
    expect(hp.balanced(), "scopes balanced");
    expect(hp.totalEnters() > 0, "scopes entered");
    expect(hp.totalEnters() == hp.totalExits(),
           "enters == exits");
    expect(hp.rootCycles() > 0, "nonzero root cycles");
    expect(shareSum > 0.99 && shareSum < 1.01,
           "subsystem shares sum to 100% +/- 1%");
    expect(hp.scopedAllocs() > 0, "scoped allocations attributed");
    expect(foldedGrammarOk(hp.foldedStacks()),
           "folded-stack grammar");
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
    obs::Options obsOpts = obs::parseArgs(argc, argv);

    Options opt;
    if (!parse(argc, argv, opt))
        return 2;
    if (opt.smoke && opt.packets == 200'000)
        opt.packets = 2'000;
    const bool known =
        opt.workload == "p1" || opt.workload == "cm5" ||
        opt.workload == "cr" || opt.workload == "rdma" ||
        opt.workload == "nicam" || opt.workload == "am4" ||
        opt.workload == "xfer" || opt.workload == "stream" ||
        opt.workload == "incast";
    if (!known) {
        std::fprintf(stderr,
                     "msgsim-selfprof: unknown workload '%s'\n",
                     opt.workload.c_str());
        usage(stderr);
        return 2;
    }

    obs::Scope scope(obsOpts);
    auto &metrics = MetricsRegistry::global();
    hostprof::publishHwAvailability(metrics);

    hostprof::HostProfiler hp;
    hostprof::HwCounters hw;
    std::string hwReason = "not requested";
    bool hwRunning = false;
    if (opt.hw) {
        hwRunning = hw.start();
        hwReason = hw.reason();
        if (!hwRunning)
            std::fprintf(stderr,
                         "msgsim-selfprof: hardware counters "
                         "unavailable, TSC only: %s\n",
                         hwReason.c_str());
    }

    hp.attach();
    const std::vector<WorkloadRun> runs = runWorkloads(opt);
    hp.detach();
    hw.stop();
    const hostprof::HwSample hwSample = hw.sample();

    hp.publishMetrics(metrics);

    // ---------------- report ----------------

    std::printf("host self-profile (%s workload)\n\n",
                opt.workload.c_str());
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
    if (opt.hw) {
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
    if (!opt.flameOut.empty())
        ok = writeFile(opt.flameOut, hp.foldedStacks(),
                       "folded stacks") &&
             ok;
    if (!opt.jsonOut.empty()) {
        Json doc = Json::object();
        Json wl = Json::array();
        for (const WorkloadRun &run : runs) {
            Json j = Json::object();
            j.set("label", run.label);
            j.set("packets", run.packets);
            j.set("wall_us", run.wallUs);
            wl.push(std::move(j));
        }
        doc.set("workload", opt.workload);
        doc.set("runs", std::move(wl));
        Json hwj = Json::object();
        hwj.set("requested", opt.hw);
        hwj.set("available", hwSample.ok);
        hwj.set("reason", opt.hw ? hwReason : "not requested");
        if (hwSample.ok) {
            hwj.set("instructions", hwSample.instructions);
            hwj.set("cache_misses", hwSample.cacheMisses);
            hwj.set("branch_misses", hwSample.branchMisses);
        }
        doc.set("hw", std::move(hwj));
        doc.set("profile", hp.toJson());
        ok = writeFile(opt.jsonOut, doc.dump(2) + "\n", "report") &&
             ok;
    }
    if (opt.smoke)
        return smokeChecks(hp, shareSum);
    return ok ? 0 : 1;
}
