/**
 * @file
 * msgsim-check: the schedule-space model-checker CLI.
 *
 *   msgsim-check --protocol=stream --depth=8 --faults=1
 *   msgsim-check --protocol=single_packet --substrate=cr --packets=4
 *   msgsim-check --protocol=stream --bug --ce-out=bug.json
 *   msgsim-check --replay=bug.json
 *
 * Exit status: 0 = no violation (or a --replay that reproduced its
 * recorded violation), 1 = violation found (or a --replay that did
 * not reproduce), 2 = usage error.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "check/explorer.hh"
#include "check/replay.hh"
#include "check/shrink.hh"
#include "prof/lineage.hh"
#include "sim/obs_cli.hh"

namespace
{

using namespace msgsim;
using namespace msgsim::check;

void
usage(std::FILE *out)
{
    std::fputs(
        "usage: msgsim-check [options]\n"
        "\n"
        "scenario:\n"
        "  --protocol=P       single_packet | incast | finite_xfer |\n"
        "                     stream | socket | wire_window |\n"
        "                     wire_reset | wire_attach (default stream)\n"
        "  --substrate=S      cm5 | cr | rdma | nicam (default cm5)\n"
        "  --nodes=N          nodes in the machine (default 2)\n"
        "  --packets=N        messages / data packets sent (default 3)\n"
        "  --group-ack=G      stream/socket ack grouping (default 1)\n"
        "  --faults=N         fault decisions per schedule (default 1)\n"
        "  --fault-kinds=M    bitmask 1=drop 2=corrupt 4=duplicate\n"
        "                     (default: the protocol's safe set)\n"
        "  --bug              re-introduce the ack-before-insert\n"
        "                     stream bug (the checker should catch it)\n"
        "  --streams=N        wire_window: multiplexed streams\n"
        "                     (default 2)\n"
        "  --window=W         wire_*: per-stream sliding window\n"
        "                     (default 2)\n"
        "  --wire-corrupt-every=N\n"
        "                     wire_*: flip the CRC of every Nth DATA\n"
        "                     frame at the wire layer (default off)\n"
        "  --bug-wire-reset   seed the wire reset-delivery bug (the\n"
        "                     checker should catch it)\n"
        "\n"
        "exploration:\n"
        "  --depth=D          DFS branching choice points (default 12)\n"
        "  --budget=N         max schedules executed (default 20000)\n"
        "  --max-steps=N      per-schedule step bound (default 800)\n"
        "  --walks=N          seeded random walks after DFS (default 0)\n"
        "  --seed=N           walk seed (default 1)\n"
        "\n"
        "artifacts:\n"
        "  --json-out=FILE    write the exploration report (JSON)\n"
        "  --ce-out=FILE      write the shrunk counterexample (JSON)\n"
        "  --replay=FILE      re-execute a counterexample file instead\n"
        "                     of exploring; exit 0 iff it reproduces\n"
        "  --quiet            suppress the stdout summary\n"
        "\n"
        "observability:\n"
        "  --trace-out=FILE   Chrome trace-event timeline; with\n"
        "                     --replay, the counterexample's packets\n"
        "                     carry lineage flow arrows\n"
        "  --metrics-out=FILE metrics registry dump\n",
        out);
}

struct CliOptions
{
    ScenarioConfig scenario;
    ExploreLimits limits;
    std::string jsonOut;
    std::string ceOut;
    std::string replayFile;
    bool quiet = false;
};

bool
parseCli(int argc, char **argv, CliOptions &cli)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto valueOf = [&arg](const char *prefix) {
            return arg.substr(std::strlen(prefix));
        };
        auto intOf = [&](const char *prefix) {
            return std::atoll(valueOf(prefix).c_str());
        };
        if (arg == "--help" || arg == "-h") {
            usage(stdout);
            std::exit(0);
        } else if (arg.rfind("--protocol=", 0) == 0) {
            cli.scenario.protocol = valueOf("--protocol=");
        } else if (arg.rfind("--substrate=", 0) == 0) {
            const std::string s = valueOf("--substrate=");
            if (!substrateFromString(s, cli.scenario.substrate)) {
                std::fprintf(stderr,
                             "error: unknown substrate '%s'\n",
                             s.c_str());
                return false;
            }
        } else if (arg.rfind("--nodes=", 0) == 0) {
            cli.scenario.nodes =
                static_cast<std::uint32_t>(intOf("--nodes="));
        } else if (arg.rfind("--packets=", 0) == 0) {
            cli.scenario.packets =
                static_cast<std::uint32_t>(intOf("--packets="));
        } else if (arg.rfind("--group-ack=", 0) == 0) {
            cli.scenario.groupAck =
                static_cast<int>(intOf("--group-ack="));
        } else if (arg.rfind("--faults=", 0) == 0) {
            cli.scenario.faults =
                static_cast<int>(intOf("--faults="));
        } else if (arg.rfind("--fault-kinds=", 0) == 0) {
            cli.scenario.faultKinds =
                static_cast<unsigned>(intOf("--fault-kinds="));
        } else if (arg == "--bug") {
            cli.scenario.bugAckBeforeInsert = true;
        } else if (arg.rfind("--streams=", 0) == 0) {
            cli.scenario.streams =
                static_cast<std::uint32_t>(intOf("--streams="));
        } else if (arg.rfind("--window=", 0) == 0) {
            cli.scenario.window =
                static_cast<int>(intOf("--window="));
        } else if (arg.rfind("--wire-corrupt-every=", 0) == 0) {
            cli.scenario.wireCorruptEvery =
                static_cast<std::uint32_t>(
                    intOf("--wire-corrupt-every="));
        } else if (arg == "--bug-wire-reset") {
            cli.scenario.bugWireResetDeliver = true;
        } else if (arg.rfind("--depth=", 0) == 0) {
            cli.limits.depth = static_cast<int>(intOf("--depth="));
        } else if (arg.rfind("--budget=", 0) == 0) {
            cli.limits.budget =
                static_cast<std::uint64_t>(intOf("--budget="));
        } else if (arg.rfind("--max-steps=", 0) == 0) {
            cli.limits.maxSteps =
                static_cast<std::uint64_t>(intOf("--max-steps="));
        } else if (arg.rfind("--walks=", 0) == 0) {
            cli.limits.walks = static_cast<int>(intOf("--walks="));
        } else if (arg.rfind("--seed=", 0) == 0) {
            cli.limits.seed =
                static_cast<std::uint64_t>(intOf("--seed="));
        } else if (arg.rfind("--json-out=", 0) == 0) {
            cli.jsonOut = valueOf("--json-out=");
        } else if (arg.rfind("--ce-out=", 0) == 0) {
            cli.ceOut = valueOf("--ce-out=");
        } else if (arg.rfind("--replay=", 0) == 0) {
            cli.replayFile = valueOf("--replay=");
        } else if (arg == "--quiet") {
            cli.quiet = true;
        } else {
            std::fprintf(stderr, "error: unknown option '%s'\n",
                         arg.c_str());
            usage(stderr);
            return false;
        }
    }
    if (cli.scenario.protocol != "single_packet" &&
        cli.scenario.protocol != "incast" &&
        cli.scenario.protocol != "finite_xfer" &&
        cli.scenario.protocol != "stream" &&
        cli.scenario.protocol != "socket" &&
        cli.scenario.protocol != "wire_window" &&
        cli.scenario.protocol != "wire_reset" &&
        cli.scenario.protocol != "wire_attach") {
        std::fprintf(stderr, "error: unknown protocol '%s'\n",
                     cli.scenario.protocol.c_str());
        return false;
    }
    if (cli.scenario.nodes < 2 || cli.scenario.nodes > 8) {
        std::fprintf(stderr, "error: --nodes must be in [2, 8]\n");
        return false;
    }
    if (cli.scenario.packets < 1 || cli.scenario.packets > 16) {
        std::fprintf(stderr, "error: --packets must be in [1, 16]\n");
        return false;
    }
    if (cli.scenario.streams < 1 || cli.scenario.streams > 4) {
        std::fprintf(stderr, "error: --streams must be in [1, 4]\n");
        return false;
    }
    if (cli.scenario.window < 1 || cli.scenario.window > 8) {
        std::fprintf(stderr, "error: --window must be in [1, 8]\n");
        return false;
    }
    return true;
}

bool
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream os(path, std::ios::binary);
    if (!os) {
        std::fprintf(stderr, "error: cannot write '%s'\n",
                     path.c_str());
        return false;
    }
    os << text;
    return true;
}

int
runReplay(const CliOptions &cli, obs::Scope &scope)
{
    std::ifstream is(cli.replayFile, std::ios::binary);
    if (!is) {
        std::fprintf(stderr, "error: cannot read '%s'\n",
                     cli.replayFile.c_str());
        return 2;
    }
    std::ostringstream buf;
    buf << is.rdbuf();

    Counterexample ce;
    std::string error;
    if (!counterexampleFromJson(buf.str(), ce, error)) {
        std::fprintf(stderr, "error: %s: %s\n",
                     cli.replayFile.c_str(), error.c_str());
        return 2;
    }

    // When the replay is traced, record packet lineage too: the
    // exported timeline then draws the counterexample's causal
    // send -> deliver -> handler arrows.
    std::unique_ptr<prof::LineageSession> lineage;
    if (scope.tracing())
        lineage = std::make_unique<prof::LineageSession>();

    Explorer explorer(ce.scenario, cli.limits);
    const ScheduleResult res = explorer.replay(ce.schedule);
    const bool reproduced =
        res.violated && res.invariant == ce.invariant;

    if (lineage && scope.session() != nullptr)
        lineage->exportTo(*scope.session());
    if (!cli.quiet) {
        if (reproduced)
            std::printf("replay %s: reproduced '%s' (%s)\n",
                        cli.replayFile.c_str(),
                        res.invariant.c_str(), res.detail.c_str());
        else if (res.violated)
            std::printf("replay %s: violated '%s' instead of "
                        "recorded '%s'\n",
                        cli.replayFile.c_str(),
                        res.invariant.c_str(), ce.invariant.c_str());
        else
            std::printf("replay %s: recorded violation '%s' did NOT "
                        "reproduce\n",
                        cli.replayFile.c_str(), ce.invariant.c_str());
    }
    return reproduced ? 0 : 1;
}

int
runExplore(const CliOptions &cli)
{
    Explorer explorer(cli.scenario, cli.limits);
    CheckReport rep = explorer.run();

    if (rep.violations) {
        // Minimize before anyone has to read the schedule.
        Shrinker shrinker(explorer);
        const ShrinkResult shrunk =
            shrinker.shrink(rep.counterexample);
        rep.counterexample = shrunk.result;
        // result.schedule holds every decision the replay took
        // (forced + defaults); the counterexample wants only the
        // forced choices ddmin kept.
        rep.counterexample.schedule = shrunk.schedule;

        if (!cli.ceOut.empty()) {
            Counterexample ce;
            ce.scenario = cli.scenario;
            ce.invariant = rep.counterexample.invariant;
            ce.detail = rep.counterexample.detail;
            ce.schedule = rep.counterexample.schedule;
            if (!writeFile(cli.ceOut, counterexampleToJson(ce)))
                return 2;
        }
    }

    if (!cli.jsonOut.empty() &&
        !writeFile(cli.jsonOut, reportToJson(rep)))
        return 2;

    if (!cli.quiet) {
        std::printf(
            "check %s/%s: %llu schedule(s) (%llu dfs, %llu walks), "
            "%llu step(s), %s\n",
            cli.scenario.protocol.c_str(),
            toString(cli.scenario.substrate),
            static_cast<unsigned long long>(rep.schedulesRun),
            static_cast<unsigned long long>(rep.dfsSchedules),
            static_cast<unsigned long long>(rep.walkSchedules),
            static_cast<unsigned long long>(rep.stepsTotal),
            rep.exhausted ? "exhaustive within depth"
                          : "budget-bounded");
        if (rep.violations) {
            std::printf("VIOLATION: %s — %s\n",
                        rep.counterexample.invariant.c_str(),
                        rep.counterexample.detail.c_str());
            std::printf("  minimized schedule (%zu choice(s)):\n",
                        rep.counterexample.schedule.size());
            for (const Choice &c : rep.counterexample.schedule)
                std::printf("    %-9s packet %llu\n",
                            toString(c.kind),
                            static_cast<unsigned long long>(
                                c.packetId));
        } else {
            std::printf("no invariant violations\n");
        }
    }
    return rep.violations ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    auto obsOpts = obs::parseArgs(argc, argv);
    obs::Scope scope(obsOpts);

    CliOptions cli;
    if (!parseCli(argc, argv, cli))
        return 2;

    if (!cli.replayFile.empty())
        return runReplay(cli, scope);
    return runExplore(cli);
}
