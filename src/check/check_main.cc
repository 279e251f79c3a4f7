/**
 * @file
 * msgsim-check: the schedule-space model-checker CLI.
 *
 *   msgsim-check --protocol=stream --depth=8 --faults=1
 *   msgsim-check --protocol=single_packet --substrate=cr --packets=4
 *   msgsim-check --protocol=stream --bug --ce-out=bug.json
 *   msgsim-check --replay=bug.json
 *
 * Flags and exit status: msgsim-check --help.
 */

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "check/explorer.hh"
#include "check/harness.hh"
#include "check/replay.hh"
#include "check/shrink.hh"
#include "prof/lineage.hh"
#include "sim/flag_table.hh"

namespace
{

using namespace msgsim;
using namespace msgsim::check;

constexpr const char *kTool = "msgsim-check";
constexpr const char *kAbout =
    "Explore the schedule space of one protocol scenario and report "
    "the first invariant violation, shrunk to a minimal schedule.\n\n"
    "Exit status: 0 = no violation (or a --replay that reproduced its "
    "recorded violation), 1 = violation found (or a --replay that did "
    "not reproduce), 2 = usage error.";

int
runReplay(const std::string &file, const ExploreLimits &limits,
          bool quiet, obs::Scope &scope)
{
    std::ifstream is(file, std::ios::binary);
    if (!is) {
        std::fprintf(stderr, "error: cannot read '%s'\n", file.c_str());
        return 2;
    }
    std::ostringstream buf;
    buf << is.rdbuf();

    Counterexample ce;
    std::string error;
    if (!counterexampleFromJson(buf.str(), ce, error)) {
        std::fprintf(stderr, "error: %s: %s\n", file.c_str(),
                     error.c_str());
        return 2;
    }

    // When the replay is traced, record packet lineage too: the
    // exported timeline then draws the counterexample's causal
    // send -> deliver -> handler arrows.
    std::unique_ptr<prof::LineageSession> lineage;
    if (scope.tracing()) {
        lineage = std::make_unique<prof::LineageSession>();
        lineage->attach();
    }

    Explorer explorer(ce.scenario, limits);
    const ScheduleResult res = explorer.replay(ce.schedule);
    const bool reproduced =
        res.violated && res.invariant == ce.invariant;

    if (lineage && scope.session() != nullptr)
        lineage->exportTo(*scope.session());
    if (!quiet) {
        if (reproduced)
            std::printf("replay %s: reproduced '%s' (%s)\n",
                        file.c_str(),
                        res.invariant.c_str(), res.detail.c_str());
        else if (res.violated)
            std::printf("replay %s: violated '%s' instead of "
                        "recorded '%s'\n",
                        file.c_str(),
                        res.invariant.c_str(), ce.invariant.c_str());
        else
            std::printf("replay %s: recorded violation '%s' did NOT "
                        "reproduce\n",
                        file.c_str(), ce.invariant.c_str());
    }
    return reproduced ? 0 : 1;
}

int
runExplore(const ScenarioConfig &scenario, const ExploreLimits &limits,
           const std::string &jsonOut, const std::string &ceOut,
           bool quiet)
{
    Explorer explorer(scenario, limits);
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

        if (!ceOut.empty()) {
            Counterexample ce;
            ce.scenario = scenario;
            ce.invariant = rep.counterexample.invariant;
            ce.detail = rep.counterexample.detail;
            ce.schedule = rep.counterexample.schedule;
            if (!cli::writeFile(kTool, ceOut, counterexampleToJson(ce)))
                return 2;
        }
    }

    if (!jsonOut.empty() &&
        !cli::writeFile(kTool, jsonOut, reportToJson(rep)))
        return 2;

    if (!quiet) {
        std::printf(
            "check %s/%s: %llu schedule(s) (%llu dfs, %llu walks), "
            "%llu step(s), %s\n",
            scenario.protocol.c_str(), toString(scenario.substrate),
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
    ScenarioConfig scenario;
    ExploreLimits limits;
    std::string jsonOut, ceOut, replayFile;
    bool quiet = false;
    obs::Options obsOpts;

    cli::FlagTable flags(kTool, kAbout);
    flags
        .choice("--protocol=NAME", scenario.protocol,
                ScenarioHarness::protocols(), "scenario")
        .choice("--substrate=NAME", scenario.substrate, allSubstrates,
                substrateFromString, "routing substrate")
        .number("--nodes=N", scenario.nodes, "nodes in the machine", 2, 8)
        .number("--packets=N", scenario.packets,
                "messages / data packets sent", 1, 16)
        .number("--group-ack=G", scenario.groupAck,
                "stream/socket ack grouping")
        .number("--faults=N", scenario.faults,
                "fault decisions per schedule")
        .number("--fault-kinds=M", scenario.faultKinds,
                "bitmask 1=drop 2=corrupt 4=duplicate; 0 = the "
                "protocol's safe set")
        .toggle("--bug", scenario.bugAckBeforeInsert,
                "re-introduce the ack-before-insert stream bug (the "
                "checker should catch it)")
        .number("--streams=N", scenario.streams,
                "wire_window: multiplexed streams", 1, 4)
        .number("--window=W", scenario.window,
                "wire_*: per-stream sliding window", 1, 8)
        .number("--wire-corrupt-every=N", scenario.wireCorruptEvery,
                "wire_*: flip the CRC of every Nth DATA frame at the "
                "wire layer (0 = off)")
        .toggle("--bug-wire-reset", scenario.bugWireResetDeliver,
                "seed the wire reset-delivery bug (the checker should "
                "catch it)")
        .number("--depth=D", limits.depth, "DFS branching choice points")
        .number("--budget=N", limits.budget, "max schedules executed", 1)
        .number("--max-steps=N", limits.maxSteps,
                "per-schedule step bound")
        .number("--walks=N", limits.walks,
                "seeded random walks after DFS")
        .number("--seed=N", limits.seed, "walk seed")
        .text("--json-out=FILE", jsonOut,
              "write the exploration report (JSON)")
        .text("--ce-out=FILE", ceOut,
              "write the shrunk counterexample (JSON)")
        .text("--replay=FILE", replayFile,
              "re-execute a counterexample file instead of exploring; "
              "exit 0 iff it reproduces")
        .toggle("--quiet", quiet, "suppress the stdout summary")
        .observability(obsOpts,
                       "Chrome trace-event timeline; with --replay, the "
                       "counterexample's packets carry lineage flow "
                       "arrows",
                       "metrics registry dump");
    flags.parse(argc, argv);
    obs::Scope scope(obsOpts);

    return scope.finish(
        !replayFile.empty()
            ? runReplay(replayFile, limits, quiet, scope)
            : runExplore(scenario, limits, jsonOut, ceOut, quiet));
}
