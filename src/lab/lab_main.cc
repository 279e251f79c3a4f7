/**
 * @file
 * msgsim-lab: the experiment-engine CLI.
 *
 *   msgsim-lab --list                      show the catalog
 *   msgsim-lab --all [-j N]                run every experiment
 *   msgsim-lab --filter=GLOB [...]         select by name glob (repeatable)
 *   msgsim-lab T1 T2a [...]                select by exact name
 *   msgsim-lab --json-out=DIR              write <DIR>/<name>.json artifacts
 *   msgsim-lab --csv-out=DIR               write <DIR>/<name>.csv artifacts
 *   msgsim-lab --check-golden              gate against lab/golden/*.json
 *   msgsim-lab --golden-dir=DIR            alternate golden directory
 *   msgsim-lab --quiet / --progress        output volume control
 *
 * PR 1's observability flags (--trace-out=, --metrics-out=) are also
 * honoured; tracing forces -j 1 because the trace session hooks into
 * process-global state.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "lab/golden.hh"
#include "lab/registry.hh"
#include "lab/reporter.hh"
#include "lab/runner.hh"
#include "sim/metrics.hh"
#include "sim/obs_cli.hh"

namespace
{

using namespace msgsim;
using namespace msgsim::lab;

void
usage(std::FILE *out)
{
    std::fputs(
        "usage: msgsim-lab [options] [EXPERIMENT...]\n"
        "\n"
        "selection:\n"
        "  --list             list registered experiments and exit\n"
        "  --all              select every experiment\n"
        "  --filter=GLOB      select experiments matching GLOB ('*', '?');\n"
        "                     repeatable, union of matches\n"
        "  EXPERIMENT         exact experiment name (e.g. T1, X4a)\n"
        "\n"
        "execution:\n"
        "  -j N               run grid points on N worker threads\n"
        "                     (output is byte-identical for any N)\n"
        "  --progress         print one line per finished point (stderr)\n"
        "\n"
        "artifacts:\n"
        "  --json-out=DIR     write <DIR>/<name>.json per experiment\n"
        "  --csv-out=DIR      write <DIR>/<name>.csv per experiment\n"
        "  --check-golden     diff results against golden files; exit 1\n"
        "                     on any mismatch\n"
        "  --golden-dir=DIR   golden directory (default: lab/golden)\n"
        "  --quiet            suppress the markdown report on stdout\n"
        "\n"
        "observability (PR 1):\n"
        "  --trace-out=FILE   Chrome trace-event timeline (forces -j 1)\n"
        "  --metrics-out=FILE metrics registry dump\n",
        out);
}

struct CliOptions
{
    bool list = false;
    bool all = false;
    bool checkGolden = false;
    bool quiet = false;
    bool progress = false;
    int jobs = 1;
    std::string jsonOut;
    std::string csvOut;
    std::string goldenDir = "lab/golden";
    std::vector<std::string> filters;
    std::vector<std::string> names;
};

bool
parseCli(int argc, char **argv, CliOptions &cli)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto valueOf = [&arg](const char *prefix) {
            return arg.substr(std::strlen(prefix));
        };
        if (arg == "--help" || arg == "-h") {
            usage(stdout);
            std::exit(0);
        } else if (arg == "--list") {
            cli.list = true;
        } else if (arg == "--all") {
            cli.all = true;
        } else if (arg == "--check-golden") {
            cli.checkGolden = true;
        } else if (arg == "--quiet") {
            cli.quiet = true;
        } else if (arg == "--progress") {
            cli.progress = true;
        } else if (arg.rfind("--filter=", 0) == 0) {
            cli.filters.push_back(valueOf("--filter="));
        } else if (arg.rfind("--json-out=", 0) == 0) {
            cli.jsonOut = valueOf("--json-out=");
        } else if (arg.rfind("--csv-out=", 0) == 0) {
            cli.csvOut = valueOf("--csv-out=");
        } else if (arg.rfind("--golden-dir=", 0) == 0) {
            cli.goldenDir = valueOf("--golden-dir=");
        } else if (arg == "-j") {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "error: -j needs a value\n");
                return false;
            }
            cli.jobs = std::atoi(argv[++i]);
        } else if (arg.rfind("-j", 0) == 0 && arg.size() > 2) {
            cli.jobs = std::atoi(arg.c_str() + 2);
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "error: unknown option '%s'\n",
                         arg.c_str());
            usage(stderr);
            return false;
        } else {
            cli.names.push_back(arg);
        }
    }
    if (cli.jobs < 1) {
        std::fprintf(stderr, "error: -j must be >= 1\n");
        return false;
    }
    return true;
}

/** Build the selection, preserving registration order, no duplicates. */
std::vector<const Experiment *>
select(const ExperimentRegistry &reg, const CliOptions &cli,
       bool &selectionError)
{
    selectionError = false;
    std::vector<const Experiment *> out;
    auto want = [&](const Experiment &e) {
        if (cli.all)
            return true;
        for (const auto &g : cli.filters)
            if (globMatch(g, e.name))
                return true;
        for (const auto &n : cli.names)
            if (n == e.name)
                return true;
        return false;
    };
    for (const auto &e : reg.all())
        if (want(e))
            out.push_back(&e);

    // Names and filters that select nothing are user errors.
    for (const auto &n : cli.names) {
        if (!reg.find(n)) {
            std::fprintf(stderr,
                         "error: experiment '%s' is not registered "
                         "(see --list)\n",
                         n.c_str());
            selectionError = true;
        }
    }
    for (const auto &g : cli.filters) {
        if (reg.match(g).empty()) {
            std::fprintf(stderr,
                         "error: --filter=%s matches no experiment\n",
                         g.c_str());
            selectionError = true;
        }
    }
    return out;
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

    ExperimentRegistry &reg = builtinRegistry();

    if (cli.list) {
        for (const auto &e : reg.all())
            std::printf("%-5s %3zu point%s %s\n", e.name.c_str(),
                        e.points.size(),
                        e.points.size() == 1 ? " " : "s",
                        e.title.c_str());
        return 0;
    }

    bool selectionError = false;
    auto selection = select(reg, cli, selectionError);
    if (selectionError)
        return 2;
    if (selection.empty()) {
        std::fprintf(stderr, "error: nothing selected — use --all, "
                             "--filter=GLOB, or experiment names\n");
        usage(stderr);
        return 2;
    }

    SweepOptions opts;
    opts.jobs = cli.jobs;
    opts.progress = cli.progress;
    if (scope.tracing() && opts.jobs > 1) {
        std::fprintf(stderr, "msgsim-lab: tracing attaches "
                             "process-global hooks; forcing -j 1\n");
        opts.jobs = 1;
    }

    SweepRunner runner(opts);
    const auto tables = runner.run(selection);
    const auto &stats = runner.stats();

    // The sweep itself is the subsystem's unit of work: publish its
    // shape to the PR 1 metrics registry (post-sweep — the global
    // registry is not touched by worker threads).
    auto &metrics = MetricsRegistry::global();
    metrics.counter("lab.experiments") += stats.experiments;
    metrics.counter("lab.points_run") += stats.pointsRun;
    metrics.counter("lab.rows_emitted") += stats.rowsEmitted;
    metrics.gauge("lab.sweep_wall_ms") = stats.wallMs;
    metrics.gauge("lab.jobs") = opts.jobs;

    if (!cli.quiet)
        std::fputs(Reporter::markdown(tables).c_str(), stdout);

    if (!cli.jsonOut.empty())
        Reporter::writeJson(cli.jsonOut, tables);
    if (!cli.csvOut.empty())
        Reporter::writeCsv(cli.csvOut, tables);

    int status = 0;
    if (cli.checkGolden) {
        GoldenChecker checker(cli.goldenDir);
        std::uint64_t checked = 0, failed = 0, skipped = 0;
        for (const auto &t : tables) {
            const Experiment *e = reg.find(t.name);
            if (e && e->goldenExempt) {
                ++skipped; // self-gated: no golden
                continue;
            }
            const auto rep = checker.check(t);
            ++checked;
            if (rep.ok)
                continue;
            ++failed;
            for (const auto &m : rep.mismatches)
                std::fprintf(stderr, "golden: %s\n", m.c_str());
        }
        std::fprintf(stderr,
                     "golden: %llu checked, %llu failed, %llu "
                     "skipped (golden-exempt)\n",
                     static_cast<unsigned long long>(checked),
                     static_cast<unsigned long long>(failed),
                     static_cast<unsigned long long>(skipped));
        if (failed)
            status = 1;
    }

    std::fprintf(stderr,
                 "lab: %llu experiment(s), %llu point(s), %llu "
                 "row(s) in %.1f ms (-j %d)\n",
                 static_cast<unsigned long long>(stats.experiments),
                 static_cast<unsigned long long>(stats.pointsRun),
                 static_cast<unsigned long long>(stats.rowsEmitted),
                 stats.wallMs, opts.jobs);
    return status;
}
