/**
 * @file
 * msgsim-lab: the experiment-engine CLI (msgsim-lab --help lists its
 * flags).
 *
 *   msgsim-lab --list                      show the catalog
 *   msgsim-lab --all -j 4 --check-golden   run and gate everything
 *   msgsim-lab T1 --filter='X*' --json-out=DIR
 *                                          select by name or glob
 *
 * --trace-out= is refused: no grid point binds a clock, so a sweep
 * timeline would hold nothing but tick 0.  The per-run CLIs trace.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "lab/golden.hh"
#include "lab/registry.hh"
#include "lab/reporter.hh"
#include "lab/runner.hh"
#include "sim/flag_table.hh"
#include "sim/metrics.hh"

namespace
{

using namespace msgsim;
using namespace msgsim::lab;

/** Build the selection, preserving registration order, no duplicates. */
std::vector<const Experiment *>
select(const ExperimentRegistry &reg, bool all,
       const std::vector<std::string> &filters,
       const std::vector<std::string> &names, bool &selectionError)
{
    selectionError = false;
    std::vector<const Experiment *> out;
    auto want = [&](const Experiment &e) {
        if (all)
            return true;
        for (const auto &g : filters)
            if (globMatch(g, e.name))
                return true;
        for (const auto &n : names)
            if (n == e.name)
                return true;
        return false;
    };
    for (const auto &e : reg.all())
        if (want(e))
            out.push_back(&e);

    // Names and filters that select nothing are user errors.
    for (const auto &n : names) {
        if (!reg.find(n)) {
            std::fprintf(stderr,
                         "error: experiment '%s' is not registered "
                         "(see --list)\n",
                         n.c_str());
            selectionError = true;
        }
    }
    for (const auto &g : filters) {
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
    bool list = false, all = false, checkGolden = false, quiet = false;
    std::vector<std::string> filters, names;
    SweepOptions opts;
    std::string jsonOut, csvOut, goldenDir = "lab/golden";
    obs::Options obsOpts;

    cli::FlagTable flags(
        "msgsim-lab",
        "Run the registered experiments' sweeps, report them as "
        "markdown, JSON or CSV, and gate them against their goldens.");
    flags.toggle("--list", list, "list registered experiments and exit")
        .toggle("--all", all, "select every experiment")
        .list("--filter=GLOB", filters,
              "select experiments matching GLOB ('*', '?'); repeatable, "
              "union of matches")
        .positionals("EXPERIMENT", names,
                     "exact experiment name (e.g. T1, X4a)")
        .number("-j N", opts.jobs,
                "run grid points on N worker threads; the output is "
                "byte-identical for any N",
                1)
        .toggle("--progress", opts.progress,
                "print one line per finished point (stderr)")
        .text("--json-out=DIR", jsonOut,
              "write <DIR>/<name>.json per experiment")
        .text("--csv-out=DIR", csvOut,
              "write <DIR>/<name>.csv per experiment")
        .toggle("--check-golden", checkGolden,
                "diff results against golden files; exit 1 on any "
                "mismatch")
        .text("--golden-dir=DIR", goldenDir, "golden directory")
        .toggle("--quiet", quiet, "suppress the markdown report on stdout")
        .observability(obsOpts,
                       "refused: no grid point binds a clock; trace a "
                       "single run with msgsim-prof, -traffic, -wire, "
                       "-tele or -check",
                       "dump the lab.* sweep counters as JSON");
    flags.parse(argc, argv);
    if (!obsOpts.traceOut.empty()) {
        std::fprintf(stderr,
                     "error: msgsim-lab does not trace (no grid point "
                     "binds a clock); use --trace-out= on msgsim-prof, "
                     "msgsim-traffic, msgsim-wire, msgsim-tele or "
                     "msgsim-check\n");
        return 2;
    }
    obs::Scope scope(obsOpts);

    ExperimentRegistry &reg = builtinRegistry();

    if (list) {
        for (const auto &e : reg.all())
            std::printf("%-5s %3zu point%s %s\n", e.name.c_str(),
                        e.points.size(),
                        e.points.size() == 1 ? " " : "s",
                        e.title.c_str());
        return scope.finish(0);
    }

    bool selectionError = false;
    auto selection = select(reg, all, filters, names, selectionError);
    if (selectionError)
        return 2;
    if (selection.empty()) {
        std::fprintf(stderr, "error: nothing selected — use --all, "
                             "--filter=GLOB, or experiment names\n");
        std::fputs(flags.help().c_str(), stderr);
        return 2;
    }

    SweepRunner runner(opts);
    const auto tables = runner.run(selection);
    const auto &stats = runner.stats();

    // The sweep itself is the subsystem's unit of work: publish its
    // shape to the scope's metrics registry (post-sweep — worker
    // threads never touch it).
    MetricsRegistry &metrics = scope.metrics();
    metrics.counter("lab.experiments") += stats.experiments;
    metrics.counter("lab.points_run") += stats.pointsRun;
    metrics.counter("lab.rows_emitted") += stats.rowsEmitted;
    metrics.gauge("lab.sweep_wall_ms") = stats.wallMs;
    metrics.gauge("lab.jobs") = opts.jobs;

    if (!quiet)
        std::fputs(Reporter::markdown(tables).c_str(), stdout);

    if (!jsonOut.empty())
        Reporter::writeJson(jsonOut, tables);
    if (!csvOut.empty())
        Reporter::writeCsv(csvOut, tables);

    int status = 0;
    if (checkGolden) {
        GoldenChecker checker(goldenDir);
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
    return scope.finish(status);
}
