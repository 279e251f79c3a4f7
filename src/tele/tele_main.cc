/**
 * @file
 * msgsim-tele: run one canonical telemetry scenario with a sampler
 * attached and export the time-series views.
 *
 *     msgsim-tele --scenario=incast --substrate=cm5 \
 *         --heatmap-out=heat.txt --report-out=report.txt
 *
 * Outputs: the scenario summary table (stdout / --json-out), the
 * time-binned congestion heatmap (--heatmap-out, ASCII + JSON
 * alongside), the bottleneck attribution report (--report-out), and
 * a Perfetto/Chrome counter-track timeline (--timeline-out).  With
 * --trace-out (observability layer) the counter tracks are merged
 * onto the live span timeline instead of a counters-only file.
 * Everything derived from the sampler is bit-deterministic: same
 * scenario, same period, same bytes.
 */

#include <cstdio>
#include <string>

#include "lab/result_table.hh"
#include "sim/flag_table.hh"
#include "tele/heatmap.hh"
#include "tele/report.hh"
#include "tele/tele_run.hh"

namespace
{

using namespace msgsim;

constexpr const char *kTool = "msgsim-tele";

} // namespace

int
main(int argc, char **argv)
{
    tele::ScenarioOptions sopt;
    std::size_t maxBins = 64;
    bool quiet = false;
    std::string timelineOut, heatmapOut, reportOut, jsonOut;
    obs::Options obsOpts;

    cli::FlagTable flags(kTool,
                         "Run one canonical telemetry scenario with a "
                         "sampler attached and export its time-series "
                         "views.");
    flags
        .choice("--scenario=NAME", sopt.scenario, tele::scenarioNames(),
                "scenario")
        .choice("--substrate=NAME", sopt.substrate, allSubstrates,
                substrateFromString, "routing substrate")
        .number("--period=T", sopt.period, "sample period in ticks", 1)
        .number("--ring=N", sopt.ringCapacity,
                "retained samples per track", 1)
        .number("--window-ticks=T", sopt.windowTicks,
                "report window (0 = auto)")
        .number("--threshold=F", sopt.threshold,
                "report saturation threshold")
        .number("--max-bins=N", maxBins, "heatmap bins")
        .text("--timeline-out=FILE", timelineOut,
              "write counter tracks as a Chrome trace-event timeline "
              "(ph:\"C\")")
        .text("--heatmap-out=FILE", heatmapOut,
              "write the ASCII heatmap (plus FILE.json)")
        .text("--report-out=FILE", reportOut,
              "write the bottleneck report (plus FILE.json)")
        .text("--json-out=FILE", jsonOut,
              "write the summary table as JSON")
        .toggle("--quiet", quiet, "suppress the stdout report")
        .observability(obsOpts, "write a Chrome trace-event timeline; "
                                "the counter tracks merge onto it");
    flags.parse(argc, argv);

    // The sampler must outlive the obs scope: counter records written
    // into the scope's trace session point into the sampler's track
    // names, and the scope writes its file on destruction.
    tele::TeleSession sampler({sopt.period, sopt.ringCapacity});
    obs::Scope scope(obsOpts);
    sopt.trace = scope.session();

    const tele::ScenarioResult res = tele::runScenario(sopt, &sampler);

    const tele::BottleneckReport report =
        tele::buildReport(sampler, sopt.windowTicks, sopt.threshold);

    lab::ResultTable t;
    t.name = "tele";
    t.title = "Telemetry run: " + sopt.scenario + " on " +
              toString(sopt.substrate);
    t.columns = {"scenario",   "substrate", "period", "ticks",
                 "completions", "backpressure", "tracks",
                 "snapshots",  "peak%",     "top bottleneck",
                 "digest",     "ok"};
    t.addRow({lab::Cell::text(sopt.scenario),
              lab::Cell::text(toString(sopt.substrate)),
              lab::Cell::integer(sopt.period),
              lab::Cell::integer(res.elapsed),
              lab::Cell::integer(res.completions),
              lab::Cell::integer(res.backpressure),
              lab::Cell::integer(res.trackCount),
              lab::Cell::integer(res.snapshots),
              lab::Cell::real(100.0 * res.peakFraction),
              lab::Cell::text(res.topResource.empty()
                                  ? "-"
                                  : res.topResource),
              lab::Cell::text(res.digest),
              lab::Cell::text(res.ok ? "ok" : "FAIL")});
    if (!quiet) {
        std::fputs(t.markdown().c_str(), stdout);
        std::fputs("\n", stdout);
        std::fputs(report.renderText().c_str(), stdout);
    }

    bool written = true;
    auto write = [&written](const std::string &path,
                            const std::string &text) {
        written = cli::writeFile(kTool, path, text) && written;
    };
    if (!jsonOut.empty())
        write(jsonOut, t.jsonText());

    if (!heatmapOut.empty()) {
        const tele::Heatmap hm = tele::buildHeatmap(sampler, maxBins);
        write(heatmapOut, hm.renderAscii());
        write(heatmapOut + ".json", hm.toJson().dump(2) + "\n");
    }

    if (!reportOut.empty()) {
        write(reportOut, report.renderText());
        write(reportOut + ".json", report.toJson().dump(2) + "\n");
    }

    if (!timelineOut.empty()) {
        // Counters-only timeline: replay every retained sample as a
        // ph:"C" record with its explicit simulated tick.
        TraceSession ts;
        sampler.exportCounters(ts);
        write(timelineOut, ts.chromeTraceJson());
    }
    if (scope.tracing())
        sampler.exportCounters(*scope.session());

    if (!res.ok)
        std::fprintf(stderr,
                     "msgsim-tele: scenario FAILED verification\n");
    return scope.finish(res.ok && written ? 0 : 1);
}
