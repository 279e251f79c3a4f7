/**
 * @file
 * msgsim-prof: profiled protocol runs, latency waterfalls,
 * flamegraph folded stacks, and the CM-5-vs-CR differential table.
 *
 *     msgsim-prof --protocol=xfer --substrate=cm5 --baseline=cr
 *
 * prints the paper's headline comparison: the buffer-management,
 * in-order-delivery and fault-tolerance instruction counts of the
 * finite-sequence transfer vanish on the CR substrate while the
 * base cost stays put.  The bare flag form
 *
 *     msgsim-prof --substrate=rdma --baseline
 *
 * diffs the cm5 run against the named modern substrate — one column
 * of the substrate × feature matrix, with the completion-poll,
 * registration and host-dispatch rows the classic table lacks.
 * Composes with the observability flags (--trace-out /
 * --metrics-out): the traced timeline of the primary run gains
 * per-packet lineage flow arrows.
 */

#include <cstdio>
#include <optional>

#include "prof/profile.hh"
#include "prof/profiler.hh"
#include "sim/flag_table.hh"

constexpr const char *kTool = "msgsim-prof";

int
main(int argc, char **argv)
{
    using namespace msgsim;

    prof::ProfConfig primaryCfg;
    std::optional<Substrate> baseline;
    bool bareBaseline = false;
    std::string flameOut, waterfallOut, jsonOut;
    obs::Options obsOpts;

    cli::FlagTable flags(
        kTool, "Profile one protocol run: latency waterfall, flamegraph "
               "folded stacks and, with --baseline, the differential "
               "table against a second substrate.");
    flags
        .choice("--protocol=NAME", primaryCfg.protocol, prof::protocols(),
                "what to run")
        .choice("--substrate=NAME", primaryCfg.substrate, allSubstrates,
                substrateFromString, "primary substrate")
        .choice("--baseline=NAME", baseline, allSubstrates,
                substrateFromString,
                "run a second time on this substrate and print the "
                "differential table")
        .toggle("--baseline", bareBaseline,
                "diff cm5 against the --substrate run (that "
                "substrate's column of the substrate x feature matrix)")
        .number("--words=N", primaryCfg.words, "transfer volume")
        .number("--nodes=N", primaryCfg.nodes, "machine size", 2)
        .number("--group-ack=G", primaryCfg.groupAck,
                "stream ack grouping")
        .text("--flame-out=FILE", flameOut,
              "write folded stacks (flamegraph.pl)")
        .text("--waterfall-out=FILE", waterfallOut,
              "write the latency waterfall text")
        .text("--json-out=FILE", jsonOut,
              "write the machine-readable report")
        .observability(obsOpts,
                       "Chrome trace-event timeline of the primary run, "
                       "with per-packet lineage flow arrows");
    flags.parse(argc, argv);

    Substrate baselineSub = baseline.value_or(Substrate::Cr);
    if (bareBaseline) {
        // Bare --baseline: the classic cm5 column is the primary and
        // the named substrate the baseline, so its saved overheads
        // read "vanishes" and its new costs read "appears".
        baselineSub = primaryCfg.substrate;
        primaryCfg.substrate = Substrate::Cm5;
    }
    const bool wantDiff = bareBaseline || baseline.has_value();

    obs::Scope scope(obsOpts);

    const prof::ProfRun primary = prof::runProfiled(primaryCfg);
    bool ok = primary.result.dataOk;

    std::printf("%s/%s: %llu paper instructions, %llu packets "
                "traced, %llu lineage edges\n",
                toString(primaryCfg.substrate),
                primaryCfg.protocol.c_str(),
                static_cast<unsigned long long>(
                    primary.result.counts.paperTotal()),
                static_cast<unsigned long long>(
                    primary.packetsTracked),
                static_cast<unsigned long long>(
                    primary.lineageEdges));
    std::printf("\n%s", primary.waterfall.render().c_str());

    if (!flameOut.empty())
        ok = cli::writeFile(kTool, flameOut, primary.folded,
                            "folded stacks") &&
             ok;
    if (!waterfallOut.empty())
        ok = cli::writeFile(kTool, waterfallOut,
                            primary.waterfall.render(), "waterfall") &&
             ok;

    Json report = Json::object();
    if (wantDiff) {
        // The baseline run gets a private timeline so the
        // --trace-out artifact stays a single-run trace.
        if (scope.tracing())
            scope.session()->detach();

        prof::ProfConfig baselineCfg = primaryCfg;
        baselineCfg.substrate = baselineSub;
        const prof::ProfRun baseline =
            prof::runProfiled(baselineCfg);
        ok = ok && baseline.result.dataOk;

        const prof::Differential diff = prof::differential(
            primaryCfg, primary, baselineCfg, baseline);
        std::printf("\n%s", diff.markdown().c_str());
        report = diff.toJson();
    } else {
        Json run = Json::object();
        run.set("protocol", primaryCfg.protocol);
        run.set("substrate", toString(primaryCfg.substrate));
        run.set("words", std::uint64_t(primaryCfg.words));
        run.set("paper_total",
                primary.result.counts.paperTotal());
        for (int fi = 0; fi < numPaperFeatures; ++fi) {
            const auto feat = static_cast<Feature>(fi);
            run.set(prof::featureSlug(feat),
                    primary.result.counts.featureTotal(feat));
        }
        if (primaryCfg.protocol == "wire")
            run.set(prof::featureSlug(Feature::Framing),
                    primary.result.counts.featureTotal(
                        Feature::Framing));
        report.set("run", std::move(run));
        report.set("waterfall", primary.waterfall.toJson());
    }
    if (!jsonOut.empty())
        ok = cli::writeFile(kTool, jsonOut, report.dump(2) + "\n",
                            "report") &&
             ok;

    if (!ok)
        std::fprintf(stderr, "msgsim-prof: FAILED (data integrity "
                             "or output error)\n");
    return scope.finish(ok ? 0 : 1);
}
