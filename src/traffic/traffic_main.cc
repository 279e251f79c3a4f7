/**
 * @file
 * msgsim-traffic: run one declarative traffic scenario on any
 * substrate and (optionally) gate the run against the compositional
 * analytic predictor.
 *
 *     msgsim-traffic --pattern=incast --substrate=rdma --predict
 *
 * With --predict the tool prints the predicted-vs-measured
 * per-feature bill and exits 1 on any disagreement — the same
 * golden-free gate lab experiment W1 applies across the full grid.
 */

#include <cmath>
#include <cstdio>
#include <string>

#include "lab/result_table.hh"
#include "model/traffic_model.hh"
#include "sim/flag_table.hh"
#include "traffic/engine.hh"

namespace
{

using namespace msgsim;

constexpr const char *kTool = "msgsim-traffic";

/** Predicted-vs-measured comparison with an exact-intent tolerance. */
bool
agree(double predicted, double measured)
{
    const double diff = std::fabs(predicted - measured);
    const double scale =
        std::max(1.0, std::max(std::fabs(predicted),
                               std::fabs(measured)));
    return diff <= 1e-9 * scale;
}

} // namespace

int
main(int argc, char **argv)
{
    TrafficSpec spec;
    std::string pattern = "incast"; // as given, for the run table
    Substrate substrate = Substrate::Cm5;
    bool predict = false, quiet = false;
    std::string jsonOut;
    obs::Options obsOpts;

    cli::FlagTable flags(
        kTool, "Run one declarative traffic scenario on any substrate; "
               "with --predict, gate it against the analytic predictor.");
    flags
        .choice("--pattern=NAME", pattern, allTrafficPatterns,
                patternFromString, "destination pattern")
        .choice("--protocol=NAME", spec.proto, allTrafficProtos,
                protoFromString, "per-message protocol")
        .choice("--substrate=NAME", substrate, allSubstrates,
                substrateFromString, "routing substrate")
        .number("--nodes=N", spec.nodes, "machine size", 2,
                maxTrafficNodes)
        .number("--msgs=N", spec.messagesPerNode, "messages per node", 1)
        .number("--size=W", spec.sizeWords, "payload words per message")
        .number("--hot=F", spec.hotFraction, "hotspot fraction")
        .number("--seed=N", spec.seed, "pattern / payload seed")
        .number("--jitter=T", spec.maxJitter, "cm5/nicam routing jitter")
        .number("--inject-gap=T", spec.injectGap,
                "ticks between injections")
        .number("--deliver-gap=T", spec.deliverGap,
                "delivery pacing at the sink")
        .toggle("--predict", predict,
                "gate measured against the analytic predictor; exit 1 "
                "on drift")
        .toggle("--quiet", quiet, "suppress the stdout tables")
        .text("--json-out=FILE", jsonOut, "write the run table as JSON")
        .observability(obsOpts);
    flags.parse(argc, argv);
    patternFromString(pattern, spec.pattern); // the table accepted it
    obs::Scope scope(obsOpts);

    Stack stack(trafficStackConfig(spec, substrate));
    scope.bindClock(stack.sim());
    TrafficEngine engine(stack);

    const TrafficResult res = engine.run(spec);
    scope.collect(stack.sim(), "sim");

    lab::ResultTable t;
    t.name = "traffic";
    t.title = "Traffic run: " + pattern + " / " + toString(spec.proto) +
              " on " + toString(substrate);
    t.columns = {"substrate", "pattern",  "protocol", "nodes",
                 "msgs/node", "frags",    "polls",    "ooo",
                 "acks",      "ticks",    "instr/node", "max/mean",
                 "hw retries", "lat p50",  "lat p95",  "lat p99",
                 "ok"};
    const Histogram lat = res.latencyHistogram(0).total();
    t.addRow({lab::Cell::text(toString(substrate)),
              lab::Cell::text(pattern),
              lab::Cell::text(toString(spec.proto)),
              lab::Cell::integer(spec.nodes),
              lab::Cell::integer(spec.messagesPerNode),
              lab::Cell::integer(res.shape.fragmentsSent),
              lab::Cell::integer(res.shape.polls),
              lab::Cell::integer(res.shape.ooo),
              lab::Cell::integer(res.shape.acksSent),
              lab::Cell::integer(res.elapsed),
              lab::Cell::real(res.perNodeInstr.mean()),
              lab::Cell::real(res.maxOverMean),
              lab::Cell::integer(res.hwRetries),
              lab::Cell::real(lat.percentile(50)),
              lab::Cell::real(lat.percentile(95)),
              lab::Cell::real(lat.percentile(99)),
              lab::Cell::text(res.ok ? "ok" : "FAIL")});
    if (!quiet)
        std::fputs(t.markdown().c_str(), stdout);

    bool gateOk = res.ok;
    if (predict) {
        const TrafficPrediction pred = predictTraffic(res.shape);
        lab::ResultTable pt;
        pt.name = "traffic-predict";
        pt.title = "Predicted vs measured per-feature bill "
                   "(reg/mem/dev)";
        pt.columns = {"feature", "category", "predicted", "measured",
                      "status"};
        for (int f = 0; f < numPaperFeatures; ++f) {
            const CatCost &p = pred.feature[f];
            const CatCost &m = res.measured[f];
            const double pv[3] = {p.reg, p.mem, p.dev};
            const double mv[3] = {m.reg, m.mem, m.dev};
            static const char *kCat[3] = {"reg", "mem", "dev"};
            for (int c = 0; c < 3; ++c) {
                const bool ok = agree(pv[c], mv[c]);
                gateOk = gateOk && ok;
                pt.addRow({lab::Cell::text(toString(
                               static_cast<Feature>(f))),
                           lab::Cell::text(kCat[c]),
                           lab::Cell::real(pv[c]),
                           lab::Cell::real(mv[c]),
                           lab::Cell::text(ok ? "ok" : "DRIFT")});
            }
        }
        if (!quiet) {
            std::fputs("\n", stdout);
            std::fputs(pt.markdown().c_str(), stdout);
            std::printf("\npredicted total %.0f, measured total "
                        "%.0f\n",
                        pred.grandTotal(),
                        res.measuredGrandTotal());
        }
    }

    const bool written =
        jsonOut.empty() || cli::writeFile(kTool, jsonOut, t.jsonText());

    if (!res.ok)
        std::fprintf(stderr, "msgsim-traffic: run FAILED "
                             "(delivery/verification)\n");
    else if (!gateOk)
        std::fprintf(stderr, "msgsim-traffic: predicted-vs-measured "
                             "DRIFT\n");
    return scope.finish(gateOk && written ? 0 : 1);
}
