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
#include <cstdlib>
#include <cstring>
#include <string>

#include "lab/reporter.hh"
#include "lab/result_table.hh"
#include "model/traffic_model.hh"
#include "sim/obs_cli.hh"
#include "traffic/engine.hh"

namespace
{

using namespace msgsim;

struct Options
{
    std::string pattern = "incast";
    std::string proto = "am";
    std::string substrate = "cm5";
    std::uint32_t nodes = 16;
    std::uint32_t msgs = 8;
    std::uint32_t size = 2;
    double hot = 0.5;
    std::uint64_t seed = 1;
    std::uint64_t jitter = 0;
    std::uint64_t injectGap = 0;
    std::uint64_t deliverGap = 0;
    bool predict = false;
    bool quiet = false;
    std::string jsonOut;
};

void
usage(std::FILE *to)
{
    std::fputs(
        "usage: msgsim-traffic [options]\n"
        "\n"
        "  --pattern=<p>      uniform | permutation | hotspot | ring |\n"
        "                     transpose | incast | alltoall  [incast]\n"
        "  --protocol=<p>     am | seq | acked               [am]\n"
        "  --substrate=<s>    cm5 | cr | rdma | nicam        [cm5]\n"
        "  --nodes=<n>        machine size                   [16]\n"
        "  --msgs=<n>         messages per node              [8]\n"
        "  --size=<w>         payload words per message      [2]\n"
        "  --hot=<f>          hotspot fraction               [0.5]\n"
        "  --seed=<n>         pattern / payload seed         [1]\n"
        "  --jitter=<t>       cm5/nicam routing jitter       [0]\n"
        "  --inject-gap=<t>   ticks between injections       [0]\n"
        "  --deliver-gap=<t>  delivery pacing at the sink    [0]\n"
        "  --predict          gate measured against the analytic\n"
        "                     predictor; exit 1 on drift\n"
        "  --quiet            suppress the stdout tables\n"
        "  --json-out=<file>  write the run table as JSON\n"
        "  --trace-out=<file>, --metrics-out=<file>  (observability)\n",
        to);
}

bool
eat(const std::string &arg, const char *key, std::string &out)
{
    const std::size_t n = std::strlen(key);
    if (arg.compare(0, n, key) != 0)
        return false;
    out = arg.substr(n);
    return true;
}

bool
parse(int argc, char **argv, Options &opt)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        std::string v;
        if (arg == "--help" || arg == "-h") {
            usage(stdout);
            std::exit(0);
        } else if (arg == "--predict") {
            opt.predict = true;
        } else if (arg == "--quiet") {
            opt.quiet = true;
        } else if (eat(arg, "--pattern=", opt.pattern) ||
                   eat(arg, "--protocol=", opt.proto) ||
                   eat(arg, "--substrate=", opt.substrate) ||
                   eat(arg, "--json-out=", opt.jsonOut)) {
        } else if (eat(arg, "--nodes=", v)) {
            opt.nodes = static_cast<std::uint32_t>(std::stoul(v));
        } else if (eat(arg, "--msgs=", v)) {
            opt.msgs = static_cast<std::uint32_t>(std::stoul(v));
        } else if (eat(arg, "--size=", v)) {
            opt.size = static_cast<std::uint32_t>(std::stoul(v));
        } else if (eat(arg, "--hot=", v)) {
            opt.hot = std::stod(v);
        } else if (eat(arg, "--seed=", v)) {
            opt.seed = std::stoull(v);
        } else if (eat(arg, "--jitter=", v)) {
            opt.jitter = std::stoull(v);
        } else if (eat(arg, "--inject-gap=", v)) {
            opt.injectGap = std::stoull(v);
        } else if (eat(arg, "--deliver-gap=", v)) {
            opt.deliverGap = std::stoull(v);
        } else {
            std::fprintf(stderr, "msgsim-traffic: unknown flag '%s'\n",
                         arg.c_str());
            usage(stderr);
            return false;
        }
    }
    return true;
}

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
    auto obsOpts = obs::parseArgs(argc, argv);
    obs::Scope scope(obsOpts);

    Options opt;
    if (!parse(argc, argv, opt))
        return 2;

    TrafficSpec spec;
    if (!patternFromString(opt.pattern, spec.pattern)) {
        std::fprintf(stderr, "msgsim-traffic: unknown pattern '%s'\n",
                     opt.pattern.c_str());
        return 2;
    }
    if (!protoFromString(opt.proto, spec.proto)) {
        std::fprintf(stderr, "msgsim-traffic: unknown protocol '%s'\n",
                     opt.proto.c_str());
        return 2;
    }
    Substrate substrate;
    if (!substrateFromString(opt.substrate, substrate)) {
        std::fprintf(stderr,
                     "msgsim-traffic: unknown substrate '%s'\n",
                     opt.substrate.c_str());
        return 2;
    }
    spec.nodes = opt.nodes;
    spec.messagesPerNode = opt.msgs;
    spec.sizeWords = opt.size;
    spec.hotFraction = opt.hot;
    spec.seed = opt.seed;
    spec.maxJitter = opt.jitter;
    spec.injectGap = opt.injectGap;
    spec.deliverGap = opt.deliverGap;

    Stack stack(trafficStackConfig(spec, substrate));
    scope.bindClock(stack.sim());
    TrafficEngine engine(stack);

    const TrafficResult res = engine.run(spec);
    scope.collect(stack.sim(), "sim");

    lab::ResultTable t;
    t.name = "traffic";
    t.title = "Traffic run: " + opt.pattern + " / " + opt.proto +
              " on " + opt.substrate;
    t.columns = {"substrate", "pattern",  "protocol", "nodes",
                 "msgs/node", "frags",    "polls",    "ooo",
                 "acks",      "ticks",    "instr/node", "max/mean",
                 "hw retries", "lat p50",  "lat p95",  "lat p99",
                 "ok"};
    const Histogram lat = res.latencyHistogram(0).total();
    t.addRow({lab::Cell::text(opt.substrate),
              lab::Cell::text(opt.pattern),
              lab::Cell::text(opt.proto),
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
    if (!opt.quiet)
        std::fputs(t.markdown().c_str(), stdout);

    bool gateOk = res.ok;
    if (opt.predict) {
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
        if (!opt.quiet) {
            std::fputs("\n", stdout);
            std::fputs(pt.markdown().c_str(), stdout);
            std::printf("\npredicted total %.0f, measured total "
                        "%.0f\n",
                        pred.grandTotal(),
                        res.measuredGrandTotal());
        }
    }

    if (!opt.jsonOut.empty())
        lab::Reporter::writeFile(opt.jsonOut, t.jsonText());

    if (!res.ok)
        std::fprintf(stderr, "msgsim-traffic: run FAILED "
                             "(delivery/verification)\n");
    else if (!gateOk)
        std::fprintf(stderr, "msgsim-traffic: predicted-vs-measured "
                             "DRIFT\n");
    return gateOk ? 0 : 1;
}
