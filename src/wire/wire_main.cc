/**
 * @file
 * msgsim-wire: run the canonical multi-stream wire workload on any
 * substrate and report the wire-layer bill.
 *
 *     msgsim-wire --substrate=rdma --streams=4 --frames=8
 *
 * The table shows the framing feature's instruction cost next to the
 * classic four, plus the mux counters (window stalls, wire acks, CRC
 * rejects when --corrupt-every is set).
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "lab/reporter.hh"
#include "lab/result_table.hh"
#include "protocols/stack.hh"
#include "sim/obs_cli.hh"
#include "wire/wire_run.hh"

namespace
{

using namespace msgsim;

struct Options
{
    std::string substrate = "cm5";
    std::uint32_t nodes = 4;
    std::uint32_t streams = 4;
    std::uint32_t frames = 8;
    std::uint32_t size = 6;
    std::uint32_t window = 4;
    std::uint32_t groupAck = 4;
    std::uint32_t ackEvery = 1;
    std::uint32_t corruptEvery = 0;
    std::uint64_t seed = 0x5eedf00dULL;
    bool quiet = false;
    std::string jsonOut;
};

void
usage(std::FILE *to)
{
    std::fputs(
        "usage: msgsim-wire [options]\n"
        "\n"
        "  --substrate=<s>      cm5 | cr | rdma | nicam      [cm5]\n"
        "  --nodes=<n>          machine size                 [4]\n"
        "  --streams=<n>        concurrent logical streams   [4]\n"
        "  --frames=<n>         DATA frames per stream       [8]\n"
        "  --size=<w>           payload words per frame      [6]\n"
        "  --window=<n>         per-stream sliding window    [4]\n"
        "  --group-ack=<n>      underlying hw group ack      [4]\n"
        "  --ack-every=<n>      wire acks per N frames       [1]\n"
        "  --corrupt-every=<n>  CRC-corrupt every Nth DATA\n"
        "                       frame (0 = off)              [0]\n"
        "  --seed=<n>           payload fill seed\n"
        "  --quiet              suppress the stdout table\n"
        "  --json-out=<file>    write the run table as JSON\n"
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
        } else if (arg == "--quiet") {
            opt.quiet = true;
        } else if (eat(arg, "--substrate=", opt.substrate) ||
                   eat(arg, "--json-out=", opt.jsonOut)) {
        } else if (eat(arg, "--nodes=", v)) {
            opt.nodes = static_cast<std::uint32_t>(std::stoul(v));
        } else if (eat(arg, "--streams=", v)) {
            opt.streams = static_cast<std::uint32_t>(std::stoul(v));
        } else if (eat(arg, "--frames=", v)) {
            opt.frames = static_cast<std::uint32_t>(std::stoul(v));
        } else if (eat(arg, "--size=", v)) {
            opt.size = static_cast<std::uint32_t>(std::stoul(v));
        } else if (eat(arg, "--window=", v)) {
            opt.window = static_cast<std::uint32_t>(std::stoul(v));
        } else if (eat(arg, "--group-ack=", v)) {
            opt.groupAck = static_cast<std::uint32_t>(std::stoul(v));
        } else if (eat(arg, "--ack-every=", v)) {
            opt.ackEvery = static_cast<std::uint32_t>(std::stoul(v));
        } else if (eat(arg, "--corrupt-every=", v)) {
            opt.corruptEvery =
                static_cast<std::uint32_t>(std::stoul(v));
        } else if (eat(arg, "--seed=", v)) {
            opt.seed = std::stoull(v);
        } else {
            std::fprintf(stderr, "msgsim-wire: unknown flag '%s'\n",
                         arg.c_str());
            usage(stderr);
            return false;
        }
    }
    return true;
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

    Substrate substrate;
    if (!substrateFromString(opt.substrate, substrate)) {
        std::fprintf(stderr, "msgsim-wire: unknown substrate '%s'\n",
                     opt.substrate.c_str());
        return 2;
    }
    if (opt.window == 0 || opt.window > 255) {
        std::fprintf(stderr, "msgsim-wire: window must be 1..255\n");
        return 2;
    }

    StackConfig cfg;
    cfg.substrate = substrate;
    cfg.nodes = opt.nodes < 2 ? 2 : opt.nodes;
    Stack stack(cfg);
    scope.bindClock(stack.sim());

    wire::WireWorkload w;
    w.streams = opt.streams;
    w.framesPerStream = opt.frames;
    w.payloadWords = opt.size;
    w.window = static_cast<std::uint8_t>(opt.window);
    w.groupAck = static_cast<int>(opt.groupAck);
    w.ackEvery = opt.ackEvery;
    w.corruptEvery = opt.corruptEvery;
    w.fillSeed = opt.seed;

    const wire::WireRunResult res = wire::runWireWorkload(stack, w);
    scope.collect(stack.sim(), "sim");

    lab::ResultTable t;
    t.name = "wire";
    t.title = "Wire workload: " + std::to_string(opt.streams) +
              " streams x " + std::to_string(opt.frames) +
              " frames on " + opt.substrate;
    t.columns = {"substrate", "streams",  "frames",    "delivered",
                 "wire acks", "retx",     "crc rej",   "stalls",
                 "framed B",  "framing",  "base",      "buffer",
                 "inorder",   "fault",    "total",     "ticks",
                 "ok"};
    const BreakdownCounter &c = res.run.counts;
    t.addRow({lab::Cell::text(opt.substrate),
              lab::Cell::integer(opt.streams),
              lab::Cell::integer(res.wire.dataFrames),
              lab::Cell::integer(res.wire.dataDelivered),
              lab::Cell::integer(res.wire.wireAcks),
              lab::Cell::integer(res.wire.wireRetransmits),
              lab::Cell::integer(res.crcRejects),
              lab::Cell::integer(res.wire.windowStalls),
              lab::Cell::integer(res.wire.framedBytes),
              lab::Cell::integer(c.featureTotal(Feature::Framing)),
              lab::Cell::integer(c.featureTotal(Feature::BaseCost)),
              lab::Cell::integer(c.featureTotal(Feature::BufferMgmt)),
              lab::Cell::integer(
                  c.featureTotal(Feature::InOrderDelivery)),
              lab::Cell::integer(
                  c.featureTotal(Feature::FaultTolerance)),
              lab::Cell::integer(c.paperTotal() +
                                 c.featureTotal(Feature::Framing)),
              lab::Cell::integer(res.run.elapsed),
              lab::Cell::text(res.run.dataOk ? "ok" : "FAIL")});
    t.notes = {"'framing' is the Feature::Framing bill the wire layer "
               "adds on top of the classic four (docs/WIRE.md); "
               "'total' includes it."};
    if (!opt.quiet)
        std::fputs(t.markdown().c_str(), stdout);

    if (!opt.jsonOut.empty())
        lab::Reporter::writeFile(opt.jsonOut, t.jsonText());

    if (!res.run.dataOk)
        std::fprintf(stderr,
                     "msgsim-wire: run FAILED (delivery check)\n");
    return res.run.dataOk ? 0 : 1;
}
