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

#include <algorithm>
#include <cstdio>
#include <string>

#include "lab/result_table.hh"
#include "protocols/stack.hh"
#include "sim/flag_table.hh"
#include "wire/mux.hh"
#include "wire/wire_run.hh"

namespace
{

using namespace msgsim;

constexpr const char *kTool = "msgsim-wire";

} // namespace

int
main(int argc, char **argv)
{
    StackConfig cfg;
    wire::WireWorkload w;
    bool quiet = false;
    std::string jsonOut;
    obs::Options obsOpts;

    cli::FlagTable flags(kTool,
                         "Run the canonical multi-stream wire workload on "
                         "any substrate and report the wire-layer bill.");
    flags
        .choice("--substrate=NAME", cfg.substrate, allSubstrates,
                substrateFromString, "routing substrate")
        .number("--nodes=N", cfg.nodes, "machine size (below 2 runs 2)")
        .number("--streams=N", w.streams, "concurrent logical streams", 1)
        .number("--frames=N", w.framesPerStream, "DATA frames per stream",
                1)
        .number("--size=W", w.payloadWords, "payload words per frame", 1,
                wire::StreamMux::maxPayloadWords)
        .number("--window=N", w.window, "per-stream sliding window", 1,
                255)
        .number("--group-ack=N", w.groupAck, "underlying hw group ack", 0)
        .number("--ack-every=N", w.ackEvery, "wire acks per N frames")
        .number("--corrupt-every=N", w.corruptEvery,
                "CRC-corrupt every Nth DATA frame (0 = off)")
        .number("--seed=N", w.fillSeed, "payload fill seed")
        .toggle("--quiet", quiet, "suppress the stdout table")
        .text("--json-out=FILE", jsonOut, "write the run table as JSON")
        .observability(obsOpts);
    flags.parse(argc, argv);
    cfg.nodes = std::max<std::uint32_t>(cfg.nodes, 2);

    obs::Scope scope(obsOpts);
    Stack stack(cfg);
    scope.bindClock(stack.sim());

    const wire::WireRunResult res = wire::runWireWorkload(stack, w);
    scope.collect(stack.sim(), "sim");

    lab::ResultTable t;
    t.name = "wire";
    t.title = "Wire workload: " + std::to_string(w.streams) +
              " streams x " + std::to_string(w.framesPerStream) +
              " frames on " + toString(cfg.substrate);
    t.columns = {"substrate", "streams",  "frames",    "delivered",
                 "wire acks", "retx",     "crc rej",   "stalls",
                 "framed B",  "framing",  "base",      "buffer",
                 "inorder",   "fault",    "total",     "ticks",
                 "ok"};
    const BreakdownCounter &c = res.run.counts;
    t.addRow({lab::Cell::text(toString(cfg.substrate)),
              lab::Cell::integer(w.streams),
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
    if (!quiet)
        std::fputs(t.markdown().c_str(), stdout);

    const bool written =
        jsonOut.empty() || cli::writeFile(kTool, jsonOut, t.jsonText());

    if (!res.run.dataOk)
        std::fprintf(stderr,
                     "msgsim-wire: run FAILED (delivery check)\n");
    return scope.finish(res.run.dataOk && written ? 0 : 1);
}
