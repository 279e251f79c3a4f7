/**
 * @file
 * Bulk memory-to-memory transfer — the workload that motivates the
 * paper's finite-sequence protocol.  Moves a buffer from node 0 to
 * node 1 twice with one FiniteXfer engine: once over the CMAM/CM-5
 * stack (handshake + offsets + ack) and once over the
 * high-level-features stack (just send it), then compares the bills.
 *
 *   $ ./bulk_transfer [words] [--trace-out=trace.json]
 *                             [--metrics-out=metrics.json]
 *
 * With --trace-out the run records cross-layer spans (protocol
 * steps, CMAM send/poll, NI events) plus the hardware packet events
 * from a PacketTracer bridged onto the same timeline, and writes a
 * Chrome trace-event JSON loadable in Perfetto.  A word count that
 * is not a decimal multiple of 4 is a usage error (exit 2), as is
 * any flag but those two.
 */

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "lab/paper_tables.hh"
#include "net/tracer.hh"
#include "protocols/finite_xfer.hh"
#include "sim/flag_table.hh"

using namespace msgsim;

int
main(int argc, char **argv)
{
    std::vector<std::string> args;
    obs::Options obsOpts;
    cli::FlagTable flags("bulk_transfer",
                         "Move a buffer from node 0 to node 1 on the "
                         "CMAM/CM-5 stack and on the high-level-features "
                         "stack, and compare the bills.");
    flags.positionals("WORDS", args, "words to move [1024]")
        .observability(obsOpts);
    flags.parse(argc, argv);
    std::uint32_t words = 1024;
    if (args.size() > 1 ||
        (!args.empty() &&
         !cli::parseNumber(args[0], words, 1, UINT32_MAX)) ||
        words % 4 != 0) {
        std::fprintf(stderr, "bulk_transfer: WORDS must be one positive "
                             "decimal multiple of 4\n");
        return 2;
    }

    std::printf("bulk transfer of %u words (%u packets)\n\n", words,
                words / 4);

    obs::Scope scope(obsOpts);

    // One run's bill as Table 2's feature breakdown, then its integrity.
    auto report = [words](const char *name, const char *title,
                          const RunResult &res) {
        const lab::ResultTable table{
            .name = name,
            .title = title,
            .columns = lab::featureColumns("words"),
            .rows = lab::featureRows(std::to_string(words), res.counts)};
        std::printf("%sintegrity: %s\n\n", table.markdown().c_str(),
                    res.dataOk ? "ok" : "FAILED");
    };

    // One tracer records the hardware events of both stacks' networks
    // (it observes every network driven on this thread).
    PacketTracer tracer(1u << 14);
    if (scope.tracing()) {
        tracer.attach();
        attachTraceBridge(tracer, *scope.session());
    }

    // --- CMAM on the CM-5-like network --------------------------
    StackConfig cfg;
    cfg.nodes = 2;
    cfg.memWords = 1u << 24;
    Stack cm5(cfg);
    scope.bindClock(cm5.sim());
    FiniteXfer proto(cm5);
    FiniteXferParams p;
    p.words = words;
    const auto rc = proto.run(p);
    report("CMAM finite-sequence protocol",
           "6 steps: request, allocate, reply, data, free, ack", rc);
    scope.collect(cm5.sim(), "sim.cm5");
    for (NodeId id = 0; id < 2; ++id)
        cm5.node(id).ni().publishMetrics(scope.metrics(), "ni.cm5");

    // --- High-level features on the CR network ------------------
    StackConfig hcfg = stackConfigFor(HostLayer::Hl);
    hcfg.nodes = 2;
    hcfg.memWords = 1u << 24;
    Stack hl(hcfg);
    // The second stack has its own simulator: rebind the trace clock
    // so its spans stay on a consistent timeline.
    scope.bindClock(hl.sim());
    const auto rh = FiniteXfer(hl).run(p);
    report("High-level-features protocol",
           "just inject; the header packet sizes the buffer", rh);
    scope.collect(hl.sim(), "sim.hl");
    for (NodeId id = 0; id < 2; ++id)
        hl.node(id).ni().publishMetrics(scope.metrics(), "ni.hl");

    const double imp =
        1.0 - static_cast<double>(rh.counts.paperTotal()) /
                  static_cast<double>(rc.counts.paperTotal());
    std::printf("software instructions saved by in-order + "
                "flow-controlled + reliable hardware: %.1f%%\n",
                imp * 100.0);
    return 0;
}
