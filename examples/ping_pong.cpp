/**
 * @file
 * Classic ping-pong over the tag-matched message-passing library
 * (the CMMD/MPI-style layer built on CMAM) — the canonical
 * point-to-point microbenchmark of message-passing machines.
 * Reports per-round-trip software instruction cost and simulated
 * latency versus message size, on both substrates' cost models.
 *
 *   $ ./ping_pong [rounds] [--trace-out=trace.json]
 *                          [--metrics-out=metrics.json]
 *
 * A round count that is not a decimal integer >= 1 is a usage error
 * (exit 2), as is any flag but those two.
 */

#include <climits>
#include <cstdio>
#include <string>
#include <vector>

#include "core/cost_model.hh"
#include "msglib/msg_passing.hh"
#include "net/tracer.hh"
#include "sim/flag_table.hh"

using namespace msgsim;

int
main(int argc, char **argv)
{
    std::vector<std::string> args;
    obs::Options obsOpts;
    cli::FlagTable flags("ping_pong",
                         "Round trips over the tag-matched "
                         "message-passing library, per message size.");
    flags.positionals("ROUNDS", args, "round trips per size [8]")
        .observability(obsOpts);
    flags.parse(argc, argv);
    int rounds = 8;
    if (args.size() > 1 ||
        (!args.empty() && !cli::parseNumber(args[0], rounds, 1, INT_MAX))) {
        std::fprintf(stderr, "ping_pong: ROUNDS must be one decimal "
                             "integer >= 1\n");
        return 2;
    }
    obs::Scope scope(obsOpts);

    // One tracer bridges the hardware events of every stack below.
    PacketTracer tracer(1u << 14);
    if (scope.tracing()) {
        tracer.attach();
        attachTraceBridge(tracer, *scope.session());
    }

    std::printf("%8s  %14s  %14s  %12s\n", "words",
                "instr/roundtrip", "cycles(dev=5)", "sim ticks");
    for (std::uint32_t words : {4u, 16u, 64u, 256u, 1024u}) {
        StackConfig cfg;
        cfg.nodes = 2;
        cfg.memWords = 1u << 24;
        Stack stack(cfg);
        // One stack per message size: rebind the trace clock.
        scope.bindClock(stack.sim());
        MsgPassing mp(stack);
        Node &a = stack.node(0);
        Node &b = stack.node(1);
        const Addr abuf = a.mem().alloc(words);
        const Addr bbuf = b.mem().alloc(words);
        for (std::uint32_t i = 0; i < words; ++i)
            a.mem().write(abuf + i, i);

        const std::uint64_t i0 = a.acct().counter().paperTotal() +
                                 b.acct().counter().paperTotal();
        const Tick t0 = stack.sim().now();
        bool ok = true;
        for (int r = 0; r < rounds && ok; ++r) {
            // ping: 0 -> 1
            auto rh = mp.postRecv(1, bbuf, words, 1);
            auto sh = mp.send(0, 1, abuf, words, 1);
            ok = mp.waitSend(sh) && mp.recvDone(rh);
            // pong: 1 -> 0
            auto rh2 = mp.postRecv(0, abuf, words, 2);
            auto sh2 = mp.send(1, 0, bbuf, words, 2);
            ok = ok && mp.waitSend(sh2) && mp.recvDone(rh2);
        }
        const std::uint64_t instr =
            (a.acct().counter().paperTotal() +
             b.acct().counter().paperTotal() - i0) /
            static_cast<std::uint64_t>(rounds);
        const double ticks =
            static_cast<double>(stack.sim().now() - t0) / rounds;

        // Cycle estimate under the Appendix A CM-5 weighting.
        BreakdownCounter bd;
        bd.src = a.acct().counter();
        bd.dst = b.acct().counter();
        const double cycles =
            CostModel::cm5().cycles(bd) / rounds;
        std::printf("%8u  %14llu  %14.0f  %12.0f%s\n", words,
                    static_cast<unsigned long long>(instr), cycles,
                    ticks, ok ? "" : "  [FAILED]");
        scope.collect(stack.sim(), "sim.w" + std::to_string(words));
    }
    std::printf("\neach round trip = 2 x (rendezvous handshake + "
                "offset-stamped data + end-to-end ack) on the "
                "CMAM/CM-5 stack\n");
    return 0;
}
