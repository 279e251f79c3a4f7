/**
 * @file
 * A socket-like ordered stream between two processes — the paper's
 * indefinite-sequence workload — run event-driven over a hostile
 * network: randomized latency (out-of-order arrivals), packet drops,
 * and corruption.  The protocol's sequence numbers, reorder buffer,
 * source buffering, acks, and retransmission timers deliver the
 * stream intact and in order anyway, and the instruction accounting
 * shows what that costs.
 *
 *   $ ./stream_channel [words] [dropRate%]
 *
 * A word count that is not a decimal multiple of 4, or a drop rate
 * that is not a decimal number in [0, 100], is a usage error (exit 2).
 */

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "lab/paper_tables.hh"
#include "protocols/stream.hh"
#include "sim/flag_table.hh"

using namespace msgsim;

int
main(int argc, char **argv)
{
    std::vector<std::string> args;
    cli::FlagTable flags("stream_channel",
                         "An ordered stream over a network that drops, "
                         "corrupts and reorders packets.");
    flags.positionals("WORDS DROP%", args,
                      "words to stream [512], drop rate in percent [5]");
    flags.parse(argc, argv);
    std::uint32_t words = 512;
    double dropPct = 5;
    if (args.size() > 2 ||
        (args.size() > 0 &&
         !cli::parseNumber(args[0], words, 1, UINT32_MAX)) ||
        words % 4 != 0 ||
        (args.size() > 1 && !cli::parseNumber(args[1], dropPct, 0, 100))) {
        std::fprintf(stderr, "stream_channel: WORDS must be a positive "
                             "decimal multiple of 4 and DROP%% a decimal "
                             "number in [0, 100]\n");
        return 2;
    }
    const double drop = dropPct / 100.0;

    StackConfig cfg;
    cfg.nodes = 2;
    cfg.memWords = 1u << 24;
    cfg.maxJitter = 30; // adaptive-routing-style delivery scrambling
    cfg.faults.dropRate = drop;
    cfg.faults.corruptRate = drop / 2;
    cfg.faults.seed = 7;
    Stack stack(cfg);
    StreamProtocol proto(stack);

    StreamParams p;
    p.words = words;
    p.eventMode = true;
    p.retxTimeout = 800;
    p.maxRetx = 4096;
    p.groupAck = 4;
    p.window = 16;

    std::printf("streaming %u words over a network with %0.1f%% drops, "
                "%0.1f%% corruption, and latency jitter...\n\n",
                words, drop * 100, drop * 50);
    const auto res = proto.run(p);

    const lab::ResultTable table{
        .name = "indefinite-sequence stream",
        .title = "feature breakdown (Table 2)",
        .columns = lab::featureColumns("words"),
        .rows = lab::featureRows(std::to_string(words), res.counts)};
    std::printf("%s\n", table.markdown().c_str());
    std::printf("packets:            %llu\n",
                static_cast<unsigned long long>(res.packets));
    std::printf("out-of-order:       %llu\n",
                static_cast<unsigned long long>(res.oooArrivals));
    std::printf("acks sent:          %llu\n",
                static_cast<unsigned long long>(res.acksSent));
    std::printf("retransmissions:    %llu\n",
                static_cast<unsigned long long>(res.retransmissions));
    std::printf("duplicates dropped: %llu\n",
                static_cast<unsigned long long>(res.duplicates));
    std::printf("simulated time:     %llu ticks\n",
                static_cast<unsigned long long>(res.elapsed));
    std::printf("delivered in order: %s\n",
                res.dataOk ? "yes — byte-exact" : "NO (bug!)");
    std::printf("\nnetwork saw: %llu injected, %llu dropped, %llu "
                "corrupted (CRC-discarded at the NI)\n",
                static_cast<unsigned long long>(
                    stack.network().stats().injected),
                static_cast<unsigned long long>(
                    stack.network().stats().dropped),
                static_cast<unsigned long long>(
                    stack.network().stats().corrupted));
    return res.dataOk ? 0 : 1;
}
