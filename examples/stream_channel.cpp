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
 */

#include <cstdio>
#include <cstdlib>

#include "lab/paper_tables.hh"
#include "protocols/stream.hh"

using namespace msgsim;

int
main(int argc, char **argv)
{
    std::uint32_t words = 512;
    double drop = 0.05;
    if (argc > 1)
        words = static_cast<std::uint32_t>(std::atoi(argv[1]));
    if (argc > 2)
        drop = std::atof(argv[2]) / 100.0;
    if (words == 0 || words % 4 != 0) {
        std::fprintf(stderr, "words must be a positive multiple of 4\n");
        return 1;
    }

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
