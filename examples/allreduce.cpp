/**
 * @file
 * Global sum across a whole machine — the "coordinate their efforts"
 * workload of the paper's introduction, expressed with the
 * collectives library (dissemination barrier, binomial broadcast and
 * combining trees) on top of active messages.
 *
 *   $ ./allreduce [nodes]
 *
 * A node count that is not a decimal integer in [1, 1024] is a usage
 * error (exit 2).
 */

#include <cstdio>
#include <string>
#include <vector>

#include "coll/collectives.hh"
#include "sim/flag_table.hh"
#include "sim/rng.hh"

using namespace msgsim;

int
main(int argc, char **argv)
{
    std::vector<std::string> args;
    cli::FlagTable flags("allreduce",
                         "Global sum across the machine with the "
                         "collectives library.");
    flags.positionals("NODES", args, "machine size [16]");
    flags.parse(argc, argv);
    std::uint32_t nodes = 16;
    if (args.size() > 1 ||
        (!args.empty() && !cli::parseNumber(args[0], nodes, 1, 1024))) {
        std::fprintf(stderr, "allreduce: NODES must be one decimal "
                             "integer in [1, 1024]\n");
        return 2;
    }

    StackConfig cfg;
    cfg.nodes = nodes;
    cfg.maxJitter = 10; // a little delivery-order chaos, why not
    Stack stack(cfg);
    Collectives coll(stack);

    // Every node contributes a pseudo-random local result.
    std::vector<Word> local(nodes);
    Rng rng(2026);
    Word expect = 0;
    for (auto &v : local) {
        v = static_cast<Word>(rng.below(10000));
        expect += v;
    }

    std::printf("allreduce(sum) across %u nodes...\n", nodes);
    std::vector<Word> result;
    const auto res =
        coll.allReduce(Collectives::ReduceOp::Sum, local, result);
    if (!res.ok) {
        std::printf("FAILED to complete\n");
        return 1;
    }
    bool agree = true;
    for (Word v : result)
        agree = agree && v == expect;
    std::printf("  result on every node: %u (%s)\n", result[0],
                agree ? "all agree, correct" : "MISMATCH");
    std::printf("  messages:             %llu\n",
                static_cast<unsigned long long>(res.messages));
    std::printf("  total instructions:   %llu (%.1f per node)\n",
                static_cast<unsigned long long>(res.instructions),
                static_cast<double>(res.instructions) / nodes);
    std::printf("  simulated time:       %llu ticks\n",
                static_cast<unsigned long long>(res.elapsed));

    const auto bar = coll.barrier();
    std::printf("\nbarrier: %llu messages, %.1f instructions per "
                "node, %llu ticks\n",
                static_cast<unsigned long long>(bar.messages),
                static_cast<double>(bar.instructions) / nodes,
                static_cast<unsigned long long>(bar.elapsed));
    return agree ? 0 : 1;
}
