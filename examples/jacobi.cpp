/**
 * @file
 * A real message-passing application: 1-D Jacobi relaxation (heat
 * diffusion) partitioned across the machine — the "C or FORTRAN and
 * message passing" workload of the paper's §2.1, exercising the whole
 * stack end to end:
 *
 *  - per-iteration halo exchange with the tag-matched
 *    rendezvous library (msglib),
 *  - global residual via the collectives' allreduce,
 *  - fixed-point arithmetic in node memory (every value lives in the
 *    simulated machine, not the host).
 *
 * Prints the residual as it converges and the messaging bill the
 * application paid for it.
 *
 *   $ ./jacobi [nodes] [cellsPerNode] [iterations]
 *
 * A count that is not a decimal integer in its range (nodes 1..1024,
 * cells 1..2^20, iterations >= 1) is a usage error (exit 2).
 */

#include <climits>
#include <cstdio>
#include <string>
#include <vector>

#include "coll/collectives.hh"
#include "msglib/msg_passing.hh"
#include "sim/flag_table.hh"

using namespace msgsim;

namespace
{

/// Fixed-point scale: values are stored as value * 2^16.
constexpr Word fxOne = 1u << 16;

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> args;
    cli::FlagTable flags("jacobi",
                         "1-D Jacobi relaxation partitioned across the "
                         "machine: a halo exchange and an allreduce per "
                         "iteration.");
    flags.positionals("NODES CELLS ITERATIONS", args,
                      "machine size [8], interior cells per node [64], "
                      "iterations [30]");
    flags.parse(argc, argv);
    std::uint32_t nodes = 8;
    std::uint32_t cells = 64; // interior cells per node
    int iterations = 30;
    if (args.size() > 3 ||
        (args.size() > 0 && !cli::parseNumber(args[0], nodes, 1, 1024)) ||
        (args.size() > 1 &&
         !cli::parseNumber(args[1], cells, 1, 1u << 20)) ||
        (args.size() > 2 &&
         !cli::parseNumber(args[2], iterations, 1, INT_MAX))) {
        std::fprintf(stderr, "jacobi: NODES must be a decimal integer in "
                             "[1, 1024], CELLS in [1, 1048576] and "
                             "ITERATIONS >= 1\n");
        return 2;
    }

    StackConfig cfg;
    cfg.nodes = nodes;
    cfg.memWords = 1u << 22;
    Stack stack(cfg);
    MsgPassing mp(stack);
    Collectives coll(stack);

    // Per-node arrays in simulated memory: u and u_next with one
    // ghost cell at each end, plus 4-word halo staging buffers
    // (packet-size granularity).
    struct NodeState
    {
        Addr u, unext, haloL, haloR, ghostL, ghostR;
    };
    std::vector<NodeState> st(nodes);
    for (NodeId i = 0; i < nodes; ++i) {
        Memory &m = stack.node(i).mem();
        st[i].u = m.alloc(cells + 2);
        st[i].unext = m.alloc(cells + 2);
        st[i].haloL = m.alloc(4);
        st[i].haloR = m.alloc(4);
        st[i].ghostL = m.alloc(4);
        st[i].ghostR = m.alloc(4);
        // Initial condition: a hot spike at the global left edge,
        // cold everywhere else; fixed boundary values.
        for (std::uint32_t c = 0; c < cells + 2; ++c)
            m.write(st[i].u + c, 0);
        if (i == 0)
            m.write(st[i].u + 1, 100 * fxOne);
    }

    std::printf("1-D Jacobi on %u nodes x %u cells, %d iterations\n\n",
                nodes, cells, iterations);

    const std::uint64_t instr0 = [&] {
        std::uint64_t s = 0;
        for (NodeId i = 0; i < nodes; ++i)
            s += stack.node(i).acct().counter().paperTotal();
        return s;
    }();

    for (int it = 0; it < iterations; ++it) {
        // --- halo exchange: every interior boundary swaps one cell
        // (padded to a 4-word packet) with its neighbor, tag-matched
        // by iteration parity so iterations cannot cross-talk.
        const Word tagR = 2 * static_cast<Word>(it) % 1000 + 1;
        const Word tagL = tagR + 1;
        std::vector<MsgPassing::SendHandle> sends;
        for (NodeId i = 0; i < nodes; ++i) {
            Memory &m = stack.node(i).mem();
            m.write(st[i].haloR, m.read(st[i].u + cells));
            m.write(st[i].haloL, m.read(st[i].u + 1));
            if (i + 1 < nodes) {
                mp.postRecv(i, st[i].ghostR, 4, tagL, i + 1);
                sends.push_back(
                    mp.send(i, i + 1, st[i].haloR, 4, tagR));
            }
            if (i > 0) {
                mp.postRecv(i, st[i].ghostL, 4, tagR, i - 1);
                sends.push_back(
                    mp.send(i, i - 1, st[i].haloL, 4, tagL));
            }
        }
        bool ok = mp.progressUntil([&] {
            for (auto h : sends)
                if (!mp.sendDone(h))
                    return false;
            return true;
        });
        if (!ok) {
            std::printf("halo exchange stalled at iteration %d\n", it);
            return 1;
        }

        // --- local relaxation + local residual, in simulated memory.
        std::vector<Word> local_resid(nodes, 0);
        for (NodeId i = 0; i < nodes; ++i) {
            Memory &m = stack.node(i).mem();
            if (i > 0)
                m.write(st[i].u + 0, m.read(st[i].ghostL));
            if (i + 1 < nodes)
                m.write(st[i].u + cells + 1, m.read(st[i].ghostR));
            Word resid = 0;
            for (std::uint32_t c = 1; c <= cells; ++c) {
                const Word left = m.read(st[i].u + c - 1);
                const Word right = m.read(st[i].u + c + 1);
                const Word next = (left >> 1) + (right >> 1);
                const Word old = m.read(st[i].u + c);
                resid += next > old ? next - old : old - next;
                m.write(st[i].unext + c, next);
            }
            // Pinned global boundaries.
            if (i == 0)
                m.write(st[i].unext + 1, 100 * fxOne);
            for (std::uint32_t c = 1; c <= cells; ++c)
                m.write(st[i].u + c, m.read(st[i].unext + c));
            local_resid[i] = resid >> 8; // keep the sum in 32 bits
        }

        // --- global residual via allreduce.
        std::vector<Word> out;
        if (!coll.allReduce(Collectives::ReduceOp::Sum, local_resid,
                            out)
                 .ok) {
            std::printf("allreduce failed at iteration %d\n", it);
            return 1;
        }
        if (it % 5 == 0 || it == iterations - 1)
            std::printf("  iter %3d: residual = %10.2f\n", it,
                        static_cast<double>(out[0]) * 256.0 / fxOne);
    }

    std::uint64_t instr1 = 0;
    for (NodeId i = 0; i < nodes; ++i)
        instr1 += stack.node(i).acct().counter().paperTotal();
    std::printf("\nmessaging bill: %llu instructions total (%.0f per "
                "node per iteration)\n",
                static_cast<unsigned long long>(instr1 - instr0),
                static_cast<double>(instr1 - instr0) /
                    (static_cast<double>(nodes) * iterations));
    std::printf("(halo exchange = 2 rendezvous messages/node/iter; "
                "residual = 1 allreduce/iter — all riding the "
                "20+27-instruction packet primitive)\n");
    return 0;
}
