/**
 * @file
 * Quickstart: build a 4-node CM-5-like machine, send an active
 * message, and look at where the instructions went.
 *
 *   $ ./quickstart
 */

#include <cstdio>

#include "lab/paper_tables.hh"
#include "protocols/single_packet.hh"

using namespace msgsim;

int
main()
{
    // 1. A machine: 4 nodes on a CM-5-like fat tree (out-of-order,
    //    finite buffering, fault detection only), 4-word packets,
    //    with a CMAM-style active message layer on every node.
    StackConfig cfg;
    cfg.substrate = Substrate::Cm5;
    cfg.nodes = 4;
    Stack stack(cfg);

    // 2. Register a handler on the receiving node.  Handlers get the
    //    sender's id and the packet's data words.
    const int print_handler = stack.cmam(1).registerHandler(
        [](NodeId src, const std::vector<Word> &args) {
            std::printf("node 1: AM from node %u: %u %u %u %u\n", src,
                        args[0], args[1], args[2], args[3]);
        });

    // 3. Send an active message from node 0 and poll it in on node 1.
    //    Everything the messaging layer executes is charged to the
    //    nodes' instruction accounts.
    {
        FeatureScope fs(stack.node(0).acct(), Feature::BaseCost);
        stack.cmam(0).am4(1, print_handler, {10, 20, 30, 40});
    }
    stack.settle(); // run the network simulation to quiescence
    {
        FeatureScope fs(stack.node(1).acct(), Feature::BaseCost);
        stack.cmam(1).poll();
    }

    // 4. Where did the time go?  (Table 1 of Karamcheti & Chien:
    //    20 instructions to send, 27 to receive.)
    const lab::ResultTable rows{
        .name = "Table 1",
        .title = "single-packet delivery",
        .columns = lab::costColumns("run"),
        .rows = lab::costRows("am4", stack.node(0).acct().rowTotals(),
                              stack.node(1).acct().rowTotals())};
    std::printf("\n%s", rows.markdown().c_str());

    // 5. The same counts, under the Appendix A cycle model where a
    //    memory-mapped NI access costs 5 cycles.
    BreakdownCounter bd;
    bd.src = stack.node(0).acct().counter();
    bd.dst = stack.node(1).acct().counter();
    const lab::ResultTable cycles{
        .name = "Appendix A",
        .title = "modeled cycles",
        .columns = lab::cycleColumns("run"),
        .rows = {lab::cycleRow("am4", bd, CostModel::cm5())}};
    std::printf("\n%s", cycles.markdown().c_str());
    return 0;
}
