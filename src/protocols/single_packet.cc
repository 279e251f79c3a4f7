#include "protocols/single_packet.hh"

#include "hostprof/hostprof.hh"
#include "sim/log.hh"

namespace msgsim
{

SinglePacketResult
runSinglePacket(Stack &stack, const SinglePacketParams &params)
{
    hostprof::HostScope hps(hostprof::Site::ProtoSingle);
    SinglePacketResult res;
    Node &src = stack.node(params.src);
    Node &dst = stack.node(params.dst);
    Cmam &csrc = stack.cmam(params.src);
    Cmam &cdst = stack.cmam(params.dst);
    // CMAM_4 carries four data words regardless of the hardware
    // packet maximum.
    const int n = 4;

    std::vector<Word> payload = params.payload;
    if (payload.empty())
        for (int i = 0; i < n; ++i)
            payload.push_back(0xfeed0000u + static_cast<Word>(i));

    std::vector<Word> received;
    const int handler = cdst.registerHandler(
        [&received](NodeId, const std::vector<Word> &args) {
            received = args;
        });

    const RunFrame frame(stack, params.src, params.dst);
    const auto src_rows_before = src.acct().rowTotals();
    const auto dst_rows_before = dst.acct().rowTotals();

    {
        FeatureScope fs(src.acct(), Feature::BaseCost);
        csrc.am4(params.dst, handler, payload);
    }
    stack.settle();
    {
        FeatureScope fs(dst.acct(), Feature::BaseCost);
        cdst.poll();
    }

    frame.finish(res);
    for (int r = 0; r < numCostRows; ++r) {
        res.srcRows[static_cast<std::size_t>(r)] =
            src.acct().rowTotals()[static_cast<std::size_t>(r)] -
            src_rows_before[static_cast<std::size_t>(r)];
        res.dstRows[static_cast<std::size_t>(r)] =
            dst.acct().rowTotals()[static_cast<std::size_t>(r)] -
            dst_rows_before[static_cast<std::size_t>(r)];
    }
    res.packets = 1;

    // Integrity: the handler must have observed the payload,
    // zero-padded to the packet size.
    res.dataOk = static_cast<int>(received.size()) == n;
    if (res.dataOk)
        for (int i = 0; i < n; ++i) {
            const Word want = i < static_cast<int>(payload.size())
                                  ? payload[static_cast<std::size_t>(i)]
                                  : 0;
            if (received[static_cast<std::size_t>(i)] != want)
                res.dataOk = false;
        }
    return res;
}

} // namespace msgsim
