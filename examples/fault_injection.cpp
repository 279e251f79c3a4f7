/**
 * @file
 * Fault-handling demo: the same faulty traffic on the two substrates.
 *
 * The CM-5-like network *detects* bad packets (CRC at the NI) but
 * corrects nothing — software sees silence where a packet should
 * have been and must buffer, time out, and retransmit.  The CR-style
 * network retries at the packet level in hardware; software never
 * notices.  This example scripts specific faults and narrates what
 * each layer of the system observed.
 *
 *   $ ./fault_injection
 */

#include <cstdio>

#include "protocols/stream.hh"

using namespace msgsim;

int
main()
{
    std::printf("== detection-only network (CM-5-like) ==\n\n");
    {
        StackConfig cfg;
        cfg.nodes = 2;
        Stack stack(cfg);
        auto *net = dynamic_cast<Cm5Network *>(&stack.network());
        // Script: drop the 3rd data packet, corrupt the 6th.
        net->faults().scriptDrop(2);
        net->faults().scriptCorrupt(5);

        StreamProtocol proto(stack);
        StreamParams p;
        p.words = 64; // 16 packets
        p.eventMode = true;
        p.retxTimeout = 500;
        const auto res = proto.run(p);

        std::printf("injected %llu packets; network silently lost 1 "
                    "and corrupted 1\n",
                    static_cast<unsigned long long>(
                        stack.network().stats().injected));
        std::printf("the NI's CRC check discarded %llu bad packet(s) "
                    "— detection without correction\n",
                    static_cast<unsigned long long>(
                        stack.node(1).ni().crcDiscards()));
        std::printf("software recovery: %llu retransmission(s), %llu "
                    "duplicate(s) re-acked\n",
                    static_cast<unsigned long long>(
                        res.retransmissions),
                    static_cast<unsigned long long>(res.duplicates));
        std::printf("fault-tolerance instructions: %llu of %llu "
                    "total (%.1f%%)\n",
                    static_cast<unsigned long long>(
                        res.counts.featureTotal(
                            Feature::FaultTolerance)),
                    static_cast<unsigned long long>(
                        res.counts.paperTotal()),
                    100.0 *
                        static_cast<double>(res.counts.featureTotal(
                            Feature::FaultTolerance)) /
                        static_cast<double>(res.counts.paperTotal()));
        std::printf("stream delivered intact: %s\n\n",
                    res.dataOk ? "yes" : "NO");
    }

    std::printf("== packet-level fault-tolerant network (CR-like) "
                "==\n\n");
    {
        StackConfig cfg = stackConfigFor(HostLayer::Hl);
        cfg.nodes = 2;
        // Much harsher conditions: 20% drops, 10% corruption.
        cfg.faults.dropRate = 0.20;
        cfg.faults.corruptRate = 0.10;
        cfg.faults.seed = 99;
        Stack stack(cfg);
        StreamParams p;
        p.words = 64;
        const auto res = StreamProtocol(stack).run(p);

        std::printf("the hardware retried %llu time(s); software "
                    "executed ZERO fault-tolerance instructions "
                    "(measured: %llu)\n",
                    static_cast<unsigned long long>(
                        stack.machine().network().stats().hwRetries),
                    static_cast<unsigned long long>(
                        res.counts.featureTotal(
                            Feature::FaultTolerance)));
        std::printf("stream delivered intact and in order: %s\n",
                    res.dataOk ? "yes" : "NO");
    }
    return 0;
}
