#include "cmam/send_path.hh"

#include "hostprof/hostprof.hh"
#include "sim/trace_session.hh"

namespace msgsim
{

void
singlePacketSend(Node &node, Addr niBaseAddr, HwTag tag, NodeId dst,
                 Word header, const std::vector<Word> &args,
                 int lenWords, int vnet)
{
    Processor &p = node.proc();
    Accounting &a = p.acct();
    NetIface &ni = node.ni();
    const int n = lenWords;
    ScopedSpan span(node.id(), "cmam", "send_packet");
    hostprof::HostScope hps(hostprof::Site::CmamSend);

    if (n > ni.dataWords())
        msgsim_fatal("packet length ", n, " exceeds hardware packet "
                     "size ", ni.dataWords());
    if (static_cast<int>(args.size()) > n)
        msgsim_fatal("single-packet payload of ", args.size(),
                     " words exceeds packet length ", n);

    // Table 1, source column.  Call/Return = 3: call, window save,
    // restore+ret.
    {
        RowScope r(a, CostRow::CallReturn);
        p.callRet(3);
    }

    for (int attempt = 0;; ++attempt) {
        if (attempt > 1000)
            msgsim_panic("send retry livelock toward node ", dst);
        {
            // NI setup = 5: reg 3 (pack dst|tag, compute register
            // offsets), mem 1 (load the NI base pointer), dev 1
            // (store the control word).
            RowScope r(a, CostRow::NiSetup);
            p.regOps(3);
            (void)p.loadWord(niBaseAddr);
            ni.writeSendCtl(a, dst, tag, header, n, vnet);
        }
        {
            // First status check: send-FIFO space available?
            // dev 1 + reg 2 (mask, test).
            RowScope r(a, CostRow::CheckStatus);
            (void)ni.readStatus(a);
            p.regOps(2);
        }
        {
            // Write to NI = n/2 double-word stores of the payload
            // (2 at n = 4), zero-padded to the packet size.
            RowScope r(a, CostRow::WriteNi);
            for (int i = 0; i < n; i += 2) {
                const Word w0 = i < static_cast<int>(args.size())
                                    ? args[static_cast<std::size_t>(i)]
                                    : 0;
                const Word w1 =
                    i + 1 < static_cast<int>(args.size())
                        ? args[static_cast<std::size_t>(i + 1)]
                        : 0;
                ni.writeSendDouble(a, w0, w1);
            }
        }
        Word status;
        {
            // Second status check: send_ok confirmation plus the
            // incoming-packet test CMAM folds into the same read.
            // dev 1 + reg 3 (send_ok mask, recv mask, combine).
            RowScope r(a, CostRow::CheckStatus);
            status = ni.readStatus(a);
            p.regOps(3);
        }
        {
            // Control flow = 3: success branch, recv-pending branch,
            // loop exit.
            RowScope r(a, CostRow::ControlFlow);
            p.branches(3);
        }
        if (status & ni_status::sendOk)
            break;
        // Injection refused (network busy): software re-pushes the
        // whole packet.  Off the calibrated minimum path.
        if (TraceSession *ts = TraceSession::current())
            ts->instant(node.id(), "cmam", "send_busy");
    }
}

void
xferPacketLoop(Node &node, Addr niBaseAddr, NodeId dst, Word id,
               Addr srcBuf, std::uint32_t words, bool stampOffsets,
               bool dma)
{
    Processor &p = node.proc();
    Accounting &a = p.acct();
    NetIface &ni = node.ni();
    const int n = ni.dataWords();

    if (words == 0 || words % static_cast<std::uint32_t>(n) != 0)
        msgsim_fatal("xfer of ", words,
                     " words: not a multiple of packet size ", n);
    if (words > hdr::maxFieldB)
        msgsim_fatal("xfer of ", words, " words exceeds the header field");
    if (id > hdr::maxFieldA)
        msgsim_fatal("xfer id ", id, " exceeds the header field");

    // Fixed entry (2 reg + 1 mem): loop setup; the NI base pointer is
    // loaded once and stays register-cached across the whole burst
    // (unlike per-call am4 sends).
    p.regOps(2);
    (void)p.loadWord(niBaseAddr);

    for (std::uint32_t offset = 0; offset < words;
         offset += static_cast<std::uint32_t>(n)) {
        Word header;
        if (stampOffsets) {
            // In-order delivery, source side (2 reg per packet):
            // advance the running offset and pack it into the header
            // so the destination can place data without sequencing.
            FeatureScope io(a, Feature::InOrderDelivery);
            p.regOps(2);
            header = hdr::pack(id, offset);
        } else {
            // Delivery order is transmission order: only the header
            // packet says anything, the size the destination binds.
            header = hdr::pack(id, offset == 0 ? words : 0);
        }

        for (int attempt = 0;; ++attempt) {
            if (attempt > 1000)
                msgsim_panic("xfer send retry livelock toward node ",
                             dst);
            {
                // reg 4: destination/control-word assembly; dev 1:
                // control-word store.
                RowScope r(a, CostRow::NiSetup);
                p.regOps(4);
                ni.writeSendCtl(a, dst, HwTag::XferData, header);
            }
            {
                // dev 1 + reg 2: send-space check.
                RowScope r(a, CostRow::CheckStatus);
                (void)ni.readStatus(a);
                p.regOps(2);
            }
            if (dma) {
                // One descriptor store; the engine gathers the
                // payload from memory and launches the packet.
                RowScope r(a, CostRow::WriteNi);
                ni.writeSendDma(a, srcBuf + offset, n);
            } else {
                // n/2 ldd from the user buffer, n/2 std to the FIFO.
                for (int i = 0; i < n; i += 2) {
                    const auto [w0, w1] = p.loadDouble(
                        srcBuf + offset + static_cast<Addr>(i));
                    RowScope r(a, CostRow::WriteNi);
                    ni.writeSendDouble(a, w0, w1);
                }
            }
            Word status;
            {
                // dev 1 + reg 3: send_ok confirm + incoming test.
                RowScope r(a, CostRow::CheckStatus);
                status = ni.readStatus(a);
                p.regOps(3);
            }
            {
                RowScope r(a, CostRow::ControlFlow);
                p.branches(3);
            }
            if (status & ni_status::sendOk)
                break;
        }
        // reg 3: buffer-pointer advance, remaining-count decrement,
        // compare for loop exit.
        p.regOps(3);
    }
}

Word
pollIterationStatus(Node &node)
{
    Processor &p = node.proc();
    Accounting &a = p.acct();
    Word status;
    {
        RowScope r(a, CostRow::CheckStatus);
        status = node.ni().readStatus(a);
        p.regOps(1);
    }
    {
        RowScope r(a, CostRow::ControlFlow);
        p.branches(2);
    }
    return status;
}

} // namespace msgsim
