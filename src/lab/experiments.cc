/**
 * @file
 * The built-in experiment catalog: every entry of the EXPERIMENTS.md
 * E-index, registered as declarative Experiments over the existing
 * protocol/model/workload layers.
 *
 * Each grid point builds its own stacks and touches no shared mutable
 * state, so the SweepRunner may execute points concurrently; all
 * random behaviour is seeded through StackConfig, so results are
 * bit-deterministic.  Host wall-clock is measured by perfbench, not
 * here.
 */

#include <cmath>

#include "check/explorer.hh"
#include "check/shrink.hh"
#include "coll/collectives.hh"
#include "hostprof/hostprof.hh"
#include "prof/profile.hh"
#include "core/cost_model.hh"
#include "lab/paper_tables.hh"
#include "lab/registry.hh"
#include "model/analytic.hh"
#include "protocols/finite_xfer.hh"
#include "protocols/single_packet.hh"
#include "protocols/stream.hh"
#include "model/traffic_model.hh"
#include "tele/tele_run.hh"
#include "traffic/engine.hh"
#include "traffic/traffic.hh"
#include "wire/wire_run.hh"

namespace msgsim::lab
{

namespace
{

/** The paper's measurement setup: CM-5 substrate, n = 4. */
StackConfig
paperCm5(bool halfOoo = false)
{
    StackConfig cfg;
    cfg.substrate = Substrate::Cm5;
    cfg.nodes = 4;
    cfg.dataWords = 4;
    if (halfOoo)
        cfg.order = swapAdjacentFactory();
    return cfg;
}

// The paper's three calibration runs, each on a fresh stack: Table 1's
// single packet, Table 2's finite transfer (top) and indefinite
// stream with half the packets out of order (bottom).  An experiment
// that varies one passes its own params or StackConfig.

SinglePacketResult
singlePacket(const StackConfig &cfg = paperCm5())
{
    Stack stack(cfg);
    return runSinglePacket(stack, {});
}

RunResult
finiteRun(const FiniteXferParams &p, const StackConfig &cfg = paperCm5())
{
    Stack stack(cfg);
    return FiniteXfer(stack).run(p);
}

RunResult
streamRun(const StreamParams &p,
          const StackConfig &cfg = paperCm5(/*halfOoo=*/true))
{
    Stack stack(cfg);
    return StreamProtocol(stack).run(p);
}

// ------------------------------------------------------------------
// T1 — Table 1: single-packet delivery.
// ------------------------------------------------------------------

Experiment
makeT1()
{
    Experiment e;
    e.name = "T1";
    e.title = "Table 1: single-packet delivery instruction counts "
              "(paper: src 20, dst 27)";
    e.columns = costColumns("substrate");
    e.points = {"cm5", "cr"};
    e.notes = {"Identical on both substrates (paper section 4.1) — "
               "but on CR the packet is ordered, overflow-safe, and "
               "reliable."};
    e.runPoint = [points = e.points](std::size_t pi) {
        StackConfig cfg = paperCm5();
        cfg.substrate = pi == 0 ? Substrate::Cm5 : Substrate::Cr;
        const auto res = singlePacket(cfg);
        auto rows = costRows(points[pi], res.srcRows, res.dstRows);
        rows.push_back({T(points[pi]), T("integrity"), Cell::null(),
                        okCell(res.dataOk)});
        return rows;
    };
    return e;
}

// ------------------------------------------------------------------
// T2a/T2b — Table 2: multi-packet feature breakdowns.
// ------------------------------------------------------------------

Experiment
makeT2a()
{
    Experiment e;
    e.name = "T2a";
    e.title = "Table 2 (top): finite sequence, multi-packet delivery "
              "(16/1024 words, n = 4)";
    e.columns = featureColumns("words");
    e.points = {"16", "1024"};
    e.notes = {"Paper totals: 173/224/397 at 16 words (see "
               "EXPERIMENTS.md on the prose's 285), "
               "6221/5516/11737 at 1024 words."};
    e.runPoint = [points = e.points](std::size_t pi) {
        const auto res = finiteRun({.words = pi == 0 ? 16u : 1024u});
        auto rows = featureRows(points[pi], res.counts);
        rows.push_back({T(points[pi]), T("integrity"), Cell::null(),
                        Cell::null(), okCell(res.dataOk)});
        return rows;
    };
    return e;
}

Experiment
makeT2b()
{
    Experiment e;
    e.name = "T2b";
    e.title = "Table 2 (bottom): indefinite sequence, multi-packet "
              "delivery, half the packets out of order";
    e.columns = featureColumns("words");
    e.points = {"16", "1024"};
    e.notes = {"Paper totals: 216/265/481 at 16 words, "
               "13824/16141/29965 at 1024 words; overhead ~70% "
               "independent of size."};
    e.runPoint = [points = e.points](std::size_t pi) {
        const auto res = streamRun({.words = pi == 0 ? 16u : 1024u});
        const std::string &w = points[pi];
        auto rows = featureRows(w, res.counts);
        rows.push_back({T(w), T("ooo arrivals"), Cell::null(),
                        Cell::null(), I(res.oooArrivals)});
        rows.push_back({T(w), T("acks"), Cell::null(), Cell::null(),
                        I(res.acksSent)});
        rows.push_back({T(w), T("overhead"), Cell::null(),
                        Cell::null(),
                        R(res.counts.overheadFraction())});
        rows.push_back({T(w), T("integrity"), Cell::null(),
                        Cell::null(), okCell(res.dataOk)});
        return rows;
    };
    return e;
}

// ------------------------------------------------------------------
// T3 — Table 3 (Appendix A): reg/mem/dev subcategories.
// ------------------------------------------------------------------

Experiment
makeT3()
{
    Experiment e;
    e.name = "T3";
    e.title = "Table 3 (Appendix A): instruction subcategories "
              "(reg/mem/dev) per feature";
    e.columns = categoryColumns("run");
    e.points = {"finite 16", "finite 1024", "indefinite 16",
                "indefinite 1024"};
    e.runPoint = [points = e.points](std::size_t pi) {
        const std::uint32_t words = (pi % 2 == 0) ? 16u : 1024u;
        const RunResult res = pi < 2 ? finiteRun({.words = words})
                                     : streamRun({.words = words});
        return categoryRows(points[pi], res.counts);
    };
    return e;
}

// ------------------------------------------------------------------
// F6 — Figure 6: CMAM versus high-level network features.
// ------------------------------------------------------------------

Experiment
makeF6()
{
    Experiment e;
    e.name = "F6";
    e.title = "Figure 6: messaging cost, CMAM vs high-level network "
              "features";
    e.columns = {"protocol",   "words",  "cmam src", "cmam dst",
                 "cmam total", "hl src", "hl dst",   "hl total",
                 "improvement", "ok"};
    e.points = {"finite 16", "finite 1024", "indefinite 16",
                "indefinite 1024"};
    e.notes = {"Paper: finite improves 10-50% by message size; "
               "indefinite ~70% independent of size."};
    e.runPoint = [](std::size_t pi) {
        const bool finite = pi < 2;
        const std::uint32_t words = (pi % 2 == 0) ? 16u : 1024u;
        const StackConfig hl = stackConfigFor(HostLayer::Hl);
        const RunResult rc = finite ? finiteRun({.words = words})
                                    : streamRun({.words = words});
        const RunResult rh = finite ? finiteRun({.words = words}, hl)
                                    : streamRun({.words = words}, hl);
        const double imp =
            1.0 - static_cast<double>(rh.counts.paperTotal()) /
                      static_cast<double>(rc.counts.paperTotal());
        return std::vector<Row>{
            {T(finite ? "finite" : "indefinite"), I(words),
             I(rc.counts.src.paperTotal()),
             I(rc.counts.dst.paperTotal()), I(rc.counts.paperTotal()),
             I(rh.counts.src.paperTotal()),
             I(rh.counts.dst.paperTotal()), I(rh.counts.paperTotal()),
             R(imp), okCell(rc.dataOk && rh.dataOk)}};
    };
    return e;
}

// ------------------------------------------------------------------
// F8 — Figure 8: generalized costs; model vs simulation.
// ------------------------------------------------------------------

Experiment
makeF8()
{
    Experiment e;
    e.name = "F8";
    e.title = "Figure 8: generalized costs vs packet size "
              "(1024-word message; model cross-checked against "
              "simulation)";
    e.columns = {"n",           "fin model",    "fin sim",
                 "ind model",   "ind sim",      "fin overhead",
                 "ind overhead"};
    e.points = {"4", "8", "16", "32", "64", "128"};
    e.notes = {"Paper: finite overhead ~9-11%; indefinite overhead "
               "remains significant across the whole range."};
    e.runPoint = [](std::size_t pi) {
        static constexpr int ns[] = {4, 8, 16, 32, 64, 128};
        const int n = ns[pi];
        ProtoParams pp;
        pp.n = n;
        pp.words = 1024;
        pp.oooFraction = 0.5;
        const auto fin = cmamFiniteModel(pp);
        const auto str = cmamStreamModel(pp);

        StackConfig cfg = paperCm5();
        cfg.dataWords = n;
        const auto rf = finiteRun({.words = 1024}, cfg);
        StackConfig cfg2 = paperCm5(/*halfOoo=*/true);
        cfg2.dataWords = n;
        const auto rs = streamRun({.words = 1024}, cfg2);

        return std::vector<Row>{
            {I(static_cast<std::uint64_t>(n)), R(fin.grandTotal()),
             I(rf.counts.paperTotal()), R(str.grandTotal()),
             I(rs.counts.paperTotal()), R(fin.overheadFraction()),
             R(str.overheadFraction())}};
    };
    return e;
}

// ------------------------------------------------------------------
// D1 — §3.2 group-acknowledgement claim.
// ------------------------------------------------------------------

Experiment
makeD1()
{
    Experiment e;
    e.name = "D1";
    e.title = "Group acknowledgements: indefinite sequence, 1024 "
              "words, half OOO, ack group sweep";
    e.columns = {"G", "acks", "fault-tol", "total", "overhead", "ok"};
    e.points = {"1", "2", "4", "8", "16", "32", "64", "256"};
    e.notes = {"Paper section 3.2: overhead 'remains significant "
               "(~40-50%) even if group acknowledgements are "
               "employed'; our floor is ~56% (in-order delivery "
               "dominates the residual)."};
    e.runPoint = [](std::size_t pi) {
        static constexpr int gs[] = {1, 2, 4, 8, 16, 32, 64, 256};
        const int g = gs[pi];
        const auto res = streamRun({.words = 1024, .groupAck = g});
        const auto ft =
            res.counts.src.featureTotal(Feature::FaultTolerance) +
            res.counts.dst.featureTotal(Feature::FaultTolerance);
        return std::vector<Row>{
            {I(static_cast<std::uint64_t>(g)), I(res.acksSent), I(ft),
             I(res.counts.paperTotal()),
             R(res.counts.overheadFraction()), okCell(res.dataOk)}};
    };
    return e;
}

// ------------------------------------------------------------------
// D2 — abstract claim: 50-70% overhead.
// ------------------------------------------------------------------

Experiment
makeD2()
{
    Experiment e;
    e.name = "D2";
    e.title = "Abstract claim: overhead is 50-70% of software cost "
              "in all situations except large finite transfers";
    e.columns = {"configuration", "overhead"};
    e.points = {"all"};
    e.runPoint = [](std::size_t) {
        ProtoParams p16;
        p16.words = 16;
        ProtoParams p1024;
        p1024.words = 1024;
        return std::vector<Row>{
            {T("finite, 16 words"),
             R(cmamFiniteModel(p16).overheadFraction())},
            {T("finite, 1024 words (the exception, section 3.3)"),
             R(cmamFiniteModel(p1024).overheadFraction())},
            {T("indefinite, 16 words"),
             R(cmamStreamModel(p16).overheadFraction())},
            {T("indefinite, 1024 words"),
             R(cmamStreamModel(p1024).overheadFraction())},
        };
    };
    return e;
}

// ------------------------------------------------------------------
// A1 — Appendix A cycle model.
// ------------------------------------------------------------------

Experiment
makeA1()
{
    Experiment e;
    e.name = "A1";
    e.title = "Appendix A cycle model: unit weighting vs CM-5 "
              "weighting (reg = mem = 1, dev = 5)";
    e.columns = cycleColumns("run");
    e.points = {"single packet", "finite 16", "finite 1024",
                "indefinite 1024"};
    e.notes = {"The 47-instruction single-packet exchange becomes 87 "
               "cycles under the CM-5 weighting; the dev-heavy base "
               "cost inflates, so the overhead *fraction* drops — "
               "which reverses as NIs improve (X3a)."};
    e.runPoint = [points = e.points](std::size_t pi) {
        const BreakdownCounter counts =
            pi == 0   ? singlePacket().counts
            : pi == 3 ? streamRun({.words = 1024}).counts
                      : finiteRun({.words = pi == 1 ? 16u : 1024u})
                            .counts;
        return std::vector<Row>{
            cycleRow(points[pi], counts, CostModel::unit()),
            cycleRow(points[pi], counts, CostModel::cm5())};
    };
    return e;
}

// ------------------------------------------------------------------
// X1 — overhead vs out-of-order fraction.
// ------------------------------------------------------------------

Experiment
makeX1()
{
    Experiment e;
    e.name = "X1";
    e.title = "In-order-delivery cost vs out-of-order fraction "
              "(indefinite sequence, 4096 words)";
    e.columns = {"target f", "actual f", "in-order cost", "model",
                 "overhead", "ok"};
    e.points = {"0.0", "0.1", "0.2", "0.3", "0.4", "0.5"};
    e.notes = {"Model evaluated at the realized fraction of each "
               "run; agreement is exact."};
    e.runPoint = [](std::size_t pi) {
        static constexpr double fs[] = {0.0, 0.1, 0.2, 0.3, 0.4, 0.5};
        const double f = fs[pi];
        StackConfig cfg = paperCm5();
        if (f > 0)
            cfg.order = pairSwapChanceFactory(f / (1.0 - f), 987);
        const auto res = streamRun({.words = 4096}, cfg);
        const double actual = static_cast<double>(res.oooArrivals) /
                              static_cast<double>(res.packets);
        ProtoParams pp;
        pp.words = 4096;
        pp.oooFraction = actual;
        const double model =
            cmamStreamModel(pp).featureTotal(Feature::InOrderDelivery);
        const auto ord =
            res.counts.src.featureTotal(Feature::InOrderDelivery) +
            res.counts.dst.featureTotal(Feature::InOrderDelivery);
        return std::vector<Row>{
            {R(f), R(actual), I(ord), R(model),
             R(res.counts.overheadFraction()), okCell(res.dataOk)}};
    };
    return e;
}

// ------------------------------------------------------------------
// X2 — software vs hardware fault recovery.
// ------------------------------------------------------------------

Experiment
makeX2()
{
    Experiment e;
    e.name = "X2";
    e.title = "Fault-rate sweep: software recovery (CMAM/CM-5) vs "
              "hardware recovery (HL/CR), event mode, 1024 words";
    e.columns = {"drop %",  "cmam instr", "retx",       "dups",
                 "elapsed", "hl instr",   "hw retries", "ok"};
    e.points = {"0", "2", "5", "10", "20"};
    e.runPoint = [](std::size_t pi) {
        static constexpr double rates[] = {0.0, 0.02, 0.05, 0.10,
                                           0.20};
        const double rate = rates[pi];
        StackConfig cfg = paperCm5();
        cfg.faults.dropRate = rate;
        cfg.faults.seed = 404;
        const StreamParams p{.words = 1024,
                             .eventMode = true,
                             .retxTimeout = 800,
                             .maxRetx = 4096};
        const auto rc = streamRun(p, cfg);

        StackConfig hcfg = stackConfigFor(HostLayer::Hl);
        hcfg.faults.dropRate = rate;
        hcfg.faults.seed = 404;
        Stack hl(hcfg);
        const auto rh = StreamProtocol(hl).run(p);

        return std::vector<Row>{
            {R(rate * 100), I(rc.counts.paperTotal()),
             I(rc.retransmissions), I(rc.duplicates), I(rc.elapsed),
             I(rh.counts.paperTotal()),
             I(hl.machine().network().stats().hwRetries),
             okCell(rc.dataOk && rh.dataOk)}};
    };
    return e;
}

// ------------------------------------------------------------------
// X3a — the NI-improvement paradox (dev-weight sweep).
// ------------------------------------------------------------------

Experiment
makeX3a()
{
    Experiment e;
    e.name = "X3a";
    e.title = "NI design ablation: overhead fraction vs dev access "
              "cost (1024-word message, n = 4)";
    e.columns = {"NI model", "dev weight", "finite overhead",
                 "indefinite overhead", "cmam/hl stream"};
    e.points = {"dev 5", "dev 3", "dev 2", "dev 1"};
    e.notes = {"Paper section 5: reducing the base cost increases "
               "the importance of the remaining messaging layer — "
               "the overhead fraction RISES as the NI improves."};
    e.runPoint = [](std::size_t pi) {
        struct Ni
        {
            const char *name;
            double w;
        };
        static constexpr Ni nis[] = {
            {"CM-5 memory-mapped", 5.0},
            {"improved bus NI", 3.0},
            {"coprocessor NI", 2.0},
            {"on-chip NI, reg-mapped", 1.0},
        };
        ProtoParams pp;
        pp.words = 1024;
        pp.oooFraction = 0.5;
        const auto fin = cmamFiniteModel(pp);
        const auto str = cmamStreamModel(pp);
        const auto hl = hlStreamModel(pp);

        auto overheadUnder = [](const FeatureBreakdown &bd,
                                const CostModel &m) {
            const double base =
                bd.at(Feature::BaseCost, Direction::Source)
                    .weighted(m) +
                bd.at(Feature::BaseCost, Direction::Destination)
                    .weighted(m);
            const double total = bd.weightedTotal(m);
            return (total - base) / total;
        };

        const Ni &ni = nis[pi];
        const CostModel m{"sweep", 1.0, 1.0, ni.w};
        return std::vector<Row>{
            {T(ni.name), R(ni.w), R(overheadUnder(fin, m)),
             R(overheadUnder(str, m)),
             R(str.weightedTotal(m) / hl.weightedTotal(m))}};
    };
    return e;
}

// ------------------------------------------------------------------
// X3b — DMA vs programmed I/O.
// ------------------------------------------------------------------

Experiment
makeX3b()
{
    Experiment e;
    e.name = "X3b";
    e.title = "DMA vs programmed I/O: finite sequence, 1024-word "
              "message";
    e.columns = {"n",         "pio instr", "pio overhead",
                 "dma instr", "dma overhead", "ok"};
    e.points = {"4", "16", "64", "128"};
    e.notes = {"DMA shrinks the base cost but not one instruction of "
               "the handshake/ordering/ack machinery — the overhead "
               "fraction rises (paper section 5)."};
    e.runPoint = [](std::size_t pi) {
        static constexpr int ns[] = {4, 16, 64, 128};
        const int n = ns[pi];
        StackConfig pioCfg = paperCm5();
        pioCfg.dataWords = n;
        const auto r1 = finiteRun({.words = 1024}, pioCfg);
        StackConfig dmaCfg = pioCfg;
        dmaCfg.dmaXfer = true;
        const auto r2 = finiteRun({.words = 1024}, dmaCfg);

        return std::vector<Row>{
            {I(static_cast<std::uint64_t>(n)),
             I(r1.counts.paperTotal()),
             R(r1.counts.overheadFraction()),
             I(r2.counts.paperTotal()),
             R(r2.counts.overheadFraction()),
             okCell(r1.dataOk && r2.dataOk)}};
    };
    return e;
}

// ------------------------------------------------------------------
// X4a — polling discipline: calibration vs event mode.
// ------------------------------------------------------------------

Experiment
makeX4a()
{
    Experiment e;
    e.name = "X4a";
    e.title = "Polling overhead: calibration (minimum path) vs "
              "event-driven execution";
    e.columns = {"workload", "calibration", "event mode", "extra",
                 "ok"};
    e.points = {"finite 16",  "finite 256",  "finite 1024",
                "stream 16",  "stream 256",  "stream 1024",
                "jitter 0",   "jitter 40",   "jitter 200"};
    e.notes = {"The paper's tables are the lower envelope: "
               "arrival-driven schedules pay extra poll entries "
               "(12 reg + 1 dev each), and scattered arrivals defeat "
               "poll batching."};
    e.runPoint = [points = e.points](std::size_t pi) {
        static constexpr std::uint32_t ws[] = {16, 256, 1024};
        static constexpr Tick jitters[] = {0, 40, 200};
        const std::string &label = points[pi];
        const StackConfig inOrder = paperCm5();
        RunResult rc, re;
        if (pi < 3) {
            rc = finiteRun({.words = ws[pi]});
            re = finiteRun({.words = ws[pi], .eventMode = true});
        } else if (pi < 6) {
            rc = streamRun({.words = ws[pi - 3]}, inOrder);
            re = streamRun({.words = ws[pi - 3], .eventMode = true},
                           inOrder);
        } else {
            StackConfig jcfg = inOrder;
            jcfg.maxJitter = jitters[pi - 6];
            rc = streamRun({.words = 256}, inOrder);
            re = streamRun({.words = 256, .eventMode = true}, jcfg);
        }
        const std::uint64_t cal = rc.counts.paperTotal();
        const std::uint64_t evt = re.counts.paperTotal();
        const bool ok = re.dataOk;
        const double extra = static_cast<double>(evt) /
                                 static_cast<double>(cal) -
                             1.0;
        return std::vector<Row>{
            {T(label), I(cal), I(evt), R(extra), okCell(ok)}};
    };
    return e;
}

// ------------------------------------------------------------------
// X4b — interrupt-driven reception (paper footnote 2).
// ------------------------------------------------------------------

Experiment
makeX4b()
{
    Experiment e;
    e.name = "X4b";
    e.title = "Reception discipline: poll vs interrupt (256-word "
              "stream, event mode)";
    e.columns = {"jitter", "poll instr", "intr instr", "traps",
                 "penalty", "ok"};
    e.points = {"0", "10", "40", "160"};
    e.notes = {"One ~98-instruction SPARC trap per service vs a "
               "13-instruction poll entry — footnote 2's rationale "
               "for polling."};
    e.runPoint = [](std::size_t pi) {
        static constexpr Tick jitters[] = {0, 10, 40, 160};
        const Tick jitter = jitters[pi];
        StackConfig cfg = paperCm5();
        cfg.maxJitter = jitter;

        StreamParams params{.words = 256, .eventMode = true};
        const auto polled = streamRun(params, cfg);
        Stack s2(cfg);
        params.discipline = RecvDiscipline::Interrupt;
        const auto intr = StreamProtocol(s2).run(params);

        const auto traps = s2.cmam(0).interruptsTaken() +
                           s2.cmam(1).interruptsTaken();
        const double penalty =
            static_cast<double>(intr.counts.paperTotal()) /
                static_cast<double>(polled.counts.paperTotal()) -
            1.0;
        return std::vector<Row>{
            {I(jitter), I(polled.counts.paperTotal()),
             I(intr.counts.paperTotal()), I(traps), R(penalty),
             okCell(polled.dataOk && intr.dataOk)}};
    };
    return e;
}

// ------------------------------------------------------------------
// X5 — protection: user-level vs kernel-mediated NI access.
// ------------------------------------------------------------------

Experiment
makeX5()
{
    Experiment e;
    e.name = "X5";
    e.title = "User-level vs kernel-mediated NI access (120 modeled "
              "instructions per crossing)";
    e.columns = {"workload", "user-level", "kernel", "blowup"};
    e.points = {"single packet", "finite 16", "finite 1024",
                "stream 16", "stream 1024"};
    e.notes = {"Per-packet user calls (streams) are crushed by "
               "per-call kernel crossings; batched calls (the xfer "
               "loop) amortize them (paper section 3.1/5)."};
    e.runPoint = [points = e.points](std::size_t pi) {
        auto runOne = [pi](bool kernel) -> std::uint64_t {
            StackConfig cfg =
                paperCm5(/*halfOoo=*/pi == 3 || pi == 4);
            cfg.kernelMediated = kernel;
            const std::uint32_t words = pi % 2 == 1 ? 16u : 1024u;
            const RunResult res =
                pi == 0  ? singlePacket(cfg)
                : pi < 3 ? finiteRun({.words = words}, cfg)
                         : streamRun({.words = words}, cfg);
            return res.counts.paperTotal();
        };
        const std::uint64_t user = runOne(false);
        const std::uint64_t kernel = runOne(true);
        return std::vector<Row>{
            {T(points[pi]), I(user), I(kernel),
             R(static_cast<double>(kernel) /
               static_cast<double>(user))}};
    };
    return e;
}

// ------------------------------------------------------------------
// X6 — wire vs software latency.
// ------------------------------------------------------------------

Experiment
makeX6()
{
    Experiment e;
    e.name = "X6";
    e.title = "Latency / bandwidth vs message size (event mode, "
              "link serialization 5 ticks/packet)";
    e.columns = {"words", "cmam wire", "cmam sw", "hl wire", "hl sw",
                 "sw ratio", "ok"};
    e.points = {"16", "64", "256", "1024", "4096"};
    e.notes = {"wire = simulated ticks to deliver and acknowledge; "
               "sw = modeled cycles under the Appendix A weighting. "
               "Both substrates saturate the same links; the "
               "software bill separates them."};
    e.runPoint = [](std::size_t pi) {
        static constexpr std::uint32_t ws[] = {16, 64, 256, 1024,
                                               4096};
        const std::uint32_t words = ws[pi];
        StackConfig cfg = paperCm5();
        cfg.memWords = 1u << 24;
        cfg.injectGap = 5;
        cfg.deliverGap = 5;
        const StreamParams p{
            .words = words, .eventMode = true, .retxTimeout = 100'000};
        const auto rc = streamRun(p, cfg);
        StackConfig hcfg = stackConfigFor(HostLayer::Hl);
        hcfg.memWords = 1u << 24;
        hcfg.injectGap = 5;
        hcfg.deliverGap = 5;
        const auto rh = streamRun(p, hcfg);

        const CostModel m = CostModel::cm5();
        const double swC = m.cycles(rc.counts);
        const double swH = m.cycles(rh.counts);
        return std::vector<Row>{
            {I(words), I(rc.elapsed), R(swC), I(rh.elapsed), R(swH),
             R(swC / swH), okCell(rc.dataOk && rh.dataOk)}};
    };
    return e;
}

// ------------------------------------------------------------------
// X7 — collectives over active messages.
// ------------------------------------------------------------------

Experiment
makeX7()
{
    Experiment e;
    e.name = "X7";
    e.title = "Collectives on active messages: cost vs machine size";
    e.columns = {"nodes",       "barrier msgs", "barrier instr",
                 "barrier t",   "bcast msgs",   "bcast instr",
                 "bcast t",     "allreduce msgs",
                 "allreduce instr", "allreduce t", "ok"};
    e.points = {"2", "4", "8", "16", "32", "64"};
    e.notes = {"Per-node cost grows as log2(N) x (send 20 + recv 27 "
               "+ handler work): the paper's single-packet numbers "
               "are the coin these algorithms spend."};
    e.runPoint = [](std::size_t pi) {
        static constexpr std::uint32_t nodes[] = {2, 4, 8, 16, 32,
                                                  64};
        const std::uint32_t n = nodes[pi];
        StackConfig cfg;
        cfg.nodes = n;
        Stack stack(cfg);
        Collectives coll(stack);

        const auto bar = coll.barrier();
        std::vector<Word> out;
        const auto bc = coll.broadcast(0, 42, out);
        std::vector<Word> in(n, 1), all;
        const auto ar =
            coll.allReduce(Collectives::ReduceOp::Sum, in, all);

        return std::vector<Row>{
            {I(n), I(bar.messages), I(bar.instructions),
             I(bar.elapsed), I(bc.messages), I(bc.instructions),
             I(bc.elapsed), I(ar.messages), I(ar.instructions),
             I(ar.elapsed), okCell(bar.ok && bc.ok && ar.ok)}};
    };
    return e;
}

// ------------------------------------------------------------------
// X8 — software flow control: window sweep.
// ------------------------------------------------------------------

Experiment
makeX8()
{
    Experiment e;
    e.name = "X8";
    e.title = "Ack-paced window sweep: 1024-word stream, link "
              "serialization 5 ticks/packet";
    e.columns = {"window", "elapsed", "words/kilotick", "acks", "ok"};
    e.points = {"1", "2", "4", "8", "16", "32", "64", "inf"};
    e.notes = {"Once the window covers the bandwidth-delay product, "
               "throughput saturates at the serialization limit — "
               "hardware end-to-end flow control (CR) gets this "
               "without any window bookkeeping."};
    e.runPoint = [points = e.points](std::size_t pi) {
        static constexpr std::uint32_t ws[] = {1, 2, 4, 8,
                                               16, 32, 64, 0};
        const std::uint32_t w = ws[pi];
        StackConfig cfg = paperCm5();
        cfg.memWords = 1u << 24;
        cfg.injectGap = 5;
        cfg.deliverGap = 5;
        const auto res = streamRun({.words = 1024,
                                    .eventMode = true,
                                    .retxTimeout = 200'000,
                                    .window = w},
                                   cfg);
        const double bw =
            res.elapsed
                ? 1000.0 * 1024.0 / static_cast<double>(res.elapsed)
                : 0.0;
        return std::vector<Row>{
            {T(points[pi]), I(res.elapsed), R(bw), I(res.acksSent),
             okCell(res.dataOk)}};
    };
    return e;
}

// ------------------------------------------------------------------
// X9 — traffic patterns.
// ------------------------------------------------------------------

Experiment
makeX9()
{
    Experiment e;
    e.name = "X9";
    e.title = "AM traffic patterns: 32 nodes, 64 messages/node, "
              "link serialization 5 ticks/packet";
    e.columns = {"pattern", "msgs", "instr/node", "imbalance",
                 "elapsed", "ok"};
    e.points = {"uniform", "permutation", "hotspot", "ring",
                "transpose"};
    e.notes = {"Hotspot traffic concentrates the per-packet receive "
               "cost on one processor — software overhead is also a "
               "load-balance problem."};
    e.runPoint = [](std::size_t pi) {
        static constexpr TrafficPattern patterns[] = {
            TrafficPattern::UniformRandom, TrafficPattern::Permutation,
            TrafficPattern::Hotspot, TrafficPattern::Ring,
            TrafficPattern::Transpose};
        const TrafficPattern pattern = patterns[pi];
        StackConfig cfg = paperCm5();
        cfg.nodes = 32;
        cfg.injectGap = 5;
        cfg.deliverGap = 5;
        cfg.maxJitter = 10;
        Stack stack(cfg);
        TrafficRunner runner(stack);
        TrafficGen gen(32, pattern, 77);
        const auto res = runner.run(gen, 64);
        return std::vector<Row>{
            {T(toString(pattern)), I(res.messages),
             R(res.perNodeInstr.mean()), R(res.maxOverMean),
             I(res.elapsed), okCell(res.ok)}};
    };
    return e;
}

// ------------------------------------------------------------------
// X10 — dual data networks (paper footnote 6).
// ------------------------------------------------------------------

Experiment
makeX10()
{
    Experiment e;
    e.name = "X10";
    e.title = "Dual data networks: replies ride virtual network 1 "
              "past a saturated request FIFO";
    e.columns = {"metric", "value"};
    e.points = {"all"};
    e.notes = {"Paper footnote 6: the CM-5's two data networks keep "
               "round trips safe when request traffic backs up; "
               "calibration counts are unchanged."};
    e.runPoint = [](std::size_t) {
        StackConfig cfg = paperCm5();
        cfg.nodes = 3;
        cfg.recvCapacity = 2; // per virtual network
        Stack stack(cfg);
        Node &dst = stack.node(1);
        const int h = stack.cmam(1).registerHandler(
            [](NodeId, const std::vector<Word> &) {});

        // Two requests fill vnet 0 on node 1; a third is refused.
        stack.cmam(0).am4(1, h, {1});
        stack.cmam(0).am4(1, h, {2});
        stack.settle();
        const auto depth0 = dst.ni().hwRecvDepth(0);
        stack.cmam(2).am4(1, h, {3});
        stack.machine().sim().run(500);
        const auto refusals = dst.ni().recvRefusals();
        const auto depth0After = dst.ni().hwRecvDepth(0);

        // A reply-class packet sails through on vnet 1.
        stack.cmam(2).sendTagged(
            HwTag::UserAm, 1,
            hdr::pack(static_cast<std::uint32_t>(h), 0), {99}, 4,
            /*vnet=*/1);
        stack.machine().sim().run(500);
        const auto depth1 = dst.ni().hwRecvDepth(1);

        // Calibration counts are unchanged by the dual-network NI.
        const auto sp = singlePacket();

        return std::vector<Row>{
            {T("request fifo depth (vnet 0) after fill"), I(depth0)},
            {T("recv refusals after third request"), I(refusals)},
            {T("request fifo depth (vnet 0) after refusal"),
             I(depth0After)},
            {T("reply fifo depth (vnet 1) after reply"), I(depth1)},
            {T("single-packet src instructions"),
             I(sp.counts.src.paperTotal())},
            {T("single-packet dst instructions"),
             I(sp.counts.dst.paperTotal())},
        };
    };
    return e;
}

// ------------------------------------------------------------------
// S1 — asymptotic overhead at large message sizes.
// ------------------------------------------------------------------

Experiment
makeS1()
{
    Experiment e;
    e.name = "S1";
    e.title = "Asymptotic overhead: the abstract's claims at large "
              "message sizes (16K-256K words)";
    e.columns = {"protocol", "words", "ooo f", "total instr",
                 "overhead", "ok"};
    e.points = {"fin 65536",     "fin 262144",    "ind 65536 f=.5",
                "ind 262144 f=.5", "ind 262144 f=.25",
                "ind 262144 f=0"};
    e.notes = {"Paper abstract: overhead is 50-70% 'in all cases "
               "except large transfers with known size'.  The 1024 "
               "-word tables are not an artifact of small messages: "
               "finite overhead settles near 11% (per-packet buffer "
               "and ordering work that no message size amortizes "
               "away), indefinite overhead converges to a size "
               "-independent ~71% plateau.",
               "These are the sweep's heavyweight points — the "
               "parallel runner overlaps them with the rest of the "
               "E-index."};
    e.runPoint = [points = e.points](std::size_t pi) {
        const bool finite = pi < 2;
        static constexpr std::uint32_t ws[] = {65536, 262144, 65536,
                                               262144, 262144, 262144};
        static constexpr double fs[] = {0, 0, 0.5, 0.5, 0.25, 0.0};
        const std::uint32_t words = ws[pi];
        const double f = fs[pi];

        StackConfig cfg = paperCm5();
        cfg.memWords = 1u << 22;
        if (f == 0.5)
            cfg.order = swapAdjacentFactory();
        else if (f > 0)
            cfg.order = pairSwapChanceFactory(f / (1.0 - f), 987);

        const RunResult res = finite ? finiteRun({.words = words}, cfg)
                                     : streamRun({.words = words}, cfg);
        return std::vector<Row>{
            {T(finite ? "finite" : "indefinite"), I(words), R(f),
             I(res.counts.paperTotal()),
             R(res.counts.overheadFraction()), okCell(res.dataOk)}};
    };
    return e;
}

// ------------------------------------------------------------------
// C1 — schedule-space model checking (PR 4): bounded-exhaustive
// exploration of every protocol stack, plus the seeded stream bug
// which the checker must catch and shrink to one decisive choice.
// ------------------------------------------------------------------

Experiment
makeC1()
{
    Experiment e;
    e.name = "C1";
    e.title = "Model checking: bounded-exhaustive schedule "
              "exploration of the protocol stacks";
    e.columns = {"scenario",  "schedules", "steps",
                 "exhausted", "verdict",   "counterexample"};
    e.points = {"single_packet cm5",  "single_packet cr",
                "finite_xfer cm5",    "stream cm5",
                "stream cm5 2-fault", "stream cr",
                "socket cm5",         "stream cm5 BUG"};
    e.notes = {"Each point re-executes every schedule in a fresh "
               "harness; the same config always yields the same "
               "counts (golden-gated).",
               "The BUG point re-introduces the ack-before-insert "
               "stream bug and reports the invariant the checker "
               "catches plus its ddmin-minimized schedule."};
    e.runPoint = [](std::size_t pi) {
        using namespace msgsim::check;
        static const char *const labels[] = {
            "single_packet cm5",  "single_packet cr",
            "finite_xfer cm5",    "stream cm5",
            "stream cm5 2-fault", "stream cr",
            "socket cm5",         "stream cm5 BUG"};
        ScenarioConfig sc;
        ExploreLimits lim;
        lim.budget = 100000;
        switch (pi) {
        case 0: // single_packet cm5
            sc.protocol = "single_packet";
            sc.packets = 3;
            lim.depth = 12;
            break;
        case 1: // single_packet cr
            sc.protocol = "single_packet";
            sc.substrate = Substrate::Cr;
            sc.packets = 4;
            sc.faults = 2;
            lim.depth = 12;
            break;
        case 2: // finite_xfer cm5
            sc.protocol = "finite_xfer";
            sc.packets = 3;
            lim.depth = 8;
            break;
        case 3: // stream cm5
            sc.protocol = "stream";
            sc.packets = 3;
            lim.depth = 8;
            break;
        case 4: // stream cm5, two faults, shallower horizon
            sc.protocol = "stream";
            sc.packets = 3;
            sc.faults = 2;
            lim.depth = 5;
            break;
        case 5: // stream cr
            sc.protocol = "stream";
            sc.substrate = Substrate::Cr;
            sc.packets = 3;
            lim.depth = 8;
            break;
        case 6: // socket cm5
            sc.protocol = "socket";
            sc.packets = 3;
            lim.depth = 8;
            break;
        default: // stream cm5 with the seeded bug
            sc.protocol = "stream";
            sc.packets = 3;
            sc.bugAckBeforeInsert = true;
            lim.depth = 8;
            break;
        }

        Explorer explorer(sc, lim);
        CheckReport rep = explorer.run();

        std::string verdict = "ok";
        Cell ce = Cell::null();
        if (rep.violations) {
            verdict = rep.counterexample.invariant;
            const Shrinker shrinker(explorer);
            const ShrinkResult shrunk =
                shrinker.shrink(rep.counterexample);
            std::string sched;
            for (const Choice &c : shrunk.schedule) {
                if (!sched.empty())
                    sched += "; ";
                sched += toString(c.kind);
                sched += ' ';
                sched += std::to_string(c.packetId);
            }
            ce = T(sched.empty() ? "(default policy)" : sched);
        }
        return std::vector<Row>{
            {T(labels[pi]), I(rep.schedulesRun), I(rep.stepsTotal),
             T(rep.exhausted ? "yes" : "no"), T(verdict), ce}};
    };
    return e;
}

// ------------------------------------------------------------------
// P2 — the profiler's headline differential (PR 5): run the same
// finite transfer through the CMAM/CM-5 stack and the CR stack and
// diff the per-feature instruction bill — the paper's "overhead that
// vanishes" table, golden-gated.
// ------------------------------------------------------------------

Experiment
makeP2()
{
    Experiment e;
    e.name = "P2";
    e.title = "Differential profile: 64-word finite transfer, "
              "CMAM/CM-5 vs CR (the overhead that vanishes)";
    e.columns = {"feature", "cm5/xfer", "cr/xfer", "status"};
    e.points = {"all"};
    e.notes = {"Computed by prof::differential() — the same code "
               "behind msgsim-prof --baseline; buffer management, "
               "in-order delivery and fault tolerance vanish on CR "
               "while the base cost stays put (paper sections 3-4)."};
    e.runPoint = [](std::size_t) {
        prof::ProfConfig pc;
        prof::ProfConfig bc = pc;
        bc.substrate = Substrate::Cr;
        const auto primary = prof::runProfiled(pc);
        const auto baseline = prof::runProfiled(bc);
        const auto diff =
            prof::differential(pc, primary, bc, baseline);
        std::vector<Row> rows;
        for (const prof::DiffRow &row : diff.rows)
            rows.push_back({T(toString(row.feature)),
                            paperCount(row.primary),
                            paperCount(row.baseline), T(row.status)});
        rows.push_back({T("Total"), I(diff.primaryTotal),
                        I(diff.baselineTotal), Cell::null()});
        return rows;
    };
    return e;
}

// ------------------------------------------------------------------
// M1 — the substrate × feature matrix (PR 7): every protocol on
// every substrate, with the per-feature instruction bill as columns.
// The classic two-column differential (P2) becomes one slice of this
// table; the modern substrates add the completion-poll, registration
// and host-dispatch columns the 1994 table had no need for.
// ------------------------------------------------------------------

Experiment
makeM1()
{
    Experiment e;
    e.name = "M1";
    e.title = "Substrate × feature matrix: per-feature instruction "
              "bill of each protocol on each substrate";
    e.columns = {"substrate", "protocol", "base", "buffer",
                 "in-order", "fault-tol", "compl-poll", "regist",
                 "dispatch", "total", "check"};
    e.points = {"cm5", "cr", "rdma", "nicam"};
    e.notes = {"Instruction counts from prof::runProfiled.",
               "On rdma the buffering/in-order/fault columns vanish "
               "but completion-poll and registration appear; on "
               "nicam the host dispatch column empties because the "
               "NIC runs the handlers itself.",
               "'total' is the paper-feature sum (base + buffer + "
               "in-order + fault-tol); the modern columns are "
               "itemized separately, as the paper itemizes its "
               "per-feature overheads."};
    e.runPoint = [](std::size_t pi) {
        static const char *const protos[] = {"single", "am4", "xfer",
                                             "stream"};
        std::vector<Row> rows;
        for (const char *proto : protos) {
            prof::ProfConfig pc;
            pc.protocol = proto;
            pc.substrate = allSubstrates[pi];
            const prof::ProfRun run = prof::runProfiled(pc);
            const auto &c = run.result.counts;
            rows.push_back(
                {T(toString(pc.substrate)), T(proto),
                 paperCount(c.featureTotal(Feature::BaseCost)),
                 paperCount(c.featureTotal(Feature::BufferMgmt)),
                 paperCount(
                     c.featureTotal(Feature::InOrderDelivery)),
                 paperCount(
                     c.featureTotal(Feature::FaultTolerance)),
                 paperCount(
                     c.featureTotal(Feature::CompletionPoll)),
                 paperCount(c.featureTotal(Feature::Registration)),
                 paperCount(run.result.dispatchOps),
                 I(c.paperTotal()), okCell(run.result.dataOk)});
        }
        return rows;
    };
    return e;
}

// ------------------------------------------------------------------
// H1 — host self-profile *counts*: scope entries and heap allocation
// traffic per subsystem under the PR 6 self-profiler.  Cycle costs
// are wall-clock and belong to perfbench; the counts are
// pure functions of the (deterministic) simulation and golden-gate
// that the instrumentation keeps firing from every layer.
// ------------------------------------------------------------------

Experiment
makeH1()
{
    Experiment e;
    e.name = "H1";
    e.title = "Host self-profile: scope entries and heap allocations "
              "per subsystem (counts only, golden-gated)";
    e.columns = {"workload", "subsystem", "enters", "allocs",
                 "alloc bytes", "check"};
    e.points = {"xfer cm5", "xfer cr", "stream cm5", "am4 round"};
    e.notes = {"Self cycles are host wall-clock and are measured "
               "by perfbench; this table pins only the "
               "deterministic counts.",
               "The (total) row's check verifies the share-sum "
               "identity: scopes balanced, enters == exits, and the "
               "per-node self costs summing exactly to the root "
               "total.",
               "Attachment is thread-local, so the concurrent sweep "
               "cannot observe another grid point's profiler."};
    e.runPoint = [](std::size_t pi) {
        hostprof::HostProfiler hp;
        hp.attach();
        const char *label = "";
        switch (pi) {
        case 0:
        case 1: {
            label = pi == 0 ? "xfer cm5" : "xfer cr";
            StackConfig cfg = paperCm5();
            if (pi == 1)
                cfg.substrate = Substrate::Cr;
            finiteRun({.words = 64}, cfg);
            break;
        }
        case 2:
            label = "stream cm5";
            streamRun({.words = 64}, paperCm5());
            break;
        default: {
            label = "am4 round";
            StackConfig cfg;
            cfg.nodes = 2;
            Stack stack(cfg);
            const int h = stack.cmam(1).registerHandler(
                [](NodeId, const std::vector<Word> &) {});
            for (int i = 0; i < 64; ++i) {
                stack.cmam(0).am4(1, h, {1, 2, 3, 4});
                stack.settle();
                stack.cmam(1).poll();
            }
            break;
        }
        }
        hp.detach();

        std::vector<Row> rows;
        std::uint64_t selfSum = 0;
        for (const auto &sub : hp.subsystems()) {
            selfSum += sub.selfCycles;
            rows.push_back({T(label), T(sub.name), I(sub.enters),
                            I(sub.allocs), I(sub.allocBytes),
                            Cell::null()});
        }
        const bool identity = hp.balanced() &&
                              hp.totalEnters() == hp.totalExits() &&
                              hp.totalEnters() > 0 &&
                              selfSum == hp.rootCycles();
        rows.push_back({T(label), T("(total)"), I(hp.totalEnters()),
                        I(hp.scopedAllocs()),
                        I(hp.scopedAllocBytes()),
                        okCell(identity)});
        return rows;
    };
    return e;
}

// ------------------------------------------------------------------
// W1 — traffic library: predicted vs measured, the golden-free gate.
// ------------------------------------------------------------------

/** Exact-intent agreement for composed floating-point sums. */
bool
w1Agree(double predicted, double measured)
{
    const double diff = std::fabs(predicted - measured);
    const double scale = std::max(
        1.0, std::max(std::fabs(predicted), std::fabs(measured)));
    return diff <= 1e-9 * scale;
}

Experiment
makeW1()
{
    Experiment e;
    e.name = "W1";
    e.title = "Traffic library vs analytic predictor: full "
              "pattern x protocol x substrate grid plus allreduce "
              "algorithms (golden-free: the model is the reference)";
    e.goldenExempt = true;
    e.columns = {"substrate", "workload", "variant", "msgs",
                 "predicted", "measured", "delta", "status"};
    e.points = {"cm5", "cr", "rdma", "nicam"};
    e.notes = {"Every per-event charge in traffic/engine.cc and "
               "coll/collectives.cc is a constant the predictor "
               "composes, so predicted == measured exactly; any "
               "drift in the charged protocol paths fails this gate "
               "without a golden file.",
               "Structural counts (fragments, acks, messages) are "
               "analytic; interleaving-dependent counts (polls, "
               "out-of-order arrivals) are realized, as in X1."};
    e.runPoint = [](std::size_t pi) {
        const Substrate sub = allSubstrates[pi];
        std::vector<Row> rows;

        // Traffic grid: 5 patterns x 3 protocols, 9 nodes, 5
        // messages of 5 words (3 fragments), jitter 3 so the
        // unordered fabrics realize reordering.
        static constexpr TrafficPattern patterns[] = {
            TrafficPattern::UniformRandom, TrafficPattern::Permutation,
            TrafficPattern::Hotspot, TrafficPattern::Incast,
            TrafficPattern::AllToAll};
        static constexpr TrafficProto protos[] = {
            TrafficProto::Am, TrafficProto::Seq, TrafficProto::Acked};
        for (const TrafficPattern pattern : patterns) {
            for (const TrafficProto proto : protos) {
                TrafficSpec spec;
                spec.pattern = pattern;
                spec.proto = proto;
                spec.nodes = 9;
                spec.messagesPerNode = 5;
                spec.sizeWords = 5;
                spec.seed = 1 + pi;
                spec.maxJitter = 3;
                Stack stack(trafficStackConfig(spec, sub));
                TrafficEngine engine(stack);
                const TrafficResult res = engine.run(spec);
                const TrafficPrediction pred =
                    predictTraffic(res.shape);

                bool ok = res.ok;
                for (int f = 0; f < numPaperFeatures; ++f) {
                    const CatCost &p = pred.feature[f];
                    const CatCost &m = res.measured[f];
                    ok = ok && w1Agree(p.reg, m.reg) &&
                         w1Agree(p.mem, m.mem) &&
                         w1Agree(p.dev, m.dev);
                }
                // The reliable, in-order fabrics must realize the
                // paper's "overheads vanish" argument: no reorder
                // stash activity, no fabric retransmissions.
                const NetFeatures hw = netFeatures(sub);
                if (hw.inOrderDelivery && hw.reliableDelivery)
                    ok = ok && res.shape.ooo == 0 &&
                         res.hwRetries == 0;
                // Structural counts are analytic.
                const std::uint64_t wantFrags =
                    9ull * 5 * spec.fragmentsPerMessage();
                ok = ok && res.shape.fragmentsSent == wantFrags;
                if (proto == TrafficProto::Acked)
                    ok = ok && res.shape.acksSent == 9ull * 5;

                rows.push_back(
                    {T(toString(sub)), T(toString(pattern)),
                     T(toString(proto)),
                     I(res.shape.fragmentsSent),
                     R(pred.grandTotal()),
                     R(res.measuredGrandTotal()),
                     R(res.measuredGrandTotal() -
                       pred.grandTotal()),
                     okCell(ok)});
            }
        }

        // Collective algorithms: allreduce on 8 nodes (power of two
        // for recursive doubling), message counts analytic.
        static const char *const algos[] = {"tree", "ring", "rd"};
        for (const char *name : algos) {
            Collectives::Algo algo;
            algoFromString(name, algo);
            StackConfig cfg;
            cfg.substrate = sub;
            cfg.nodes = 8;
            cfg.seed = 11 + pi;
            Stack stack(cfg);
            Collectives coll(stack);
            std::vector<Word> in(8), out;
            Word want = 0;
            for (std::uint32_t i = 0; i < 8; ++i) {
                in[i] = 10 * i + 3;
                want += in[i];
            }
            const auto res = coll.allReduce(
                Collectives::ReduceOp::Sum, in, out, algo);

            CollShape shape;
            shape.messages = res.messages;
            shape.delivered = res.messages;
            shape.polls = res.polls;
            const double predicted =
                predictCollective(shape).grandTotal();
            const double measured =
                static_cast<double>(res.instructions);

            bool ok = res.ok && w1Agree(predicted, measured) &&
                      res.messages == expectedCollMessages(name, 8);
            for (Word v : out)
                ok = ok && v == want;

            rows.push_back({T(toString(sub)), T("allreduce"),
                            T(name), I(res.messages), R(predicted),
                            R(measured), R(measured - predicted),
                            okCell(ok)});
        }
        return rows;
    };
    return e;
}

// ------------------------------------------------------------------
// F1 — the per-feature wire bill: the framed multi-stream transport
// (src/wire) on every substrate, clean and under deterministic CRC
// corruption.  The Framing column is the wire layer's own cost
// (marshal + COBS + CRC + mux), charged outside the four paper
// features so every classic table is untouched; on rdma the NIC
// does the framing inline and the column collapses to descriptor
// handling.
// ------------------------------------------------------------------

Experiment
makeF1()
{
    Experiment e;
    e.name = "F1";
    e.title = "Wire framing bill: per-feature instruction counts of "
              "the framed multi-stream transport on each substrate, "
              "clean and under CRC corruption";
    e.columns = {"substrate", "run", "framing", "base", "buffer",
                 "in-order", "fault-tol", "framed B", "delivered",
                 "crc rej", "retx", "stalls", "total", "check"};
    e.points = {"cm5", "cr", "rdma", "nicam"};
    e.notes = {"The multi-stream workload: 4 streams x 8 frames of "
               "6 words, window 4, riding one persistent channel "
               "pair through the normal CMAM/Accounting path.",
               "'framing' is Feature::Framing — appended after the "
               "paper features, so paperTotal() and every classic "
               "golden stay byte-identical; 'total' adds it on top.",
               "The corrupt run flips every 3rd DATA frame's CRC "
               "before transmit; the receiver's frame decoder "
               "rejects, the sequence gap dup-acks, and the wire "
               "timeout model resends — all counts deterministic.",
               "On rdma framing collapses to descriptor handling "
               "(the NIC gathers, stuffs and checksums inline): the "
               "differential's 'vanishes' row, golden-pinned here."};
    e.runPoint = [](std::size_t pi) {
        std::vector<Row> rows;
        for (const int corrupt : {0, 3}) {
            StackConfig cfg;
            cfg.substrate = allSubstrates[pi];
            cfg.nodes = 4;
            cfg.dataWords = 4;
            Stack stack(cfg);
            wire::WireWorkload w;
            w.corruptEvery = static_cast<std::uint32_t>(corrupt);
            const wire::WireRunResult res =
                wire::runWireWorkload(stack, w);
            const auto &c = res.run.counts;
            const std::uint64_t framing =
                c.featureTotal(Feature::Framing);
            rows.push_back(
                {T(toString(cfg.substrate)),
                 T(corrupt ? "corrupt" : "clean"), I(framing),
                 paperCount(c.featureTotal(Feature::BaseCost)),
                 paperCount(c.featureTotal(Feature::BufferMgmt)),
                 paperCount(
                     c.featureTotal(Feature::InOrderDelivery)),
                 paperCount(
                     c.featureTotal(Feature::FaultTolerance)),
                 I(res.wire.framedBytes),
                 I(res.wire.dataDelivered), paperCount(res.crcRejects),
                 paperCount(res.wire.wireRetransmits),
                 paperCount(res.wire.windowStalls),
                 I(c.paperTotal() + framing),
                 okCell(res.run.dataOk)});
        }
        return rows;
    };
    return e;
}

// ------------------------------------------------------------------
// O1 — time-series telemetry: the canonical congestion scenarios run
// twice, bare and with the sampler attached.  The golden pins (a)
// every simulation result — ticks, completions, backpressure,
// instructions, latency percentiles — which must be bit-identical
// sampler on or off (the zero-perturbation contract, folded into the
// check cell), and (b) the sampler's full track bytes via
// tracksDigest(), so any drift in probe coverage, sample instants or
// serialization shows up as a golden diff.
// ------------------------------------------------------------------

Experiment
makeO1()
{
    Experiment e;
    e.name = "O1";
    e.title = "Time-series telemetry: congestion scenarios sampled "
              "and bare, with bottleneck attribution and golden-"
              "pinned track bytes";
    e.columns = {"scenario", "substrate", "ticks", "completions",
                 "backpressure", "instr", "lat p50", "lat p99",
                 "tracks", "snapshots", "sat win", "top bottleneck",
                 "digest", "check"};
    e.points = {"incast-cm5", "incast-rdma", "wire-cm5"};
    e.notes = {"Each point runs its scenario twice — without and "
               "with a TeleSession attached (period 16) — and the "
               "check cell fails unless every simulation-result "
               "field matches exactly: attaching the sampler must "
               "not perturb the run.",
               "'top bottleneck' is the attribution report's "
               "verdict: the incast names the destination NI recv "
               "ring on cm5 and CQ-depth backpressure on rdma; the "
               "wire run names a stream send window.",
               "'digest' hashes the canonical track serialization "
               "(every sample of every track), pinning the sampled "
               "series byte-for-byte."};
    e.runPoint = [](std::size_t pi) {
        static const char *const kScen[] = {"incast", "incast", "wire"};
        static constexpr Substrate kSub[] = {
            Substrate::Cm5, Substrate::Rdma, Substrate::Cm5};
        tele::ScenarioOptions opt;
        opt.scenario = kScen[pi];
        opt.substrate = kSub[pi];
        const tele::ScenarioResult bare =
            tele::runScenario(opt, nullptr);
        tele::TeleSession sampler(
            {opt.period, opt.ringCapacity});
        const tele::ScenarioResult sampled =
            tele::runScenario(opt, &sampler);

        const bool unperturbed =
            bare.ok == sampled.ok &&
            bare.elapsed == sampled.elapsed &&
            bare.instrTotal == sampled.instrTotal &&
            bare.completions == sampled.completions &&
            bare.backpressure == sampled.backpressure &&
            bare.latencyP50 == sampled.latencyP50 &&
            bare.latencyP95 == sampled.latencyP95 &&
            bare.latencyP99 == sampled.latencyP99;
        const bool ok = sampled.ok && unperturbed &&
                        !sampled.topResource.empty() &&
                        sampled.saturatedWindows > 0;

        std::vector<Row> rows;
        rows.push_back(
            {T(kScen[pi]), T(toString(kSub[pi])),
             I(sampled.elapsed), I(sampled.completions),
             I(sampled.backpressure), R(sampled.instrTotal),
             R(sampled.latencyP50), R(sampled.latencyP99),
             I(sampled.trackCount), I(sampled.snapshots),
             I(sampled.saturatedWindows),
             T(sampled.topResource.empty() ? "-"
                                           : sampled.topResource),
             T(sampled.digest), okCell(ok)});
        return rows;
    };
    return e;
}

void
registerBuiltins(ExperimentRegistry &reg)
{
    reg.add(makeT1());
    reg.add(makeT2a());
    reg.add(makeT2b());
    reg.add(makeT3());
    reg.add(makeF6());
    reg.add(makeF8());
    reg.add(makeD1());
    reg.add(makeD2());
    reg.add(makeA1());
    reg.add(makeX1());
    reg.add(makeX2());
    reg.add(makeX3a());
    reg.add(makeX3b());
    reg.add(makeX4a());
    reg.add(makeX4b());
    reg.add(makeX5());
    reg.add(makeX6());
    reg.add(makeX7());
    reg.add(makeX8());
    reg.add(makeX9());
    reg.add(makeX10());
    reg.add(makeS1());
    reg.add(makeC1());
    reg.add(makeP2());
    reg.add(makeM1());
    reg.add(makeH1());
    reg.add(makeW1());
    reg.add(makeF1());
    reg.add(makeO1());
}

} // namespace

ExperimentRegistry &
builtinRegistry()
{
    static ExperimentRegistry reg = [] {
        ExperimentRegistry r;
        registerBuiltins(r);
        return r;
    }();
    return reg;
}

} // namespace msgsim::lab
