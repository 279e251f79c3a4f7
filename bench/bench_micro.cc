/**
 * @file
 * google-benchmark microbenchmarks of the simulator itself: packet
 * throughput through each substrate, protocol end-to-end runs, and
 * the accounting layer's charging rate.  These measure *our*
 * simulator (host wall-clock), not the modeled machine.
 */

#include <benchmark/benchmark.h>

#include "hlam/hl_stack.hh"
#include "protocols/finite_xfer.hh"
#include "protocols/single_packet.hh"
#include "protocols/stream.hh"

namespace msgsim
{
namespace
{

void
BM_Cm5PacketDelivery(benchmark::State &state)
{
    Simulator sim;
    Cm5Network::Config cfg;
    cfg.nodes = 16;
    Cm5Network net(sim, cfg);
    std::uint64_t got = 0;
    net.attach(1, [&got](Packet &) {
        ++got;
        return true;
    });
    for (auto _ : state) {
        net.inject(Packet(0, 1, HwTag::UserAm, 0, {1, 2, 3, 4}));
        sim.run();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(got));
}
BENCHMARK(BM_Cm5PacketDelivery);

void
BM_CrPacketDelivery(benchmark::State &state)
{
    Simulator sim;
    CrNetwork::Config cfg;
    cfg.nodes = 16;
    CrNetwork net(sim, cfg);
    std::uint64_t got = 0;
    net.attach(1, [&got](Packet &) {
        ++got;
        return true;
    });
    for (auto _ : state) {
        net.inject(Packet(0, 1, HwTag::UserAm, 0, {1, 2, 3, 4}));
        sim.run();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(got));
}
BENCHMARK(BM_CrPacketDelivery);

void
BM_SinglePacketAm(benchmark::State &state)
{
    StackConfig cfg;
    cfg.nodes = 2;
    Stack stack(cfg);
    const int h = stack.cmam(1).registerHandler(
        [](NodeId, const std::vector<Word> &) {});
    for (auto _ : state) {
        stack.cmam(0).am4(1, h, {1, 2, 3, 4});
        stack.settle();
        stack.cmam(1).poll();
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SinglePacketAm);

void
BM_FiniteXfer(benchmark::State &state)
{
    const auto words = static_cast<std::uint32_t>(state.range(0));
    StackConfig cfg;
    cfg.nodes = 2;
    cfg.memWords = 1u << 24;
    Stack stack(cfg);
    FiniteXfer proto(stack);
    for (auto _ : state) {
        FiniteXferParams p;
        p.words = words;
        benchmark::DoNotOptimize(proto.run(p));
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(
        state.iterations() * words * sizeof(Word)));
}
BENCHMARK(BM_FiniteXfer)->Arg(16)->Arg(1024)->Arg(16384);

void
BM_StreamHalfOoo(benchmark::State &state)
{
    const auto words = static_cast<std::uint32_t>(state.range(0));
    StackConfig cfg;
    cfg.nodes = 2;
    cfg.memWords = 1u << 24;
    cfg.order = swapAdjacentFactory();
    Stack stack(cfg);
    StreamProtocol proto(stack);
    for (auto _ : state) {
        StreamParams p;
        p.words = words;
        benchmark::DoNotOptimize(proto.run(p));
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(
        state.iterations() * words * sizeof(Word)));
}
BENCHMARK(BM_StreamHalfOoo)->Arg(16)->Arg(1024);

void
BM_HlStream(benchmark::State &state)
{
    const auto words = static_cast<std::uint32_t>(state.range(0));
    HlStackConfig cfg;
    cfg.nodes = 2;
    cfg.memWords = 1u << 24;
    HlStack stack(cfg);
    for (auto _ : state) {
        HlStreamParams p;
        p.words = words;
        benchmark::DoNotOptimize(runHlStream(stack, p));
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(
        state.iterations() * words * sizeof(Word)));
}
BENCHMARK(BM_HlStream)->Arg(16)->Arg(1024);

void
BM_AccountingCharge(benchmark::State &state)
{
    Accounting a;
    for (auto _ : state) {
        a.charge(OpClass::Reg, 1);
        benchmark::DoNotOptimize(a);
    }
}
BENCHMARK(BM_AccountingCharge);

void
BM_EventQueueChurn(benchmark::State &state)
{
    Simulator sim;
    for (auto _ : state) {
        for (int i = 0; i < 64; ++i)
            sim.schedule(static_cast<Tick>(i % 7), [] {});
        sim.run();
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * 64));
}
BENCHMARK(BM_EventQueueChurn);

} // namespace
} // namespace msgsim

BENCHMARK_MAIN();
