#!/usr/bin/env bash
# Repo verification: configure, build and run the test suite, then
# the host-time benchmark gates.  Every other check is a ctest: the
# traced example's export, the golden gate, the lab's -j 1 / -j 8
# determinism pair, the model checker's quick sweeps, committed
# replays and --ce-out round trip, the profiler's, wire layer's and
# telemetry CLIs' artifacts, the traffic --predict smokes and the host
# self-profiler's checks.  So they run in the checked lane too.
#
#   ./verify.sh                  full: configure + build + ctest, then
#                                the --perfbench gates
#   ./verify.sh --perfbench      only the host-time benchmark gate:
#                                perfbench/selftest.py, then short
#                                traced runs whose heap allocations
#                                per packet must stay at or below
#                                0.01 (am_single), 0.15 (incast) and
#                                0.25 (wire_stream), and whose
#                                simulator events per packet must
#                                stay at or below 1, on every
#                                substrate; then short untraced runs
#                                whose peak heap per rep must stay at
#                                or below 0.02 MB (am_single), 0.30 MB
#                                (incast) and 0.12 MB (wire_stream)
#   ./verify.sh --sanitize       the checked lane: build tier-1 tests
#                                under ASan+UBSan and -Werror in a
#                                separate build tree, which also defines
#                                MSGSIM_CHECKED (launch seals each
#                                packet's CRC, and the CRC check panics
#                                on a packet written in flight); fail
#                                unless ctest lists the two checked-only
#                                *.PacketWrittenInFlightPanics tests,
#                                then run them all
#   ./verify.sh --tsan           build msgsim-lab and the threaded tests
#                                under ThreadSanitizer in a separate
#                                build tree; run those tests and a
#                                -j 4 golden sweep (every observer kind
#                                attached concurrently), halting on the
#                                first warning
#
# Any other argument is a usage error (exit 2).
set -euo pipefail

repo_dir="$(cd "$(dirname "$0")" && pwd)"

case "$#:${1:-}" in
    0: | 1:--perfbench | 1:--sanitize | 1:--tsan) ;;
    *) echo "usage: $0 [--perfbench | --sanitize | --tsan]" >&2; exit 2 ;;
esac

# gate_per_packet WORKLOAD MAX: a short traced perfbench run of
# WORKLOAD must be correct and report, on every substrate, at most MAX
# heap allocations and at most one simulator event per packet.
gate_per_packet() {
    local result
    result="$(cd "$repo_dir" && python3 perfbench/run.py \
        --workload "$1" --seconds 1 --trace 1 | tail -n 1)"
    python3 - "$1" "$2" "$result" <<'EOF'
import json, sys
workload, limit = sys.argv[1], float(sys.argv[2])
doc = json.loads(sys.argv[3])
assert doc["correct"], f"{workload} failed its correctness gate: {doc}"
for sub in ("cm5", "cr", "rdma", "nicam"):
    v = doc["metrics"][f"proc.allocs_per_pkt.{sub}"]["value"]
    assert v <= limit, \
        f"{workload} {sub}: {v} heap allocations per packet (max {limit})"
    e = doc["metrics"][f"sim.events_per_pkt.{sub}"]["value"]
    assert e <= 1, f"{workload} {sub}: {e} events per packet (max 1)"
    print(f"{workload} {sub}: {v:.4f} allocs/packet, {e:g} events/packet")
EOF
}

# gate_peak_heap WORKLOAD MAX_MB: a short untraced perfbench run of
# WORKLOAD must be correct and report a peak heap per rep
# (peak_heap_mb, the same on every run of a build) of at most MAX_MB.
gate_peak_heap() {
    local result
    result="$(cd "$repo_dir" && python3 perfbench/run.py \
        --workload "$1" --seconds 1 --trace 0 | tail -n 1)"
    python3 - "$1" "$2" "$result" <<'EOF'
import json, sys
workload, limit = sys.argv[1], float(sys.argv[2])
doc = json.loads(sys.argv[3])
assert doc["correct"], f"{workload} failed its correctness gate: {doc}"
v = doc["metrics"]["peak_heap_mb"]["value"]
assert v <= limit, f"{workload}: peak heap {v:.4f} MB per rep (max {limit})"
print(f"{workload}: peak heap {v:.4f} MB per rep")
EOF
}

check_perfbench() {
    # The benchmark's self-test (every metric emitted with its unit,
    # digest gate, a second seed), then the per-packet gates: the
    # steady-state packet and framed-stream paths allocate nothing, so
    # what a traced run reports is only first-use sizing of the pools,
    # rings and buffers (an incast rep also builds its traffic engine
    # on 16 nodes and a deep event queue; a wire_stream rep its
    # protocol channels and mux); and a packet costs the event loop
    # one typed event, no more.  Last, the heap gates: node memory is
    # backed only as far as it is written, so a rep's peak heap is
    # what its stack uses, not its capacity (a zeroed 64 KB page per
    # node put incast at 1.2 MB).
    (cd "$repo_dir" && python3 perfbench/selftest.py)
    gate_per_packet am_single 0.01
    gate_per_packet incast 0.15
    gate_per_packet wire_stream 0.25
    gate_peak_heap am_single 0.02
    gate_peak_heap incast 0.30
    gate_peak_heap wire_stream 0.12
    echo "perfbench ok: self-test passed, packet and stream paths allocation-free, one event per packet, peak heap per rep within its ceiling"
}

if [[ "${1:-}" == "--perfbench" ]]; then
    check_perfbench
    echo "verify --perfbench: OK"
    exit 0
fi

if [[ "${1:-}" == "--sanitize" ]]; then
    cd "$repo_dir"
    # -Werror: a new compiler warning fails the checked lane.
    cmake -B build-sanitize -S . \
        -DMSGSIM_ASAN=ON -DMSGSIM_UBSAN=ON -DCMAKE_CXX_FLAGS=-Werror \
        > /dev/null
    cmake --build build-sanitize -j"$(nproc)"
    # Compiled only under MSGSIM_CHECKED: a build that lost the
    # definition would otherwise pass without checking anything.
    checked="$(cd build-sanitize && ctest -N |
        grep -c '\.PacketWrittenInFlightPanics$' || true)"
    if [[ "$checked" -ne 2 ]]; then
        echo "verify --sanitize: ctest lists $checked of the 2" \
            "checked-build tests; is MSGSIM_CHECKED defined?" >&2
        exit 1
    fi
    (cd build-sanitize && ctest --output-on-failure -j"$(nproc)")
    echo "verify --sanitize: OK"
    exit 0
fi

if [[ "${1:-}" == "--tsan" ]]; then
    cd "$repo_dir"
    cmake -B build-tsan -S . \
        -DCMAKE_CXX_FLAGS="-fsanitize=thread" \
        -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread" > /dev/null
    cmake --build build-tsan -j"$(nproc)" --target msgsim-lab \
        test_hostprof test_obs_context test_lab
    export TSAN_OPTIONS="halt_on_error=1 exitcode=66"
    build-tsan/tests/test_hostprof \
        --gtest_filter='HostProf.AttachmentIsThreadLocal'
    build-tsan/tests/test_obs_context
    build-tsan/tests/test_lab --gtest_filter='LabRunner.*'
    build-tsan/src/lab/msgsim-lab --all -j 4 --quiet --check-golden
    echo "verify --tsan: OK"
    exit 0
fi

cd "$repo_dir"
cmake -B build -S . > /dev/null
cmake --build build -j"$(nproc)"
(cd build && ctest --output-on-failure -j"$(nproc)")
check_perfbench
echo "verify: OK"
