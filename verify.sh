#!/usr/bin/env bash
# Repo verification: build, run the test suite, then the gates no
# ctest makes.  The suite already drives one traced example end to
# end through --quick (the exported Chrome trace must be valid JSON
# holding the six finite-xfer protocol steps and the bridged
# hardware packet events), two traffic --predict smokes, the golden
# gate, the lab's -j 1 / -j 8 determinism pair, every committed
# model-checker replay and the host self-profiler's checks (its
# --smoke mode, its report's top-3 line, and each fabric's host time
# in its own subsystem).
#
#   ./verify.sh                  full: configure + build + ctest, then
#                                the --check, --prof, --wire, --tele
#                                and --perfbench stages
#   ./verify.sh --quick <binary> only the traced-run check, against an
#                                already-built bulk_transfer binary
#                                (this is what the CTest hook uses;
#                                it must NOT recurse into ctest)
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
#   ./verify.sh --check          only the model-checker gate, against
#                                an already-built build/ tree: report
#                                determinism (stream on cm5, and on
#                                nicam with all three fault kinds), and
#                                the seeded bug caught, written with
#                                --ce-out and replayed
#   ./verify.sh --prof           only the profiler gate, against an
#                                already-built build/ tree: msgsim-prof
#                                artifacts on all four substrates, each
#                                layer's transfer run by FiniteXfer, and
#                                the rdma / nicam matrix columns
#   ./verify.sh --wire           only the wire-layer gate: a
#                                CRC-corruption recovery smoke and the
#                                rdma framing-vanishes assertion
#   ./verify.sh --tele           only the telemetry gate: the Perfetto
#                                ph:"C" counter-track schema check and
#                                a heatmap/report smoke
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
set -euo pipefail

repo_dir="$(cd "$(dirname "$0")" && pwd)"

check_traced_run() {
    local binary="$1"
    local tmpdir
    tmpdir="$(mktemp -d)"
    trap 'rm -rf "$tmpdir"' RETURN

    "$binary" 64 --trace-out="$tmpdir/trace.json" \
        --metrics-out="$tmpdir/metrics.json" > "$tmpdir/stdout.txt"
    grep -q "integrity: ok" "$tmpdir/stdout.txt"

    python3 - "$tmpdir/trace.json" "$tmpdir/metrics.json" <<'EOF'
import json, sys

trace = json.load(open(sys.argv[1]))
events = trace["traceEvents"]
names = {(e.get("cat"), e.get("name")) for e in events}

steps = ["alloc_req", "seg_alloc", "alloc_reply", "data",
         "seg_free", "ack"]
missing = [s for s in steps if ("finite_xfer", s) not in names]
assert not missing, f"missing finite_xfer steps: {missing}"

hw = {n for c, n in names if c == "hw"}
assert {"inject", "deliver"} <= hw, f"missing hw instants: {hw}"

spans = [e for e in events if e.get("ph") == "X"]
assert spans, "no complete spans exported"
assert all("ts" in e and "dur" in e for e in spans)

metrics = json.load(open(sys.argv[2]))["metrics"]
mnames = {m["name"] for m in metrics}
assert any(n.startswith("trace.span.finite_xfer") for n in mnames), \
    f"span phase counters absent from the metrics dump: {sorted(mnames)[:8]}"
assert any(n.endswith("events_dispatched") for n in mnames)

print(f"trace ok: {len(events)} events, {len(spans)} spans, "
      f"{len(metrics)} metrics")
EOF
}

check_model_checker() {
    local chk="$repo_dir/build/src/check/msgsim-check"
    local tmpdir
    tmpdir="$(mktemp -d)"
    trap 'rm -rf "$tmpdir"' RETURN

    # The report must be byte-deterministic, on cm5 and on nicam with
    # all three fault kinds (duplicates included) ...
    local extra run
    for extra in "" "--substrate=nicam --fault-kinds=7"; do
        for run in a b; do
            # shellcheck disable=SC2086 # $extra is a list of flags
            "$chk" --protocol=stream $extra --packets=3 --faults=2 \
                --depth=5 --walks=50 --seed=7 --quiet \
                --json-out="$tmpdir/$run.json"
        done
        cmp "$tmpdir/a.json" "$tmpdir/b.json"
    done

    # ... and the seeded bug must be caught, shrunk, written out and
    # replayed (the committed replays are ctest's check_replay_*).
    if "$chk" --protocol=stream --packets=3 --faults=1 --depth=8 \
        --bug --quiet --ce-out="$tmpdir/ce.json"; then
        echo "model checker FAILED to catch the seeded bug" >&2
        return 1
    fi
    "$chk" --replay="$tmpdir/ce.json" --quiet
    echo "check ok: deterministic, bug caught + replayed"
}

check_prof() {
    local prof="$repo_dir/build/src/prof/msgsim-prof"
    local tmpdir
    tmpdir="$(mktemp -d)"
    trap 'rm -rf "$tmpdir"' RETURN

    # A profiled run on each substrate produces the full artifact
    # set: folded stacks, waterfall, trace with lineage flows.
    local sub pair
    for sub in cm5 cr rdma nicam; do
        "$prof" --protocol=xfer --substrate="$sub" \
            --flame-out="$tmpdir/$sub.folded" \
            --waterfall-out="$tmpdir/$sub.waterfall" \
            --trace-out="$tmpdir/$sub.trace.json" > /dev/null
        grep -q ';base_cost;' "$tmpdir/$sub.folded"
        grep -q 'send_sw' "$tmpdir/$sub.waterfall"
        grep -q '"ph":"s"' "$tmpdir/$sub.trace.json"
        grep -q '"bp":"e"' "$tmpdir/$sub.trace.json"
    done
    # Each substrate's own layer runs the one FiniteXfer engine: CMAM
    # on cm5, hl on cr, verbs on rdma and offload on nicam.
    for pair in cm5:cmam/xfer_send cr:cmam/xfer_send \
        rdma:rdma/post_send nicam:nicam/xfer_send; do
        grep -q "finite_xfer/data;${pair#*:}" "$tmpdir/${pair%%:*}.folded"
    done

    # The modern columns of the substrate x feature matrix: on rdma
    # the 1994 overheads vanish while completion-poll and
    # registration appear; on nicam the host dispatch bill vanishes.
    "$prof" --protocol=xfer --substrate=rdma --baseline \
        --json-out="$tmpdir/rdma.json" > /dev/null
    "$prof" --protocol=xfer --substrate=nicam --baseline \
        --json-out="$tmpdir/nicam.json" > /dev/null
    python3 - "$tmpdir/rdma.json" "$tmpdir/nicam.json" <<'EOF'
import json, sys

rdma = json.load(open(sys.argv[1]))
feats = {f["feature"]: f for f in rdma["features"]}
assert feats["buffer_mgmt"]["status"] == "vanishes", feats
assert feats["in_order"]["status"] == "vanishes", feats
assert feats["completion_poll"]["status"] == "appears", feats
assert feats["registration"]["status"] == "appears", feats
assert feats["completion_poll"]["baseline"] > 0, feats
assert feats["registration"]["baseline"] > 0, feats

nicam = json.load(open(sys.argv[2]))
disp = nicam["dispatch_ops"]
assert disp["primary"] > 0 and disp["baseline"] == 0, disp
assert disp["status"] == "vanishes", disp

print("matrix ok: rdma columns appear, nicam dispatch vanishes")
EOF
    echo "prof ok: artifacts produced, matrix columns hold"
}

check_wire() {
    local wire="$repo_dir/build/src/wire/msgsim-wire"
    local tmpdir
    tmpdir="$(mktemp -d)"
    trap 'rm -rf "$tmpdir"' RETURN

    # CRC-corruption smoke: flipping every 3rd DATA frame's CRC must
    # produce rejects, wire retransmits, and still a complete
    # in-order delivery — plus the rdma offload assertion: the same
    # clean workload's framing bill must collapse (>= 10x) on rdma
    # while the classic four columns stay identical.
    "$wire" --substrate=cm5 --corrupt-every=3 --quiet \
        --json-out="$tmpdir/corrupt.json"
    "$wire" --substrate=cm5 --quiet --json-out="$tmpdir/cm5.json"
    "$wire" --substrate=rdma --quiet --json-out="$tmpdir/rdma.json"
    python3 - "$tmpdir/corrupt.json" "$tmpdir/cm5.json" \
        "$tmpdir/rdma.json" <<'EOF'
import json, sys

def row(path):
    doc = json.load(open(path))
    return dict(zip(doc["columns"], doc["rows"][0]))

corrupt, cm5, rdma = (row(p) for p in sys.argv[1:4])
assert corrupt["ok"] == "ok", corrupt
assert corrupt["crc rej"] > 0, corrupt
assert corrupt["retx"] > 0, corrupt
assert corrupt["delivered"] == corrupt["frames"], corrupt

assert cm5["ok"] == "ok" and rdma["ok"] == "ok"
assert rdma["framing"] * 10 <= cm5["framing"], (cm5, rdma)
for col in ("base", "buffer", "inorder", "fault", "delivered"):
    assert cm5[col] == rdma[col], (col, cm5, rdma)

print(f"wire ok: crc rej {corrupt['crc rej']}, retx {corrupt['retx']}, "
      f"framing cm5 {cm5['framing']} vs rdma {rdma['framing']}")
EOF
    echo "wire ok: corruption recovered, rdma offload holds"
}

check_tele() {
    local tele="$repo_dir/build/src/tele/msgsim-tele"
    local tmpdir
    tmpdir="$(mktemp -d)"
    trap 'rm -rf "$tmpdir"' RETURN

    # The CLI end to end: summary JSON byte-identical across two
    # runs, heatmap + report emitted, and the counter-track timeline
    # a valid Chrome trace of ph:"C" samples over every layer.
    "$tele" --scenario=incast --substrate=cm5 --quiet \
        --json-out="$tmpdir/a.json" --heatmap-out="$tmpdir/heat.txt" \
        --report-out="$tmpdir/report.txt" \
        --timeline-out="$tmpdir/timeline.json"
    "$tele" --scenario=incast --substrate=cm5 --quiet \
        --json-out="$tmpdir/b.json"
    cmp "$tmpdir/a.json" "$tmpdir/b.json"
    grep -q 'ni.recv_ring\[0\]' "$tmpdir/heat.txt"
    grep -q 'NI recv ring' "$tmpdir/report.txt"

    "$tele" --scenario=incast --substrate=rdma --quiet \
        --report-out="$tmpdir/rdma-report.txt"
    grep -q 'completion queue' "$tmpdir/rdma-report.txt"

    python3 - "$tmpdir/timeline.json" "$tmpdir/heat.txt.json" \
        "$tmpdir/report.txt.json" <<'EOF'
import json, sys

trace = json.load(open(sys.argv[1]))
counters = [e for e in trace["traceEvents"] if e.get("ph") == "C"]
assert counters, "no ph:'C' counter samples exported"
assert all("ts" in e and "name" in e and "args" in e
           for e in counters), "malformed counter record"
layers = {e["name"].split("/")[-1].split(".")[0] for e in counters}
assert {"sim", "link", "ni", "traffic"} <= layers, \
    f"missing counter layers: {sorted(layers)}"

heat = json.load(open(sys.argv[2]))
assert heat["bins"] > 0 and heat["rows"], heat.keys()
assert all(len(r["values"]) == heat["bins"] for r in heat["rows"])

report = json.load(open(sys.argv[3]))
assert report["top_resource"] == "ni.recv_ring[0]", report
assert report["saturated"], "report found no saturated windows"

print(f"timeline ok: {len(counters)} counter samples over "
      f"{len(layers)} layers; report names {report['top_resource']}")
EOF
    echo "tele ok: counter timeline valid, bottlenecks attributed"
}

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

if [[ "${1:-}" == "--tele" ]]; then
    check_tele
    echo "verify --tele: OK"
    exit 0
fi

if [[ "${1:-}" == "--wire" ]]; then
    check_wire
    echo "verify --wire: OK"
    exit 0
fi

if [[ "${1:-}" == "--check" ]]; then
    check_model_checker
    echo "verify --check: OK"
    exit 0
fi

if [[ "${1:-}" == "--prof" ]]; then
    check_prof
    echo "verify --prof: OK"
    exit 0
fi

if [[ "${1:-}" == "--quick" ]]; then
    [[ $# -eq 2 ]] || { echo "usage: $0 --quick <bulk_transfer>" >&2; exit 2; }
    check_traced_run "$2"
    echo "verify --quick: OK"
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
check_model_checker
check_prof
check_wire
check_tele
check_perfbench
echo "verify: OK"
