#!/usr/bin/env bash
# Repo verification: build, run the test suite, then drive one traced
# example end-to-end and check that the exported Chrome trace is
# valid JSON containing the six finite-xfer protocol steps and the
# bridged hardware packet events.
#
#   ./verify.sh                  full: configure + build + ctest (which
#                                includes the lab_golden gate) + traced
#                                run + every stage below
#   ./verify.sh --quick <binary> only the traced-run check, against an
#                                already-built bulk_transfer binary
#                                (this is what the CTest hook uses;
#                                it must NOT recurse into ctest)
#   ./verify.sh --sanitize       the checked lane: build tier-1 tests
#                                under ASan+UBSan in a separate build
#                                tree, which also defines MSGSIM_CHECKED
#                                (launch seals each packet's CRC, and
#                                the CRC check panics on a packet
#                                written in flight); fail unless ctest
#                                lists the two checked-only
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
#                                nicam with all three fault kinds), the
#                                seeded bug caught and replayed, and
#                                every committed replay
#   ./verify.sh --prof           only the profiler gate, against an
#                                already-built build/ tree: msgsim-prof
#                                artifacts on all four substrates, and
#                                the rdma / nicam matrix columns
#   ./verify.sh --hostprof       only the host self-profiler gate:
#                                msgsim-selfprof on its p1 workload
#                                (share sum, top-3, folded grammar),
#                                then its rdma and nicam pumps, whose
#                                host time must land in the rdma and
#                                nicam subsystems, none in cr or cm5
#   ./verify.sh --traffic        only the traffic gate: msgsim-traffic
#                                --predict smokes on every substrate
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

check_lab() {
    local lab="$repo_dir/build/src/lab/msgsim-lab"
    local tmpdir
    tmpdir="$(mktemp -d)"
    trap 'rm -rf "$tmpdir"' RETURN

    # Determinism gate: -j 1 and -j 8 artifacts must be byte-identical
    # (the goldens themselves are the lab_golden ctest).
    "$lab" --all -j 1 --quiet --json-out="$tmpdir/j1"
    "$lab" --all -j 8 --quiet --json-out="$tmpdir/j8"
    diff -r "$tmpdir/j1" "$tmpdir/j8"
    echo "lab ok: byte-deterministic sweep"
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

    # ... the seeded bug must be caught and shrunk ...
    if "$chk" --protocol=stream --packets=3 --faults=1 --depth=8 \
        --bug --quiet --ce-out="$tmpdir/ce.json"; then
        echo "model checker FAILED to catch the seeded bug" >&2
        return 1
    fi
    "$chk" --replay="$tmpdir/ce.json" --quiet

    # ... and every committed counterexample must still reproduce.
    local replay
    for replay in "$repo_dir"/tests/replays/*.json; do
        "$chk" --replay="$replay" --quiet
    done
    echo "check ok: deterministic, bug caught + replayed"
}

check_prof() {
    local prof="$repo_dir/build/src/prof/msgsim-prof"
    local tmpdir
    tmpdir="$(mktemp -d)"
    trap 'rm -rf "$tmpdir"' RETURN

    # A profiled run on each substrate produces the full artifact
    # set: folded stacks, waterfall, trace with lineage flows.
    local sub
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

check_hostprof() {
    local selfprof="$repo_dir/build/src/hostprof/msgsim-selfprof"
    local tmpdir
    tmpdir="$(mktemp -d)"
    trap 'rm -rf "$tmpdir"' RETURN

    # The profiled p1 workload must produce a breakdown whose shares
    # sum to 100% (+-1%), name a top-3, and export well-formed
    # folded stacks and JSON.
    "$selfprof" --workload=p1 --packets=50000 \
        --flame-out="$tmpdir/host.folded" \
        --json-out="$tmpdir/host.json" > "$tmpdir/stdout.txt"

    python3 - "$tmpdir/host.json" "$tmpdir/host.folded" \
        "$tmpdir/stdout.txt" <<'EOF'
import json, re, sys

doc = json.load(open(sys.argv[1]))
subs = doc["profile"]["subsystems"]
share = sum(s["share"] for s in subs)
assert abs(share - 1.0) <= 0.01, f"shares sum to {share}, not 1"
active = [s for s in subs if s["enters"] > 0]
assert len(active) >= 3, f"only {len(active)} active subsystems"
scopes = doc["profile"]["scopes"]
assert scopes["balanced"] and scopes["enters"] == scopes["exits"]
assert scopes["root_cycles"] > 0

# Folded grammar: ';'-joined space-free frames, ONE space, a count.
for line in open(sys.argv[2]):
    line = line.rstrip("\n")
    assert re.fullmatch(r"[^ ;]+(;[^ ;]+)+ \d+", line), \
        f"bad folded line: {line!r}"
    assert line.startswith("host;"), f"bad prefix: {line!r}"

text = open(sys.argv[3]).read()
assert "top cost centers:" in text, "selfprof report lacks a top-3"
assert "shares sum" in text, "selfprof report lacks the share sum"

print(f"selfprof ok: {len(active)} active subsystems, "
      f"share sum {share:.4f}, {scopes['enters']} scopes")
EOF

    # rdma runs CR's engine and nicam the CM-5's: each fabric's host
    # time must still land in its own subsystem, none in the engine's.
    local pair fabric engine
    for pair in rdma:cr nicam:cm5; do
        fabric="${pair%%:*}"
        engine="${pair##*:}"
        "$selfprof" --workload="$fabric" --packets=2000 \
            --json-out="$tmpdir/$fabric.json" > /dev/null
        python3 - "$tmpdir/$fabric.json" "$fabric" "$engine" <<'EOF'
import json, sys

doc = json.load(open(sys.argv[1]))
fabric, engine = sys.argv[2], sys.argv[3]
enters = {s["subsystem"]: s["enters"] for s in doc["profile"]["subsystems"]}
assert enters[fabric] > 0, f"{fabric} pump entered no {fabric} scope"
assert enters[engine] == 0, \
    f"{fabric} pump charged {enters[engine]} scopes to {engine}"
print(f"selfprof ok: {fabric} pump, {enters[fabric]} {fabric} scopes, "
      f"0 {engine}")
EOF
    done
    echo "hostprof ok: shares ~100%, top-3 and folded stacks well-formed;" \
        "rdma and nicam charged to their own subsystems"
}

check_traffic() {
    local traffic="$repo_dir/build/src/traffic/msgsim-traffic"

    # The CLI gate on every substrate: --predict exits non-zero on
    # any disagreement between the charged run and the model.
    local sub
    for sub in cm5 cr rdma nicam; do
        "$traffic" --pattern=incast --substrate="$sub" \
            --protocol=acked --nodes=8 --msgs=4 --size=5 \
            --predict --quiet
        "$traffic" --pattern=alltoall --substrate="$sub" \
            --protocol=seq --nodes=8 --msgs=4 --size=3 --jitter=5 \
            --predict --quiet
    done
    echo "traffic ok: CLI gate green on all substrates"
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
    # on 16 nodes and a deep event heap; a wire_stream rep its
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

if [[ "${1:-}" == "--traffic" ]]; then
    check_traffic
    echo "verify --traffic: OK"
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

if [[ "${1:-}" == "--hostprof" ]]; then
    check_hostprof
    echo "verify --hostprof: OK"
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
    cmake -B build-sanitize -S . \
        -DMSGSIM_ASAN=ON -DMSGSIM_UBSAN=ON > /dev/null
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
check_traced_run "$repo_dir/build/examples/bulk_transfer"
check_lab
check_model_checker
check_prof
check_hostprof
check_traffic
check_wire
check_tele
check_perfbench
echo "verify: OK"
