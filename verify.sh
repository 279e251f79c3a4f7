#!/usr/bin/env bash
# Repo verification: build, run the test suite, then drive one traced
# example end-to-end and check that the exported Chrome trace is
# valid JSON containing the six finite-xfer protocol steps and the
# bridged hardware packet events.
#
#   ./verify.sh                  full: configure + build + ctest + traced run
#                                + lab golden/determinism gate
#   ./verify.sh --quick <binary> only the traced-run check, against an
#                                already-built bulk_transfer binary
#                                (this is what the CTest hook uses;
#                                it must NOT recurse into ctest)
#   ./verify.sh --sanitize       build tier-1 tests under ASan+UBSan
#                                in a separate build tree and run them
#   ./verify.sh --check          only the model-checker gate, against
#                                an already-built build/ tree
#   ./verify.sh --prof           only the profiler gate, against an
#                                already-built build/ tree: msgsim-prof
#                                on both substrates, the differential
#                                table against its committed golden,
#                                and a BENCH_throughput.json refresh
#   ./verify.sh --hostprof       only the host self-profiler gate:
#                                H1 against its golden, msgsim-selfprof
#                                on the P1 workload (share sum, top-3,
#                                folded grammar), and the wall-clock
#                                append to the bench trajectory
#   ./verify.sh --traffic        only the traffic gate: W1 (the
#                                golden-free predicted-vs-measured
#                                grid) byte-identical across -j,
#                                msgsim-traffic --predict smokes on
#                                every substrate, and the incast /
#                                alltoall bench trajectory entries
#   ./verify.sh --wire           only the wire-layer gate: F1 (the
#                                per-feature framing bill) against its
#                                golden and byte-identical across -j,
#                                a CRC-corruption recovery smoke, the
#                                rdma framing-vanishes assertion, and
#                                the framed-bytes/s trajectory entry
#   ./verify.sh --tele           only the telemetry gate: O1 (sampled
#                                scenarios + track digests) against
#                                its golden and byte-identical across
#                                -j, the Perfetto ph:"C" counter-track
#                                schema check, a heatmap/report smoke,
#                                and the samples/s trajectory entry
#   ./verify.sh --perfbench      only the host-time benchmark gate:
#                                perfbench/selftest.py, then a short
#                                traced am_single run whose heap
#                                allocations per packet must stay at
#                                or below 0.01 on every substrate
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

    # Golden gate: every deterministic experiment must reproduce the
    # checked-in paper cells, at full parallelism.
    (cd "$repo_dir" && "$lab" --all --check-golden -j 8 --quiet)

    # Determinism gate: -j 1 and -j 8 artifacts must be byte-identical.
    "$lab" --all -j 1 --quiet --json-out="$tmpdir/j1"
    "$lab" --all -j 8 --quiet --json-out="$tmpdir/j8"
    diff -r "$tmpdir/j1" "$tmpdir/j8"
    echo "lab ok: golden gate + byte-deterministic sweep"
}

check_model_checker() {
    local chk="$repo_dir/build/src/check/msgsim-check"
    local tmpdir
    tmpdir="$(mktemp -d)"
    trap 'rm -rf "$tmpdir"' RETURN

    # Bounded-exhaustive exploration of the core protocols must come
    # back clean...
    "$chk" --protocol=single_packet --packets=3 --faults=1 \
        --depth=12 --quiet
    "$chk" --protocol=stream --packets=3 --faults=1 --depth=8 --quiet
    "$chk" --protocol=socket --packets=3 --faults=1 --depth=6 --quiet

    # ... including on the modern substrates: rdma constrains the
    # schedule space to reliable in-order interleavings (the QP
    # guarantee), nicam keeps the full CM-5 drop/duplicate space and
    # software recovery must still be exactly-once.
    "$chk" --protocol=single_packet --substrate=rdma --packets=4 \
        --depth=12 --quiet
    "$chk" --protocol=single_packet --substrate=nicam --packets=3 \
        --faults=1 --fault-kinds=5 --depth=12 --quiet
    "$chk" --protocol=stream --substrate=nicam --packets=3 \
        --faults=1 --depth=8 --quiet

    # ... the report must be byte-deterministic ...
    "$chk" --protocol=stream --packets=3 --faults=2 --depth=5 \
        --walks=50 --seed=7 --quiet --json-out="$tmpdir/a.json"
    "$chk" --protocol=stream --packets=3 --faults=2 --depth=5 \
        --walks=50 --seed=7 --quiet --json-out="$tmpdir/b.json"
    cmp "$tmpdir/a.json" "$tmpdir/b.json"

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
    echo "check ok: exhaustive exploration clean, deterministic, bug caught + replayed"
}

check_prof() {
    local prof="$repo_dir/build/src/prof/msgsim-prof"
    local lab="$repo_dir/build/src/lab/msgsim-lab"
    local tmpdir
    tmpdir="$(mktemp -d)"
    trap 'rm -rf "$tmpdir"' RETURN

    # A profiled run on each substrate produces the full artifact
    # set: folded stacks, waterfall, trace with lineage flows.
    local sub
    for sub in cm5 cr; do
        "$prof" --protocol=xfer --substrate="$sub" \
            --flame-out="$tmpdir/$sub.folded" \
            --waterfall-out="$tmpdir/$sub.waterfall" \
            --trace-out="$tmpdir/$sub.trace.json" > /dev/null
        grep -q ';base_cost;' "$tmpdir/$sub.folded"
        grep -q 'send_sw' "$tmpdir/$sub.waterfall"
        grep -q '"ph":"s"' "$tmpdir/$sub.trace.json"
        grep -q '"bp":"e"' "$tmpdir/$sub.trace.json"
    done

    # The differential table must match the committed golden (the
    # same pattern as the --check gate's pinned counterexamples).
    "$prof" --protocol=xfer --substrate=cm5 --baseline=cr \
        --json-out="$tmpdir/diff.json" > /dev/null
    cmp "$tmpdir/diff.json" \
        "$repo_dir/tests/golden/prof_differential.json"

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

    # The full 4-substrate x 4-protocol matrix is pinned as the M1
    # golden (byte-deterministic instruction counts).
    (cd "$repo_dir" && "$lab" M1 --check-golden --quiet)

    # Refresh the perf trajectory: P1 now times the profiled
    # comparison as its fifth wall-clock point.
    (cd "$repo_dir" && "$lab" --bench-out=BENCH_throughput.json \
        --bench-label=p1 --quiet P1 > /dev/null)
    echo "prof ok: artifacts produced, differential matches golden"
}

check_hostprof() {
    local selfprof="$repo_dir/build/src/hostprof/msgsim-selfprof"
    local lab="$repo_dir/build/src/lab/msgsim-lab"
    local tmpdir
    tmpdir="$(mktemp -d)"
    trap 'rm -rf "$tmpdir"' RETURN

    # The deterministic host-cost experiment must reproduce its
    # golden: scope/alloc counts are pinned, cycle costs are not.
    (cd "$repo_dir" && "$lab" H1 --check-golden --quiet)

    # A profiled P1 workload must produce a breakdown whose shares
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

    # Append the selfprof wall-clock entry; the trajectory must keep
    # at least two labelled entries (p1 refresh + selfprof).
    (cd "$repo_dir" && "$selfprof" --workload=p1 --packets=50000 \
        --bench-append=BENCH_throughput.json \
        --bench-label=selfprof > /dev/null)
    python3 - "$repo_dir/BENCH_throughput.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
entries = doc["entries"]
labels = [e["label"] for e in entries]
assert len(entries) >= 2, f"trajectory has {len(entries)} entries"
assert "selfprof" in labels, f"selfprof entry missing: {labels}"
print(f"bench trajectory ok: {len(entries)} entries {labels}")
EOF
    echo "hostprof ok: H1 golden, shares ~100%, trajectory appended"
}

check_traffic() {
    local traffic="$repo_dir/build/src/traffic/msgsim-traffic"
    local lab="$repo_dir/build/src/lab/msgsim-lab"
    local tmpdir
    tmpdir="$(mktemp -d)"
    trap 'rm -rf "$tmpdir"' RETURN

    # W1: the analytic predictor gates the full pattern x protocol x
    # substrate grid with zero drift — golden-free by design (the
    # model IS the reference) but required byte-identical across -j.
    (cd "$repo_dir" && "$lab" W1 -j 1 --quiet --json-out="$tmpdir/j1")
    (cd "$repo_dir" && "$lab" W1 -j 8 --quiet --json-out="$tmpdir/j8")
    cmp "$tmpdir/j1/W1.json" "$tmpdir/j8/W1.json"
    if grep -q DRIFT "$tmpdir/j1/W1.json"; then
        echo "W1 reports predicted-vs-measured DRIFT" >&2
        return 1
    fi

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

    # Wall-clock throughput points for the perf trajectory: the two
    # headline datacenter patterns.
    (cd "$repo_dir" && "$traffic" --pattern=incast --substrate=rdma \
        --protocol=acked --nodes=16 --msgs=64 --size=8 --quiet \
        --bench-out=BENCH_throughput.json --bench-label=incast)
    (cd "$repo_dir" && "$traffic" --pattern=alltoall --substrate=cm5 \
        --protocol=am --nodes=16 --msgs=32 --size=8 --quiet \
        --bench-out=BENCH_throughput.json --bench-label=alltoall)
    python3 - "$repo_dir/BENCH_throughput.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
labels = [e["label"] for e in doc["entries"]]
assert "incast" in labels and "alltoall" in labels, labels
print(f"bench trajectory ok: {labels}")
EOF
    echo "traffic ok: W1 drift-free + byte-identical, CLI gate green on all substrates"
}

check_wire() {
    local wire="$repo_dir/build/src/wire/msgsim-wire"
    local lab="$repo_dir/build/src/lab/msgsim-lab"
    local tmpdir
    tmpdir="$(mktemp -d)"
    trap 'rm -rf "$tmpdir"' RETURN

    # F1: the per-feature framing bill on all four substrates, clean
    # and under CRC corruption, must reproduce its golden and be
    # byte-identical across -j.
    (cd "$repo_dir" && "$lab" F1 --check-golden --quiet)
    (cd "$repo_dir" && "$lab" F1 -j 1 --quiet --json-out="$tmpdir/j1")
    (cd "$repo_dir" && "$lab" F1 -j 8 --quiet --json-out="$tmpdir/j8")
    cmp "$tmpdir/j1/F1.json" "$tmpdir/j8/F1.json"

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

    # Framed-bytes/s wall-clock point for the perf trajectory.
    (cd "$repo_dir" && "$wire" --substrate=cm5 --streams=8 \
        --frames=64 --quiet --bench-out=BENCH_throughput.json \
        --bench-label=wire)
    python3 - "$repo_dir/BENCH_throughput.json" <<'EOF'
import json, sys
labels = [e["label"] for e in json.load(open(sys.argv[1]))["entries"]]
assert "wire" in labels, labels
print(f"bench trajectory ok: {labels}")
EOF
    echo "wire ok: F1 golden + byte-identical, corruption recovered, rdma offload holds"
}

check_tele() {
    local tele="$repo_dir/build/src/tele/msgsim-tele"
    local lab="$repo_dir/build/src/lab/msgsim-lab"
    local tmpdir
    tmpdir="$(mktemp -d)"
    trap 'rm -rf "$tmpdir"' RETURN

    # O1: the sampled congestion scenarios — simulation results
    # (which must be sampler-invariant), bottleneck verdicts and the
    # golden-pinned track digests — against the committed golden, and
    # byte-identical across -j.
    (cd "$repo_dir" && "$lab" O1 --check-golden --quiet)
    (cd "$repo_dir" && "$lab" O1 -j 1 --quiet --json-out="$tmpdir/j1")
    (cd "$repo_dir" && "$lab" O1 -j 8 --quiet --json-out="$tmpdir/j8")
    cmp "$tmpdir/j1/O1.json" "$tmpdir/j8/O1.json"

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

    # Sampling-throughput wall-clock point for the perf trajectory.
    (cd "$repo_dir" && "$tele" --scenario=incast --substrate=rdma \
        --quiet --bench-out=BENCH_throughput.json --bench-label=tele)
    python3 - "$repo_dir/BENCH_throughput.json" <<'EOF'
import json, sys
labels = [e["label"] for e in json.load(open(sys.argv[1]))["entries"]]
assert "tele" in labels, labels
print(f"bench trajectory ok: {labels}")
EOF
    echo "tele ok: O1 golden + byte-identical, counter timeline valid, bottlenecks attributed"
}

# gate_allocs WORKLOAD MAX: a short traced perfbench run of WORKLOAD
# must be correct and report at most MAX heap allocations per packet
# on every substrate.
gate_allocs() {
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
    print(f"{workload} allocs/packet {sub}: {v:.4f}")
EOF
}

check_perfbench() {
    # The benchmark's self-test (every metric emitted with its unit,
    # digest gate, a second seed), then the allocation gates: the
    # steady-state packet and framed-stream paths allocate nothing, so
    # what a traced run reports is only first-use sizing of the pools,
    # rings and buffers (a wire_stream rep also builds its protocol
    # channels and mux).
    (cd "$repo_dir" && python3 perfbench/selftest.py)
    gate_allocs am_single 0.01
    gate_allocs wire_stream 0.25
    echo "perfbench ok: self-test passed, packet and stream paths allocation-free"
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
    (cd build-sanitize && ctest --output-on-failure -j"$(nproc)")
    echo "verify --sanitize: OK"
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
