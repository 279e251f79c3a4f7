#!/usr/bin/env python3
"""Build and run msgsim's host-time benchmark.

    python3 perfbench/run.py --workload am_single --seed 1 --seconds 10 --trace 0

Builds perfbench/ (which compiles ../src) into $CARGO_TARGET_DIR
(default .bench_build) under the repository root, runs the
msgsim-perfbench binary, and prints its metric table, a provenance
line, and as the last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list (the full per-layer table, including the
workload-specific layers, is printed above it).  For the seed recorded
in perfbench/digests.json every rep's digest of simulated outputs must
equal the stored one; --expect-digest overrides it (the self-test uses
a wrong one to prove the gate fires).
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SUBSTRATES = ("cm5", "cr", "rdma", "nicam")
WORKLOADS = ("am_single", "incast", "wire_stream")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    return (ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
            / "perfbench")


def build(bdir):
    """Configure once, then build msgsim-perfbench; returns its path."""
    log = bdir.parent / "perfbench-build.log"
    bdir.mkdir(parents=True, exist_ok=True)
    with open(log, "w") as out:
        if not (bdir / "CMakeCache.txt").exists():
            cmd = ["cmake", "-S", str(HERE), "-B", str(bdir),
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                shutil.rmtree(bdir, ignore_errors=True)
                fail(f"configure failed, see {log}")
        jobs = str(min(4, os.cpu_count() or 1))
        cmd = ["cmake", "--build", str(bdir), "--target",
               "msgsim-perfbench", "-j", jobs]
        if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                          cwd=ROOT).returncode != 0:
            fail(f"build failed, see {log}")
    return bdir / "msgsim-perfbench"


def git_sha():
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def tree_hash():
    """sha256 over the measured sources, for checkouts without git."""
    h = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for p in sorted(top.rglob("*")):
            if p.is_file():
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--expect-digest", metavar="HEX",
                    help="expected digest for every substrate "
                         "(default: perfbench/digests.json for its seed)")
    args = ap.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no msgsim sources under {ROOT / 'src'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    bdir = build_dir()
    binary = build(bdir)

    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out",
                str(bdir / f"trace-{args.workload}-seed{args.seed}.json")]
    stored = json.loads((HERE / "digests.json").read_text())
    if args.expect_digest is not None:
        expect = {s: args.expect_digest for s in SUBSTRATES}
    elif args.seed == stored["seed"]:
        expect = stored["digests"][args.workload]
    else:
        expect = {}
    for sub, hexd in sorted(expect.items()):
        cmd += ["--expect", f"{sub}={hexd}"]

    try:
        r = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish in {RUN_TIMEOUT_S} s")
    sys.stderr.write(r.stderr)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        fail(f"msgsim-perfbench exited with {r.returncode}")
    result = json.loads(lines[-1])

    prov = dict(result["provenance"], git_sha=git_sha(),
                tree_sha256=tree_hash())
    prov["comparable"] = prov["optimized"] and not prov["sanitized"]
    if not prov["comparable"]:
        print("perfbench: WARNING: debug or sanitizer build; these "
              "numbers are not comparable", file=sys.stderr)
    result["provenance"] = prov
    results = bdir / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(result, indent=1) + "\n")

    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            fail(f"metric {m['name']} [{m['unit']}] missing or "
                 f"mis-united: {got}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}

    for line in lines[:-1]:
        print(line)
    print("digests: " + json.dumps(result["digests"], sort_keys=True))
    print("provenance: " + json.dumps(prov, sort_keys=True))
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
