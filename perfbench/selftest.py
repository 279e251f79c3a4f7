#!/usr/bin/env python3
"""Smoke-size self-test of the benchmark (about half a minute).

    python3 perfbench/selftest.py

Checks, through perfbench/run.py exactly as a benchmark run uses it:
  - every workload, untraced and traced, emits every metric
    BENCHMARK.json names, with its unit, and passes its correctness
    gate on the stored seed;
  - a seed other than the stored one runs cleanly;
  - a deliberately wrong expected digest fails every rep
    (failed / attempted = 1).
Exits non-zero on the first failed check.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SECONDS = "0.3"


def run(workload, seed, trace, *extra):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", SECONDS,
           "--trace", str(trace), *extra]
    r = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                       timeout=900)
    if r.returncode != 0:
        sys.exit(f"FAIL: {' '.join(cmd)} exited {r.returncode}\n"
                 f"{r.stderr}")
    return json.loads(r.stdout.strip().splitlines()[-1])


def check(cond, what):
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        sys.exit(1)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    stored_seed = json.loads((HERE / "digests.json").read_text())["seed"]
    for w in (x["name"] for x in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            res = run(w, stored_seed, trace)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            check(got == want, f"{w} trace={trace}: all {len(want)} "
                               f"{key} metrics, with units")
            check(res["correct"] and res["failed"] == 0
                  and res["attempted"] >= 1,
                  f"{w} trace={trace}: {res['attempted']} reps, "
                  f"digests match")
            if trace == 0:
                check(all(v["value"] > 0
                          for v in res["metrics"].values()),
                      f"{w}: end-to-end metrics are non-zero")

        res = run(w, stored_seed + 1, 0)
        check(res["correct"], f"{w}: seed {stored_seed + 1} runs cleanly")

        res = run(w, stored_seed, 0, "--expect-digest", "0" * 16)
        check(not res["correct"] and res["attempted"] >= 1
              and res["failed"] == res["attempted"],
              f"{w}: wrong digest gives fail_frac = "
              f"{res['failed']}/{res['attempted']} = 1")


if __name__ == "__main__":
    main()
