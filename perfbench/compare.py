#!/usr/bin/env python3
"""Run the benchmark in two sets and report whether the sets agree within its bounds.

    python3 perfbench/compare.py --seeds 10

Each of the two sets runs every workload of ``BENCHMARK.json`` once per seed
1..N, untraced, with its run length.  For every workload and end-to-end
metric it prints each set's median and spread (quartile distance over the
median, from ``statistics.quantiles(values, n=4)``) and a verdict: both
spreads stay within the metric's bound and the two medians differ by no more
than the bound, in either direction.  It also requires every run to be
correct and the failed share of operations to be the same in both sets.  Raw results go to ``.bench_work/compare.json``; the exit code is 1 when
any verdict fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(cmd: list[str], workload: str, seed: int, seconds: int) -> dict:
    args = cmd + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return {"correct": False, "attempted": 1, "failed": 0, "metrics": {}}
    return json.loads(lines[-1])


def spread(values: list[float]) -> float:
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, default=10)
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]

    results = {}
    for s in range(2):
        for name in names:
            for seed in range(1, args.seeds + 1):
                res = run_once(bench["command"], name, seed, bench["run_seconds"])
                results.setdefault(name, [[], []])[s].append(res)
                print(f"set {s + 1} {name} seed {seed}: correct={res['correct']} "
                      f"failed={res['failed']}/{res['attempted']}", file=sys.stderr, flush=True)
    out = ROOT / ".bench_work" / "compare.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(results))

    all_ok = True
    print(f"{'workload':14s} {'metric':12s} {'median 1':>11s} {'spread 1':>9s} "
          f"{'median 2':>11s} {'spread 2':>9s} {'differ':>9s} {'bound':>6s} verdict")
    for name in names:
        sets = results[name]
        correct = all(r["correct"] for runs in sets for r in runs)
        shares = {round(sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs), 12)
                  for runs in sets}
        for m in bench["end_to_end"]:
            vals = [[r["metrics"][m["name"]]["value"] for r in runs if m["name"] in r["metrics"]]
                    for runs in sets]
            if any(len(v) < 2 for v in vals):
                print(f"{name:14s} {m['name']:12s} missing values")
                all_ok = False
                continue
            meds = [statistics.median(v) for v in vals]
            spreads = [spread(v) for v in vals]
            differ = abs(meds[1] - meds[0]) / meds[0]
            ok = all(sp <= m["bound"] for sp in spreads) and differ <= m["bound"]
            all_ok &= ok
            print(f"{name:14s} {m['name']:12s} {meds[0]:11.5g} {spreads[0]:9.3f} {meds[1]:11.5g} "
                  f"{spreads[1]:9.3f} {differ:9.3f} {m['bound']:6.2f} {'agree' if ok else 'DISAGREE'}")
        ok = correct and len(shares) == 1
        all_ok &= ok
        print(f"{name:14s} correct={correct} failed shares={sorted(shares)} {'agree' if ok else 'DISAGREE'}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
