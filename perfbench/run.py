#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as a JSON line.

    python3 perfbench/run.py --workload desk-sweep --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
The run sets up ``n_setups`` times, then runs whole rounds of operations
until ``--seconds`` have passed (at least one round), then checks every
output.  ``--trace 0`` reports the end-to-end metrics, with each set-up and
round timed at a fixed host speed (``hostspeed.py``).  ``--trace 1`` traces
the set-ups, runs the rounds once untraced and once more traced (same seeds),
and reports the per-layer metrics and the tracing overhead; spans go to
``.bench_work/<workload>/spans.jsonl``.

The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; failed checks are listed
on standard error and make the exit code 1.  Without ``src/tumaloc`` the
command exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent


def run_rounds(wl, timed, seconds: float | None, n: int | None = None):
    """Whole rounds until ``seconds`` have passed, or exactly ``n`` rounds.

    Returns the rounds, their wall times and their wall times at gauge speed.
    """
    rounds, walls, at_ref = [], [], []
    start = time.perf_counter()
    r = 0
    while True:
        rd, wall, scaled = timed(wl.run_round, r)
        rounds.append(rd)
        walls.append(wall)
        at_ref.append(scaled)
        r += 1
        if (n is not None and r >= n) or (n is None and time.perf_counter() - start >= seconds):
            return rounds, walls, at_ref


def quality_metrics(recs: list[dict]) -> dict:
    def mean_ok(field, decoders):
        v = [r[field] for r in recs if r["status"] == "ok" and r["decoder"] in decoders]
        return statistics.fmean(v) if v else 0.0

    def median_time(decoder):
        v = [r["wall_time_s"] for r in recs if r["decoder"] == decoder]
        return statistics.median(v) if v else 0.0

    return {
        "metrics.tv_central": mean_ok("tv", ("centralized",)),
        "metrics.tv_dist": mean_ok("tv", ("distributed",)),
        "metrics.gospa_m": mean_ok("gospa", ("centralized", "distributed", "perfect")),
        "harness.central_run_s": median_time("centralized"),
        "harness.dist_run_s": median_time("distributed"),
        "harness.perfect_run_s": median_time("perfect"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    src = ROOT / "src"
    if not (src / "tumaloc" / "__init__.py").is_file():
        print(f"error: no tumaloc package under {src}", file=sys.stderr)
        return 2
    # One BLAS thread, set before numpy loads: on a 2-CPU machine two threads
    # made a paper-scale run 35 % faster but its time varied three times as much
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(src), str(HERE)]
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}

    import checks
    import hostspeed
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    work = ROOT / ".bench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    # no gauges inside traced calls: their time would land in the layers' self times
    timed = functools.partial(hostspeed.timed, period=0.0 if args.trace else hostspeed.PERIOD_S)
    capture = workloads.Capture()
    wl = workloads.WORKLOADS[args.workload](args.seed, work, capture)
    tracer = tracing.Tracer() if args.trace else None

    attempted = 0
    setup_times, setup_at_ref = [], []
    if tracer:
        tracer.install()
    for _ in range(wl.n_setups):
        ops, wall, scaled = timed(wl.setup)
        attempted += ops
        setup_times.append(wall)
        setup_at_ref.append(scaled)
    if tracer:
        tracer.uninstall()

    rounds, times, times_at_ref = run_rounds(wl, timed, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0   # before the checks
    failures = []
    if tracer:
        tracer.phase = "run"
        tracer.install()
        traced, traced_times, _ = run_rounds(wl, timed, None, n=len(rounds))
        tracer.uninstall()
        for i, (a, b) in enumerate(zip(wl.records(rounds), wl.records(traced))):
            failures += checks.records_identical(a, b, f"traced run {i} vs untraced")
        rounds_all = rounds + traced
    else:
        rounds_all = rounds
    attempted += sum(rd.ops for rd in rounds_all)
    n_failed = sum(rd.failed for rd in rounds_all)
    failures += wl.check(rounds)

    if tracer:
        metrics = tracing.layer_metrics(tracer, wl.n_setups, len(rounds), sum(setup_times),
                                      sum(traced_times), sum(times))
        metrics.update(quality_metrics(wl.records(rounds)))
        metrics["harness.run_wall_s"] = statistics.median(t / rd.ops for t, rd in zip(times, rounds))
        metrics["host.gauge_s"] = statistics.median(
            hostspeed.REF_S * t / s for t, s in zip(setup_times + times, setup_at_ref + times_at_ref))
        tracer.write(work / "spans.jsonl")
    else:
        # times at the gauge's reference speed: see hostspeed.py
        metrics = {
            "setup_s": statistics.median(setup_at_ref),
            "run_s": statistics.median(t / rd.ops for t, rd in zip(times_at_ref, rounds)),
            "peak_rss_mb": peak_rss_mb,
        }
    for msg in failures:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)
    print(f"{args.workload}: {len(rounds)} rounds, {attempted} operations, {n_failed} failed, "
          f"{len(failures)} failed checks", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": n_failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
