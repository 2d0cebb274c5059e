#!/usr/bin/env python3
"""Show that every correctness check can fail.

    python3 perfbench/selftest.py

Each check is fed one clean input, taken from a short run of the program,
and one deliberately corrupted copy of it (W2 + 1e-6, a permuted decoded
type, a prior entry off by 1e-9, ...).  The command prints one line per
check and exits with code 1 unless every check passes the clean input and
fails the corrupted one.  It takes about ten seconds.
"""

from __future__ import annotations

import copy
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from tumaloc import harness, priors, scene as scene_mod  # noqa: E402
from tumaloc.config import build_topology, desk_preset, paper_preset  # noqa: E402


def bumped(rec: dict, **delta) -> dict:
    out = dict(rec)
    for k, v in delta.items():
        out[k] = v(out[k]) if callable(v) else out[k] + v
    return out


def main() -> int:
    capture = workloads.Capture()
    cfg = paper_preset()
    ctx = harness.prepare_context(cfg, need_prior=False)
    capture.take()
    rec = harness.run_single(ctx, "perfect", 12345)
    sc = capture.take()[0]
    pd = scene_mod.detection_prob_array(sc.sensors, sc.targets, cfg)
    t_true = checks.true_type(sc, 10, cfg.area_side)
    T, c, p = cfg.T_targets, cfg.c_gospa, cfg.p_order

    desk = desk_preset()
    msg = np.random.default_rng(0).dirichlet(np.ones(desk.M), size=desk.U)
    prior = priors.build_prior(desk, 0.34, msg)
    bad_pmf = copy.copy(prior)
    object.__setattr__(bad_pmf, "pmf", prior.pmf * (1 + 1e-9))
    bad_msg = copy.copy(prior)
    object.__setattr__(bad_msg, "msg_probs", prior.msg_probs * 1.001)
    n_prog = 4000
    p_prog = priors.compute_p_active(desk, build_topology(desk), n_prog)
    est = checks.p_active_estimate(desk, 2000, 500, seed=7)

    gen = np.random.default_rng(1)
    runs = gen.normal(0.365, 0.07, size=30)
    hist_num, hist_den = gen.binomial(60, 0.351, size=30).astype(float), np.full(30, 60.0)

    cases = [
        ("status in {ok, empty-type, no-active-sensors}",
         lambda: checks.statuses([rec]), lambda: checks.statuses([bumped(rec, status=lambda s: "decode-error:2")])),
        ("0 <= tv <= 1",
         lambda: checks.tv_in_unit_interval([rec]), lambda: checks.tv_in_unit_interval([bumped(rec, tv=1.2)])),
        ("p_md = 1 - T_d/T",
         lambda: checks.misdetection([rec], T), lambda: checks.misdetection([bumped(rec, p_md=1e-6)], T)),
        ("GOSPA from (w_p, T_d, T, c, p)",
         lambda: checks.gospa([rec], T, c, p), lambda: checks.gospa([bumped(rec, gospa=1e-6)], T, c, p)),
        ("W2 closed form",
         lambda: checks.w2_closed_form(rec["w_p"], sc, 10, cfg.area_side, "clean"),
         lambda: checks.w2_closed_form(rec["w_p"] + 1e-6, sc, 10, cfg.area_side, "W2 + 1e-6")),
        ("T_d = distinct reported targets",
         lambda: checks.detected_count(rec["T_d"], sc, "clean"),
         lambda: checks.detected_count(rec["T_d"] + 1, sc, "T_d + 1")),
        ("detection probability vs scipy ncx2",
         lambda: checks.detection_probs(pd, sc.sensors, sc.targets, cfg, "clean"),
         lambda: checks.detection_probs(pd + np.eye(*pd.shape) * 1e-8, sc.sensors, sc.targets, cfg, "pd + 1e-8")),
        ("decoded type is a probability vector",
         lambda: checks.probability_vector(t_true, "clean"),
         lambda: checks.probability_vector(t_true * 1.001, "t_hat * 1.001")),
        ("tv recomputed from t_true and t_hat",
         lambda: checks.tv_matches(0.0, t_true, t_true, "clean"),
         lambda: checks.tv_matches(0.0, t_true, np.roll(t_true, 1), "permuted t_hat")),
        ("prior equals the binomial-thinning closed form",
         lambda: checks.prior_thinning(prior, desk), lambda: checks.prior_thinning(bad_pmf, desk)),
        ("prior message probabilities sum to 1",
         lambda: checks.prior_thinning(prior, desk), lambda: checks.prior_thinning(bad_msg, desk)),
        ("p_active vs independent scipy estimate",
         lambda: checks.p_active(p_prog, n_prog, est), lambda: checks.p_active(p_prog + 0.05, n_prog, est)),
        ("mean within reference band + Z SE",
         lambda: checks.mean_in_band(runs, 0.365, 0.04, "clean"),
         lambda: checks.mean_in_band(runs + 0.1, 0.365, 0.04, "shifted by 0.1")),
        ("mean within band, per-run spread given",
         lambda: checks.mean_in_band([0.06], 0.065, 0.02, "clean", sd=0.02),
         lambda: checks.mean_in_band([0.5], 0.065, 0.02, "TV 0.5", sd=0.02)),
        ("pooled ratio within band + Z SE",
         lambda: checks.ratio_in_band(hist_num, hist_den, 0.351, 0.05, "clean"),
         lambda: checks.ratio_in_band(hist_num * 1.5, hist_den, 0.351, 0.05, "counts * 1.5")),
        ("strictly decreasing",
         lambda: checks.strictly_decreasing([0.8, 0.3, 0.1], "clean"),
         lambda: checks.strictly_decreasing([0.8, 0.1, 0.3], "swapped")),
        ("paired ordering not reversed",
         lambda: checks.not_below(gen.normal(0.02, 0.03, 20), "clean"),
         lambda: checks.not_below(gen.normal(-0.05, 0.01, 20), "reversed")),
        ("re-run record byte-identical",
         lambda: checks.records_identical(rec, bumped(rec, wall_time_s=1.0), "clean"),
         lambda: checks.records_identical(rec, bumped(rec, w_p=1e-12), "w_p + 1e-12")),
    ]
    bad = 0
    for name, clean, corrupt in cases:
        c_fail, k_fail = clean(), corrupt()
        ok = not c_fail and bool(k_fail)
        bad += not ok
        detail = k_fail[0] if k_fail else "corruption NOT detected"
        if c_fail:
            detail = f"clean input failed: {c_fail[0]}"
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {detail}")
    print(f"{len(cases) - bad}/{len(cases)} checks detect their corruption")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
