"""Correctness checks made apart from the program.

Every check returns a list of failure messages (empty when it passes), so a
caller can both collect failures and, in ``selftest.py``, show that a
corrupted input makes the check fail.  The references are closed forms,
scipy routines or the paper's figures, never a stored copy of the program's
output.  Statistical checks compare a mean over ``n`` runs with a reference
band widened by ``Z`` standard errors of that mean, so a seed set of any size
passes on a correct program except with probability of order 1e-4.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy.special import chndtr
from scipy.stats import binom

Z = 4.0                       # standard errors added to every statistical band
SPEED_OF_LIGHT = 299_792_458.0
ALLOWED_STATUSES = ("ok", "empty-type", "no-active-sensors")


def expect(cond: bool, msg: str) -> list[str]:
    """No failure when ``cond`` holds, else the one message."""
    return [] if cond else [msg]


def mean_se(values) -> tuple[float, float]:
    v = np.asarray(values, dtype=float)
    se = float(v.std(ddof=1) / math.sqrt(v.size)) if v.size > 1 else math.inf
    return float(v.mean()), se


# -- per-record properties ------------------------------------------------
def statuses(records, allowed=ALLOWED_STATUSES) -> list[str]:
    bad = sorted({r["status"] for r in records} - set(allowed))
    return expect(not bad, f"unexpected statuses {bad}")


def tv_in_unit_interval(records) -> list[str]:
    bad = [r["tv"] for r in records if r["status"] == "ok" and not 0.0 <= r["tv"] <= 1.0]
    return expect(not bad, f"tv outside [0, 1]: {bad[:3]}")


def misdetection(records, T: int) -> list[str]:
    bad = [(r["p_md"], r["T_d"]) for r in records
           if r["T_d"] is not None and abs(r["p_md"] - (1.0 - r["T_d"] / T)) > 1e-12]
    return expect(not bad, f"p_md != 1 - T_d/T for (p_md, T_d) {bad[:3]}")


def gospa(records, T: int, c: float, p: float) -> list[str]:
    bad = []
    for r in records:
        if r["status"] == "ok":
            want = (r["w_p"] ** p + c**p * (1.0 - r["T_d"] / T)) ** (1.0 / p)
            if abs(r["gospa"] - want) > 1e-9 * max(1.0, want):
                bad.append((r["gospa"], want))
    return expect(not bad, f"gospa differs from (W^p + c^p (1 - T_d/T))^(1/p): {bad[:3]}")


def probability_vector(t_hat, label: str) -> list[str]:
    t = np.asarray(t_hat, dtype=float)
    ok = t.ndim == 1 and np.all(t >= 0) and abs(t.sum() - 1.0) <= 1e-12
    return expect(bool(ok), f"{label}: decoded type is not a probability vector (sum {t.sum():.6g})")


# -- independent recomputation from the sensed scene ---------------------
def cell_centers(points: np.ndarray, bits: int, side: float) -> np.ndarray:
    """Center of the quantizer cell holding each point: 2^ceil(b/2) x 2^floor(b/2) grid."""
    g = np.array([2 ** ((bits + 1) // 2), 2 ** (bits // 2)])
    w = side / g
    idx = np.minimum(np.floor(points / w).astype(int), g - 1)
    return (idx + 0.5) * w


def true_type(scene, bits: int, side: float) -> np.ndarray:
    """Message type of the active sensors' reports, from positions alone."""
    g = np.array([2 ** ((bits + 1) // 2), 2 ** (bits // 2)])
    pts = scene.targets[scene.reported[scene.reported >= 0]]
    idx = np.minimum(np.floor(pts / (side / g)).astype(int), g - 1)
    msgs = idx[:, 1] * g[0] + idx[:, 0]
    return np.bincount(msgs, minlength=int(g.prod())) / len(msgs)


def target_weights(scene) -> np.ndarray:
    rep = scene.reported[scene.reported >= 0]
    return np.bincount(rep, minlength=len(scene.targets)) / len(rep)


def w2_closed_form(w_p: float, scene, bits: int, side: float, label: str) -> list[str]:
    """Perfect communication moves each target's mass to its own cell center."""
    omega = target_weights(scene)
    d2 = ((scene.targets - cell_centers(scene.targets, bits, side)) ** 2).sum(axis=1)
    want = math.sqrt(float(omega @ d2))
    return expect(abs(w_p - want) <= 1e-9, f"{label}: W2 {w_p!r} != closed form {want!r}")


def tv_matches(tv: float, t_true, t_hat, label: str) -> list[str]:
    want = 0.5 * float(np.abs(np.asarray(t_true) - np.asarray(t_hat)).sum())
    return expect(abs(tv - want) <= 1e-12, f"{label}: tv {tv!r} != recomputed {want!r}")


def detected_count(T_d: int, scene, label: str) -> list[str]:
    want = int(np.unique(scene.reported[scene.reported >= 0]).size)
    return expect(T_d == want, f"{label}: T_d {T_d} != distinct reported targets {want}")


def detection_prob_reference(d2: np.ndarray, cfg) -> np.ndarray:
    """``1 - F_ncx2(gamma; 2, a^2)`` with the two-way radar link budget for ``a``."""
    lam = SPEED_OF_LIGHT / cfg.f_c
    c0 = 2.0 * cfg.Ns * cfg.P_s * cfg.S_rcs * lam**2 / ((4.0 * math.pi) ** 3 * cfg.P_n)
    out = np.ones_like(d2)
    nz = d2 > 0
    out[nz] = 1.0 - chndtr(cfg.gamma_threshold, 2.0, c0 / d2[nz] ** 2)
    return out


def detection_probs(pd: np.ndarray, sensors, targets, cfg, label: str) -> list[str]:
    d2 = ((sensors[:, None, :] - targets[None, :, :]) ** 2).sum(-1)
    err = float(np.abs(pd - detection_prob_reference(d2, cfg)).max())
    return expect(err <= 1e-9, f"{label}: detection probability off scipy ncx2 by {err:.3g} > 1e-9")


# -- prior ---------------------------------------------------------------
def prior_thinning(prior, cfg) -> list[str]:
    """Binomial thinning: k ~ Bin(K, p_active * p(m|u) / U), so the table has a closed form."""
    out = expect(np.all(np.abs(prior.msg_probs.sum(axis=1) - 1.0) <= 1e-12),
                 "prior: message probabilities do not sum to 1 per zone")
    q = prior.p_active * prior.msg_probs / cfg.U
    want = binom.pmf(np.arange(cfg.K_max + 1), cfg.K, q[..., None])
    err = float(np.abs(prior.pmf - want).max())
    out += expect(err <= 1e-12, f"prior: pmf off the binomial-thinning closed form by {err:.3g}")
    tail = binom.sf(cfg.K_max, cfg.K, q)
    err = float(np.abs(prior.pmf.sum(axis=-1) + tail - 1.0).max())
    out += expect(err <= 1e-12, f"prior: truncated pmf plus its tail misses 1 by {err:.3g}")
    return out


def p_active_estimate(cfg, n_sensors: int, n_targets: int, seed: int):
    """Independent MC estimate of the sensor activation probability and its standard error.

    ``p(s) = 1 - (1 - I(s))^T`` with ``I(s)`` the mean single-target
    detection probability, each sensor with its own target sample.
    """
    rng = np.random.default_rng(seed)
    side = cfg.area_side
    s = rng.uniform(0, side, size=(n_sensors, 1, 2))
    t = rng.uniform(0, side, size=(n_sensors, n_targets, 2))
    pd = detection_prob_reference(((t - s) ** 2).sum(-1), cfg)
    p_s = 1.0 - (1.0 - pd.mean(axis=1)) ** cfg.T_targets
    return float(p_s.mean()), float(p_s.std(ddof=1)), n_sensors


def p_active(p_prog: float, n_prog: int, estimate) -> list[str]:
    """Agreement within Z standard errors of both estimates, plus a 0.005 bias allowance.

    The program's standard error is taken as that of ``n_prog`` independent
    sensor draws with the spread seen here; 0.005 bounds the bias that
    finite target samples put into ``(1 - I)^T``.
    """
    mean, sd, n = estimate
    tol = Z * sd * math.sqrt(1.0 / n + 1.0 / n_prog) + 0.005
    return expect(abs(p_prog - mean) <= tol,
                  f"p_active {p_prog:.4f} vs independent {mean:.4f}: differ by more than {tol:.4f}")


# -- statistics over the run set -----------------------------------------
def mean_in_band(values, ref: float, tol: float, label: str, sd: float | None = None) -> list[str]:
    """``|mean - ref| <= tol + Z * SE``; ``sd`` supplies the per-run spread when n is 1."""
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        return [f"{label}: no values"]
    mean, se = mean_se(v)
    if sd is not None:
        se = sd / math.sqrt(v.size)
    band = tol + Z * se
    return expect(abs(mean - ref) <= band, f"{label}: mean {mean:.4f} outside {ref} ± {band:.4f}")


def ratio_se(num: np.ndarray, den: np.ndarray) -> tuple[float, float]:
    """Pooled ratio ``sum(num) / sum(den)`` and its standard error over the batches."""
    ratio = num.sum() / den.sum()
    n = len(num)
    if n < 2:
        return float(ratio), math.inf
    resid = num - ratio * den
    return float(ratio), float(math.sqrt((resid**2).sum() / (n - 1) / n) / den.mean())


def ratio_in_band(num, den, ref: float, tol: float, label: str) -> list[str]:
    ratio, se = ratio_se(np.asarray(num, float), np.asarray(den, float))
    band = tol + Z * se
    return expect(abs(ratio - ref) <= band, f"{label}: {ratio:.4f} outside {ref} ± {band:.4f}")


def strictly_decreasing(means: list, label: str) -> list[str]:
    ok = all(a > b for a, b in zip(means, means[1:]))
    return expect(ok, f"{label}: not strictly decreasing: {[round(m, 4) for m in means]}")


def not_below(diffs, label: str) -> list[str]:
    """Paired differences: mean >= -Z * SE (no evidence that the ordering is reversed)."""
    d = np.asarray(diffs, dtype=float)
    if d.size < 2:
        return []
    mean, se = mean_se(d)
    return expect(mean >= -Z * se, f"{label}: mean paired difference {mean:.4f} < -{Z} SE ({se:.4f})")


def records_identical(a: dict, b: dict, label: str, ignore=("timestamp", "wall_time_s")) -> list[str]:
    def strip(r):
        return json.dumps({k: v for k, v in r.items() if k not in ignore})

    return expect(strip(a) == strip(b), f"{label}: records differ: {strip(a)} vs {strip(b)}")
