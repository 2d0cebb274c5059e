"""Numerically robust special functions and log-domain probability kernels.

All likelihood arithmetic in the decoder runs in the natural-log domain;
posteriors are normalized after subtracting the maximum log-weight, because
products over a large number of receive antennas underflow in linear domain.
"""

from __future__ import annotations

import numpy as np
from scipy.special import gammaln, ndtr, xlog1py, xlogy

__all__ = [
    "marcum_q1",
    "binom_logpmf",
]

# Poisson-mass truncation for the Marcum-Q series.
_MARCUM_TOL = 1e-14
# Beyond this noncentrality the series weights underflow; switch to the
# Gaussian tail approximation (error O(1/a), reachable only for a > 34).
_MARCUM_SERIES_XMAX = 600.0


def marcum_q1(a, b):
    """First-order Marcum Q function ``Q1(a, b)``.

    Computed as the upper tail of a noncentral chi-square distribution with
    2 degrees of freedom and noncentrality ``a**2``: a Poisson-weighted sum
    of central chi-square tails, truncated once the remaining Poisson mass
    drops below 1e-14.  Accepts scalars or arrays (broadcast).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if np.any(~np.isfinite(a)) or np.any(~np.isfinite(b)):
        raise ValueError("marcum_q1: inputs must be finite")
    if np.any(a < 0) or np.any(b < 0):
        raise ValueError("marcum_q1: inputs must be nonnegative")
    scalar = a.ndim == 0 and b.ndim == 0
    a, b = np.broadcast_arrays(np.atleast_1d(a), np.atleast_1d(b))

    # Q1(a,b) = sum_j Pois(j; x) * Q(j+1, y),  x = a^2/2, y = b^2/2,
    # with Q(s, y) the regularized upper incomplete gamma; for integer s,
    # Q(s, y) = e^{-y} sum_{i<s} y^i / i!.  Weights and tails update
    # recursively, so no Bessel evaluation is needed.
    x = (0.5 * a * a).ravel()
    y = (0.5 * b * b).ravel()
    out = np.empty_like(x)
    big = x > _MARCUM_SERIES_XMAX
    out[big] = ndtr(np.sqrt(2 * x[big]) - np.sqrt(2 * y[big]))

    # Series on the remaining entries, retiring converged ones as the loop
    # runs: entries with small noncentrality converge within a few terms.
    idx = np.nonzero(~big)[0]
    xs, ys = x[idx], y[idx]
    pois = np.exp(-xs)
    pois_cum = pois.copy()
    gterm = np.exp(-ys)
    gtail = gterm.copy()
    acc = pois * gtail
    j = 0
    while idx.size and j < 100000:
        done = pois_cum >= 1.0 - _MARCUM_TOL
        if np.any(done):
            out[idx[done]] = acc[done]
            keep = ~done
            idx, xs, ys = idx[keep], xs[keep], ys[keep]
            pois, pois_cum = pois[keep], pois_cum[keep]
            gterm, gtail, acc = gterm[keep], gtail[keep], acc[keep]
            if not idx.size:
                break
        j += 1
        pois = pois * xs / j
        gterm = gterm * ys / j
        gtail = gtail + gterm
        acc = acc + pois * gtail
        pois_cum = pois_cum + pois
    if idx.size:
        out[idx] = acc
    out = np.clip(out, 0.0, 1.0).reshape(a.shape)
    return float(out.reshape(-1)[0]) if scalar else out


def binom_logpmf(k, n, p) -> np.ndarray:
    """Log binomial pmf via log-gamma; ``k > n`` yields -inf by convention."""
    k = np.asarray(k, dtype=float)
    n = np.asarray(n, dtype=float)
    p = np.asarray(p, dtype=float)
    if np.any(p < 0) or np.any(p > 1) or np.any(~np.isfinite(p)):
        raise ValueError("binom_logpmf: p must lie in [0, 1]")
    k, n, p = np.broadcast_arrays(k, n, p)
    out = np.full(k.shape, -np.inf)
    valid = (k >= 0) & (k <= n)
    kv, nv, pv = k[valid], n[valid], p[valid]
    lchoose = gammaln(nv + 1) - gammaln(kv + 1) - gammaln(nv - kv + 1)
    out[valid] = lchoose + xlogy(kv, pv) + xlog1py(nv - kv, -pv)
    return out
