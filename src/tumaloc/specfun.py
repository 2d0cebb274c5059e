"""Numerically robust special functions and log-domain probability kernels.

All likelihood arithmetic in the decoder runs in the natural-log domain;
posteriors are normalized after subtracting the maximum log-weight, because
products over a large number of receive antennas underflow in linear domain.
"""

from __future__ import annotations

import numpy as np
from scipy.special import gammaln, xlog1py, xlogy
from scipy.stats import ncx2

__all__ = [
    "marcum_q1",
    "binom_logpmf",
]

# Q1(a, b) is 1 in double once a - b reaches this gap: with W ~ N(0, I_2),
# 1 - Q1 <= P(|W| >= a - b) = exp(-(a - b)^2 / 2) < 2^-54.
_MARCUM_ONE_GAP = 9.0


def marcum_q1(a, b):
    """First-order Marcum Q function ``Q1(a, b)``.

    The upper tail at ``b**2`` of a noncentral chi-square distribution with
    2 degrees of freedom and noncentrality ``a**2`` (scipy's ``ncx2.sf``).
    Entries with ``a - b >= _MARCUM_ONE_GAP`` are 1 without the library
    call, which would also return NaN at noncentralities near 1e296.
    Accepts scalars or arrays (broadcast).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if np.any(~np.isfinite(a)) or np.any(~np.isfinite(b)):
        raise ValueError("marcum_q1: inputs must be finite")
    if np.any(a < 0) or np.any(b < 0):
        raise ValueError("marcum_q1: inputs must be nonnegative")
    scalar = a.ndim == 0 and b.ndim == 0
    a, b = np.broadcast_arrays(np.atleast_1d(a), np.atleast_1d(b))
    out = np.ones(a.shape)
    tail = a - b < _MARCUM_ONE_GAP
    out[tail] = ncx2.sf(b[tail] ** 2, 2, a[tail] ** 2)
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
