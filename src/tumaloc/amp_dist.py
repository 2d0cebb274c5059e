"""Distributed decoder: per-AP local AMP plus CPU-side likelihood aggregation.

Each AP runs the centralized decoder's AMP recursion,
:func:`tumaloc.amp_central.amp_iterate`, on its own antenna block with
purely local likelihoods and a local Onsager term, exchanging nothing until
the end but the stop: the APs stop together, after the first iteration at
which every AP's tau has converged (:data:`~tumaloc.amp_central.TAU_TOL`).
Each AP then ships, per (zone, message, multiplicity), the final-iteration
MC-averaged log-likelihood to the CPU.  Because every covariance in the
model is block diagonal across APs, the product of local likelihoods equals
the global likelihood exactly, and the CPU recovers the posterior by adding
the log tables to the log prior.  :func:`distributed_decode` runs all APs
in lockstep as one ``amp_iterate(..., per_ap=True)`` call; with A >= 2
antennas per AP every AP's table is bit-identical to its own
:func:`local_amp_run` at ``T_AMP = t``, t the iterations the lockstep call
ran (the stacked one-AP blocks of :mod:`tumaloc.amp_central`).
"""

from __future__ import annotations

import numpy as np

from .amp_central import DecodeError, DecodeResult, amp_iterate
from .config import SystemConfig
from .priors import MultiplicityPrior

__all__ = [
    "local_amp_run",
    "aggregate_posteriors",
    "distributed_decode",
]


def local_amp_run(
    Y_b: np.ndarray,
    ap_index: int,
    codebook: np.ndarray,
    prior: MultiplicityPrior,
    g: np.ndarray,
    cfg: SystemConfig,
) -> np.ndarray:
    """Run :func:`~tumaloc.amp_central.amp_iterate` on AP ``ap_index``'s antenna block.

    ``Y_b`` holds that AP's A columns of the received signal.  The recursion
    is the centralized one with F -> A and B -> 1: the MC table keeps only
    the AP's LSFC column, and the local residual variance is the mean over
    the AP's antennas.  Returns the AP's (U, M, K_max + 1) table of
    final-iteration local MC-averaged log-likelihoods
    ``log (1/N) sum_i p_b(r_{b,u,m} | rho^i_{1:k})``, the empty hypothesis
    at k = 0.
    """
    A = Y_b.shape[1]
    if A != cfg.A:
        raise ValueError(f"Y_b has {A} columns, expected A={cfg.A}")
    b = ap_index
    try:
        _posts, log_lik, _diag = amp_iterate(
            Y_b, codebook, prior.log_pmf, g[..., b : b + 1], cfg
        )
    except DecodeError as exc:
        raise DecodeError(exc.iteration, f"AP {b}: {exc}") from exc
    return log_lik


def aggregate_posteriors(log_liks: list[np.ndarray], prior: MultiplicityPrior) -> DecodeResult:
    """CPU-side fold: add the log prior and the APs' log-likelihood tables in order, then MAP."""
    total = sum(log_liks, prior.log_pmf)
    mx = total.max(axis=-1, keepdims=True)
    post = np.exp(total - mx)
    post /= post.sum(axis=-1, keepdims=True)
    return DecodeResult.from_posteriors(
        post, {"fronthaul_reals_total": sum(t.size for t in log_liks)}
    )


def distributed_decode(
    Y: np.ndarray,
    codebook: np.ndarray,
    prior: MultiplicityPrior,
    g: np.ndarray,
    cfg: SystemConfig,
) -> DecodeResult:
    """Run every AP's local AMP on its antenna block and aggregate at the CPU.

    One :func:`~tumaloc.amp_central.amp_iterate` call runs the B APs as B
    stacked blocks, so a :class:`~tumaloc.amp_central.DecodeError` names AP
    j as block j.  The diagnostics hold ``fronthaul_reals_total`` and that
    call's ``tau_trace`` (t, B), one row per iteration run, and its row
    counts, summed over all APs: ``weighed_rows`` per iteration, every AP's
    U M rows since a one-AP block weighs every row, and ``degenerate_rows``.
    """
    M = cfg.M
    _posts, log_lik, diag = amp_iterate(Y, codebook, prior.log_pmf, g, cfg, per_ap=True)
    result = aggregate_posteriors([log_lik[:, b * M : (b + 1) * M] for b in range(cfg.B)], prior)
    for key in ("tau_trace", "weighed_rows", "degenerate_rows"):
        result.diagnostics[key] = diag[key]
    return result
