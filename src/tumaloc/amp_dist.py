"""Distributed decoder: per-AP local AMP plus CPU-side likelihood aggregation.

Each AP runs the centralized decoder's AMP recursion,
:func:`tumaloc.amp_central.amp_iterate`, on its own antenna block with
purely local likelihoods and a local Onsager term, exchanging nothing until
the end; it then ships, per (zone, message, multiplicity), the final-iteration
MC-averaged log-likelihood to the CPU.  Because every covariance in the
model is block diagonal across APs, the product of local likelihoods equals
the global likelihood exactly, and the CPU recovers the posterior by adding
log tables to the log prior.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .airlink import Codebook
from .amp_central import DecodeError, DecodeResult, McTable, amp_iterate, residual_covariance
from .config import SystemConfig
from .priors import MultiplicityPrior

__all__ = [
    "LocalApState",
    "local_amp_run",
    "aggregate_posteriors",
    "distributed_decode",
    "AggregationError",
]


class AggregationError(RuntimeError):
    """A per-AP summary required for aggregation is missing."""


@dataclass
class LocalApState:
    """Result of one AP's local AMP run.

    ``log_lik[u, m, k]`` is the final-iteration local MC-averaged
    log-likelihood ``log (1/N) sum_i p_b(r_{b,u,m} | rho^i_{1:k})`` with the
    empty hypothesis at k = 0.
    """

    ap_index: int
    log_lik: np.ndarray            # (U, M, K_max + 1)
    tau_b: float
    diagnostics: dict = field(default_factory=dict)

    @property
    def fronthaul_reals(self) -> int:
        """Payload size of the shipped table, in real scalars."""
        return int(np.prod(self.log_lik.shape))


def local_amp_run(
    Y_b: np.ndarray,
    ap_index: int,
    codebook: Codebook,
    prior: MultiplicityPrior,
    mc: McTable,
    cfg: SystemConfig,
    X_true_b: np.ndarray | None = None,
) -> LocalApState:
    """Run :func:`~tumaloc.amp_central.amp_iterate` on AP ``ap_index``'s antenna block.

    ``Y_b`` holds that AP's A columns of the received signal.  The recursion
    is the centralized one with F -> A and B -> 1: the MC table keeps only
    the AP's LSFC column, and the local residual variance is the mean over
    the AP's antennas.
    """
    A = Y_b.shape[1]
    if A != cfg.A:
        raise ValueError(f"Y_b has {A} columns, expected A={cfg.A}")
    b = ap_index
    g_local = tuple(mc.zone(u)[:, :, b : b + 1] for u in range(cfg.U))   # (K, N, 1) each
    try:
        _posts, log_lik, Z, diagnostics = amp_iterate(
            Y_b, codebook, prior.log_pmf, g_local, cfg, X_true_b
        )
    except DecodeError as exc:
        raise DecodeError(exc.iteration, f"AP {b}: {exc}") from exc
    return LocalApState(
        ap_index=b,
        log_lik=log_lik,
        tau_b=float(residual_covariance(Z, A)[0]),
        diagnostics=diagnostics,
    )


def aggregate_posteriors(
    local_states: list[LocalApState], prior: MultiplicityPrior, B: int
) -> DecodeResult:
    """CPU-side fold: sum per-AP log-likelihood tables, add the log prior, MAP.

    Aggregation runs in AP-index order; a missing AP summary is an error
    naming the AP.
    """
    by_index = {s.ap_index: s for s in local_states}
    total = prior.log_pmf.copy()
    for b in range(B):
        if b not in by_index:
            raise AggregationError(f"missing local summary for AP {b}")
        total = total + by_index[b].log_lik
    mx = total.max(axis=-1, keepdims=True)
    post = np.exp(total - mx)
    post /= post.sum(axis=-1, keepdims=True)
    return DecodeResult.from_posteriors(
        post,
        {
            "fronthaul_reals_total": sum(s.fronthaul_reals for s in local_states),
            "tau_locals": np.array([by_index[b].tau_b for b in range(B)]),
        },
    )


def distributed_decode(
    Y: np.ndarray,
    codebook: Codebook,
    prior: MultiplicityPrior,
    mc: McTable,
    cfg: SystemConfig,
    X_true: np.ndarray | None = None,
) -> DecodeResult:
    """Run every AP's local AMP on its antenna block and aggregate at the CPU."""
    A, B = cfg.A, cfg.B
    locals_ = []
    err_traces = []
    for b in range(B):
        Xtb = X_true[:, :, b * A : (b + 1) * A] if X_true is not None else None
        st = local_amp_run(Y[:, b * A : (b + 1) * A], b, codebook, prior, mc, cfg, Xtb)
        locals_.append(st)
        if Xtb is not None:
            err_traces.append(st.diagnostics["channel_error_trace"])
    result = aggregate_posteriors(locals_, prior, B)
    if err_traces:
        result.diagnostics["channel_error_trace"] = np.sum(err_traces, axis=0)
    return result
