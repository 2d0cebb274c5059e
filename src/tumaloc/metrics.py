"""Evaluation metrics: total variation, exact p-Wasserstein transport,
misdetection, and the GOSPA-like composite cost.

The Wasserstein distance solves the transportation LP exactly (HiGHS dual
simplex with tightened feasibility tolerances); instance sizes here are at
most tens of source atoms against a few thousand grid atoms, so the exact
solve is cheap and avoids entropic bias.  Zero-weight support atoms are
pruned before the solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import coo_matrix

from .scene import Scene

__all__ = [
    "WeightedPointSet",
    "tv_distance",
    "target_type",
    "wasserstein_p",
    "transport_plan",
    "misdetection",
    "gospa_like",
]

_WEIGHT_TOL = 1e-9


@dataclass(frozen=True)
class WeightedPointSet:
    """2-D atoms with nonnegative weights summing to 1."""

    points: np.ndarray    # (n, 2)
    weights: np.ndarray   # (n,)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if np.any(w < 0):
            raise ValueError("WeightedPointSet: negative weight")
        if abs(w.sum() - 1.0) > _WEIGHT_TOL:
            raise ValueError(f"WeightedPointSet: weights sum to {w.sum()}, not 1")

    def pruned(self) -> "WeightedPointSet":
        keep = self.weights > 0
        return WeightedPointSet(self.points[keep], self.weights[keep])


def tv_distance(t: np.ndarray, t_hat: np.ndarray) -> float:
    """Total variation ``(1/2) sum |t_m - t_hat_m|`` between two types."""
    t = np.asarray(t, dtype=float)
    t_hat = np.asarray(t_hat, dtype=float)
    if t.shape != t_hat.shape:
        raise ValueError("tv_distance: length mismatch")
    for name, vec in (("t", t), ("t_hat", t_hat)):
        if np.any(vec < 0) or abs(vec.sum() - 1.0) > 1e-6:
            raise ValueError(f"tv_distance: {name} is not a probability vector")
    # two probability vectors are at most 1 apart; disjoint supports can sum to 2 + 2 ulp
    return float(min(1.0, 0.5 * np.abs(t - t_hat).sum()))


def target_type(scene: Scene) -> tuple[np.ndarray, int]:
    """Report-count type over targets and the detected-target count.

    ``ell_i`` counts active sensors whose reported target is i; the weights
    are ``ell / K_a``.  Raises when no sensor is active (sentinel handled by
    the caller).
    """
    if scene.reported is None:
        raise ValueError("target_type: scene has not been sensed")
    act = scene.active_mask
    K_a = int(act.sum())
    if K_a == 0:
        raise ValueError("target_type: no active sensors")
    ell = np.bincount(scene.reported[act], minlength=scene.T).astype(float)
    omega = ell / K_a
    return omega, int((ell > 0).sum())


def _ground_cost(p: np.ndarray, q: np.ndarray, p_order: float) -> np.ndarray:
    d = np.linalg.norm(p[:, None, :] - q[None, :, :], axis=-1)
    return d**p_order


def transport_plan(mu: WeightedPointSet, mu_hat: WeightedPointSet, p: float = 2.0):
    """Exact optimal transport plan and cost between two weighted point sets.

    Returns ``(plan, cost)`` where ``plan[i, j]`` moves mass from atom i of
    ``mu`` to atom j of ``mu_hat`` and ``cost = sum plan * ||p_i - q_j||^p``.
    """
    mu = mu.pruned()
    mu_hat = mu_hat.pruned()
    n, m = len(mu.weights), len(mu_hat.weights)
    if n == 0 or m == 0:
        raise ValueError("wasserstein: empty support")
    cost = _ground_cost(mu.points, mu_hat.points, p)
    if n == 1:
        return mu_hat.weights[None, :].copy(), float(cost[0] @ mu_hat.weights)
    if m == 1:
        return mu.weights[:, None].copy(), float(mu.weights @ cost[:, 0])

    # transportation LP: row marginals mu, column marginals mu_hat; one
    # redundant equality dropped (both marginals sum to 1)
    var = np.arange(n * m)
    row_of = var // m
    col_of = var % m
    rows = np.concatenate([row_of, n + col_of])
    keep = rows < n + m - 1
    A_eq = coo_matrix(
        (np.ones(keep.sum()), (rows[keep], np.concatenate([var, var])[keep])),
        shape=(n + m - 1, n * m),
    ).tocsr()
    b_eq = np.concatenate([mu.weights, mu_hat.weights[:-1]])
    res = linprog(
        cost.ravel(),
        A_eq=A_eq,
        b_eq=b_eq,
        bounds=(0, None),
        method="highs-ds",
        options={
            "primal_feasibility_tolerance": 1e-10,
            "dual_feasibility_tolerance": 1e-10,
        },
    )
    if not res.success:
        raise RuntimeError(f"transport LP failed: {res.message}")
    plan = res.x.reshape(n, m)
    return plan, float(res.fun)


def wasserstein_p(mu: WeightedPointSet, mu_hat: WeightedPointSet, p: float = 2.0) -> float:
    """Exact p-Wasserstein distance (meters) between two weighted point sets."""
    _, cost = transport_plan(mu, mu_hat, p)
    return float(max(cost, 0.0) ** (1.0 / p))


def misdetection(T_d: int, T: int) -> float:
    """Per-run fraction of undetected targets ``1 - T_d / T``."""
    if not 0 <= T_d <= T:
        raise ValueError("misdetection: need 0 <= T_d <= T")
    return 1.0 - T_d / T


def gospa_like(w_p_value: float, T_d: int, T: int, c: float, p: float) -> float:
    """Composite cost ``(W^p + c^p (1 - T_d/T))^(1/p)`` in meters."""
    if w_p_value < 0:
        raise ValueError("gospa_like: negative transport cost")
    return float((w_p_value**p + c**p * (1.0 - T_d / T)) ** (1.0 / p))
