"""Centralized multisource AMP decoder.

Iterates a linear residual update, a multiplicity-aware posterior-mean
denoiser evaluated by Monte-Carlo integration over unknown user positions,
and an Onsager correction consistent with that denoiser.  After the last
iteration, per-codeword multiplicity posteriors give MAP multiplicities and
the estimated type.

Everything exploits that all covariances are diagonal with per-AP-constant
blocks: likelihoods need only per-AP energies of the effective observation
(O(F) per hypothesis), and the denoiser acts as a per-AP scalar shrinkage

    eta(r)_f = H_{b(f)}(r) * r_f,
    H_b(r)   = sum_k post(k | r) * sum_i w_i(k) * c_{b,i,k},
    c_{b,i,k} = sqrt(Ec) g_{b,i,k} / (tau_b + Ec g_{b,i,k}),

with w_i(k) the self-normalized sample likelihood weights and g the
precomputed per-sample aggregate LSFC sums.  The Wirtinger Jacobian of this
map reduces algebraically (using 1/v = (1 - sqrt(Ec) c) / tau) to

    d eta_f / d r_a = delta(a,f) H_{b(f)}
        - r_f conj(r_a) sqrt(Ec) (H_{b(f)} H_{b(a)} - M_{b(f),b(a)}) / tau_{b(a)},

where M is the posterior second moment of the shrinkage factors across AP
pairs.  The finite-difference oracle in the test suite pins this identity.

Monte-Carlo position samples are drawn once per (zone, multiplicity) and
shared across all messages, iterations and the Onsager computation, so the
analytic Jacobian is the exact Jacobian of the implemented denoiser up to
the weight and row floors below.  All of them rest on the shrinkage bound
c = sqrt(Ec) g / (tau + Ec g) <= 1/sqrt(Ec).

Once the importance weights collapse, the posterior sits on one
multiplicity per row and a few samples carry all its weight.  The posterior
× sample-weight products ``omega[m, j]`` (j a (k, i) sample) that enter the
second moment M are then mostly negligible, some of them subnormal, and a
GEMM with subnormal operands runs about twenty times slower on x86 BLAS.
:func:`onsager` therefore sets the subnormal products to zero and, for
B > 1, runs the GEMM only on the sample columns j in which some row m has
``omega[m, j] >= max(1e-16 * max_j' omega[m, j'], tiny)`` (tiny the
smallest normal double).  The products are non-negative, so the dropped
terms move each entry of M by at most

    |dM[m, b, b']| <= K N 1e-16 max_j omega[m, j] / Ec,

plus K N 2.3e-308 / Ec for the subnormal flush: at most K N roundings
relative to the row's largest possible term max_j omega[m, j] / Ec.  At
B = 1 the GEMM is a matrix-vector product and keeps every column.

:func:`denoise_rows` likewise sets the real and imaginary parts of its
channel estimates below tiny to zero, so that the residual GEMM
``C_u @ X_u`` never sees subnormal operands.

Rows whose posterior sits almost wholly on k = 0 are dropped the same way.
:func:`denoise_rows` marks row m live when its mass on k >= 1,
``s_m = sum_{k>=1} post(k | r_m)``, satisfies
``s_m >= max(1e-16 * max_m' s_m', tiny)``.  The Onsager second-moment and
``Q2`` products and the residual GEMM ``C_u @ X_u`` run on the live rows
only; the denoiser, every posterior and log-likelihood, the
``diag(mean_m H)`` term and the 1/M normalization still cover all M rows.
A dead row has |H_b| <= s_m / sqrt(Ec) and M_{b,b'} <= s_m / Ec, so
dropping it moves each entry by at most

    |dQ[a, f]|     <= 2 s_m |r_ma| |r_mf| / (M sqrt(Ec) tau_{b(a)}),
    |dGamma[n, f]| <= |C[n, m]| s_m |r_mf| / sqrt(Ec)

(Gamma = sum_u C_u X_u - (M / Nc) Z Q_u the residual's update).

Both decoders run the one recursion in :func:`amp_iterate`: :func:`amp_run`
on all F antennas, and the distributed decoder's
:func:`~tumaloc.amp_dist.local_amp_run` on one AP's antenna block.  The
recursion returns its final iterate; iteration t of a run is reproduced
exactly by a run with ``T_AMP = t``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .airlink import STREAM_MC, Codebook, substream
from .config import SystemConfig, Topology, lsfc_vector
from .priors import MultiplicityPrior

__all__ = [
    "DecodeResult",
    "DecodeError",
    "TAU_FLOOR",
    "build_mc_table",
    "residual_covariance",
    "denoise_rows",
    "onsager",
    "amp_iterate",
    "amp_run",
    "estimate_multiplicities",
    "estimate_type",
]

TAU_FLOOR = 1e-15
_TINY = np.finfo(float).tiny
_REL_FLOOR = 1e-16     # Onsager and residual drop sample columns and rows below this share of the peak


class DecodeError(RuntimeError):
    """AMP produced non-finite iterates; carries the failing iteration."""

    def __init__(self, iteration: int, message: str = ""):
        super().__init__(message or f"non-finite AMP iterate at iteration {iteration}")
        self.iteration = iteration


def build_mc_table(cfg: SystemConfig, topology: Topology, seed: int) -> np.ndarray:
    """Per-zone aggregate-LSFC samples, shape (U, K_max, N_MC, B).

    ``g[u, k-1, i, b] = sum_{j<=k} gamma_b(rho^i_j)`` for positions drawn
    i.i.d. uniform on zone u; the position streams are shared across
    multiplicities (cumulative sums), deterministic under the seed.
    """
    g = np.empty((topology.U, cfg.K_max, cfg.N_MC, topology.B))
    for u in range(topology.U):
        rng = substream(seed, STREAM_MC, u)
        x0, y0, x1, y1 = topology.zone_rects[u]
        pos = np.stack(
            [
                rng.uniform(x0, x1, size=(cfg.N_MC, cfg.K_max)),
                rng.uniform(y0, y1, size=(cfg.N_MC, cfg.K_max)),
            ],
            axis=-1,
        )
        gam = lsfc_vector(pos.reshape(-1, 2), topology, cfg).reshape(
            cfg.N_MC, cfg.K_max, topology.B
        )
        g[u] = np.cumsum(gam, axis=1).transpose(1, 0, 2)
    return g


@dataclass
class DecodeResult:
    k_per_zone: np.ndarray         # (U, M) MAP multiplicities
    t_hat: np.ndarray              # (M,) estimated type; zeros when empty
    empty_type: bool
    posteriors: np.ndarray         # (U, M, K_max + 1)
    diagnostics: dict

    @classmethod
    def from_posteriors(cls, posteriors: np.ndarray, diagnostics: dict) -> DecodeResult:
        """MAP multiplicities and the type from (U, M, K_max + 1) posteriors."""
        k_per_zone = estimate_multiplicities(posteriors)
        t_hat, empty = estimate_type(k_per_zone)
        return cls(k_per_zone, t_hat, empty, posteriors, diagnostics)


def residual_covariance(Z: np.ndarray, antennas_per_ap: int) -> np.ndarray:
    """Per-AP effective noise variance from the residual (antenna-averaged).

    ``tau_b = (1 / (A Nc)) sum_a Re[Z^H Z]_{(b,a),(b,a)}``, clamped below.
    """
    Nc = Z.shape[0]
    diag = (np.abs(Z) ** 2).sum(axis=0).real / Nc      # (F,)
    tau = diag.reshape(-1, antennas_per_ap).mean(axis=1)
    return np.maximum(tau, TAU_FLOOR)


@dataclass
class ZoneDenoiseResult:
    """Cached per-zone denoiser output shared with the Onsager computation."""

    x_hat: np.ndarray              # (M, F)
    posterior: np.ndarray          # (M, K_max + 1)
    log_mc_lik: np.ndarray         # (M, K_max + 1): log (1/N) sum_i p(r | rho^i_{1:k})
    sample_weights: np.ndarray     # (M, K_max, N) self-normalized
    shrink: np.ndarray             # (K_max, N, B) per-sample shrinkage factors
    H: np.ndarray                  # (M, B) total shrinkage per AP
    degenerate: np.ndarray         # (M,) bool: prior-only fallback rows
    live: np.ndarray               # (L,) rows whose mass on k >= 1 reaches the row floor


def denoise_rows(
    R: np.ndarray,
    tau: np.ndarray,
    g: np.ndarray,
    log_prior: np.ndarray,
    Ec: float,
    A: int,
) -> ZoneDenoiseResult:
    """Vectorized PME denoiser for all M rows of one zone.

    ``R``: (M, F) effective observations; ``tau``: (B,) per-AP variances;
    ``g``: (K_max, N, B) MC aggregate-LSFC table; ``log_prior``: (M, K_max+1).

    The multiplicity posterior uses the MC average of the position
    likelihood per hypothesis (the empty hypothesis has a single
    deterministic term); the conditional means are self-normalized
    importance averages of per-AP linear shrinkages of ``r``.
    """
    M, F = R.shape
    K, N, B = g.shape
    tau = np.maximum(np.asarray(tau, dtype=float), TAU_FLOOR)

    energy = (np.abs(R) ** 2).reshape(M, B, A).sum(axis=2)          # (M, B)
    v = tau[None, None, :] + Ec * g                                  # (K, N, B)
    inv_v = 1.0 / v
    logdet = A * np.log(np.pi * v).sum(axis=2)                       # (K, N)
    # one (M, K, N) buffer: log-likelihoods, then weights, then normalized weights
    W = (energy @ inv_v.reshape(K * N, B).T).reshape(M, K, N)
    np.negative(W, out=W)
    W -= logdet
    ll0 = -(energy @ (1.0 / tau)) - A * np.log(np.pi * tau).sum()    # (M,)

    mx = W.max(axis=2)                                               # (M, K)
    W -= mx[..., None]
    np.exp(W, out=W)
    w_sum = W.sum(axis=2)
    log_mc = np.empty((M, K + 1))
    log_mc[:, 0] = ll0
    log_mc[:, 1:] = mx + np.log(w_sum / N)
    W /= w_sum[..., None]

    log_post_un = log_prior + log_mc
    post_mx = log_post_un.max(axis=1)
    degenerate = ~np.isfinite(post_mx)
    safe_mx = np.where(degenerate, 0.0, post_mx)
    post_un = np.exp(log_post_un - safe_mx[:, None])
    post = post_un / post_un.sum(axis=1, keepdims=True)
    if degenerate.any():
        # all hypotheses at -inf: fall back to the prior, estimate zero
        prior_lin = np.exp(log_prior[degenerate])
        post[degenerate] = prior_lin / prior_lin.sum(axis=1, keepdims=True)
        W[degenerate] = 1.0 / N

    shrink = np.sqrt(Ec) * g * inv_v                                 # (K, N, B)
    shrink_mean = np.matmul(W.transpose(1, 0, 2), shrink).transpose(1, 0, 2)  # (M, K, B)
    H = np.einsum("mk,mkb->mb", post[:, 1:], shrink_mean)            # (M, B)
    if degenerate.any():
        H[degenerate] = 0.0
    x_hat = R * np.repeat(H, A, axis=1)
    for part in (x_hat.real, x_hat.imag):
        part[np.abs(part) < _TINY] = 0.0     # subnormal operands slow the residual GEMM
    active = post[:, 1:].sum(axis=1)
    live = np.flatnonzero(active >= max(_REL_FLOOR * active.max(), _TINY))
    return ZoneDenoiseResult(
        x_hat=x_hat,
        posterior=post,
        log_mc_lik=log_mc,
        sample_weights=W,
        shrink=shrink,
        H=H,
        degenerate=degenerate,
        live=live,
    )


def onsager(R: np.ndarray, den: ZoneDenoiseResult, tau: np.ndarray, Ec: float, A: int) -> np.ndarray:
    """Average Wirtinger Jacobian of the denoiser over the zone's rows.

    Reuses the denoiser's cached per-sample weights, so the result is the
    exact Jacobian of the implemented (sample-fixed) estimator up to the
    weight and row floors stated in the module docstring: the diagonal
    mean shrinkage covers all M rows, the second-moment term only the
    denoiser's live rows.
    """
    M, F = R.shape
    K, N, B = den.shrink.shape
    tau = np.maximum(np.asarray(tau, dtype=float), TAU_FLOOR)
    Q = np.diag(np.repeat(den.H.mean(axis=0), A)).astype(complex)

    post, W, H = den.posterior, den.sample_weights, den.H
    L = len(den.live)
    if L < M:
        post, W, H, R = post[den.live], W[den.live], H[den.live], R[den.live]

    # posterior second moment of shrinkage over AP pairs: (L, B, B)
    omega = (post[:, 1:, None] * W).reshape(L, K * N)
    omega[omega < _TINY] = 0.0     # subnormal operands slow the GEMM ~20x
    cfl = den.shrink.reshape(K * N, B)
    if B > 1:
        # drop the sample columns that are negligible in every row
        floor = np.maximum(_REL_FLOOR * omega.max(axis=1), _TINY)
        keep = (omega >= floor[:, None]).any(axis=0)
        if not keep.all():
            omega, cfl = omega[:, keep], cfl[keep]
    cpair = (cfl[:, :, None] * cfl[:, None, :]).reshape(-1, B * B)
    M2 = (omega @ cpair).reshape(L, B, B)

    psi = H[:, :, None] * H[:, None, :]
    psi -= M2
    psi *= np.sqrt(Ec)
    psi /= tau
    # psi[m, b_out, b_in]; J[a, f] = delta H - r_f conj(r_a) psi[b(f), b(a)]
    Rr = R.reshape(L, B, A)
    Rc = np.conj(Rr).view(float)                                     # (L, B, 2A)
    prod = np.empty_like(Rc)
    for b in range(B):
        # columns of output AP b: sum_m conj(r_a) psi[m, b, b(a)] r_f
        np.multiply(psi[:, b, :, None], Rc, out=prod)
        Q2_b = prod.view(complex).reshape(L, F).T @ Rr[:, b, :]
        Q[:, b * A:(b + 1) * A] -= Q2_b / M
    return Q


def amp_iterate(
    Y: np.ndarray,
    codebook: Codebook,
    log_prior: np.ndarray,
    g: np.ndarray,
    cfg: SystemConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, dict]:
    """The AMP recursion on the receive columns ``Y``, shared by both decoders.

    ``Y`` (Nc, F') holds the antennas of some APs and ``g`` (U, K_max, N,
    F' / A) is the MC aggregate-LSFC table restricted to those APs.
    Returns the final iterate ``(posteriors, log_lik, X, Z, diagnostics)``:
    the per-zone multiplicity posteriors and MC-averaged log-likelihood
    tables, both (U, M, K_max + 1), the channel estimates (U, M, F'), the
    residual (Nc, F') and the diagnostics: ``tau_trace`` (T_AMP, F' / A),
    ``degenerate_rows`` and ``live_rows``, the rows that reached the
    residual and Onsager products in each iteration, summed over zones.
    """
    Nc, F = Y.shape
    U, M, A = cfg.U, cfg.M, cfg.A
    sqrt_ec = np.sqrt(cfg.Ec)

    X = np.zeros((U, M, F), dtype=complex)
    Z = Y.copy()
    posts = np.zeros((U, M, cfg.K_max + 1))
    log_lik = np.zeros((U, M, cfg.K_max + 1))
    tau_trace = []
    live_rows = []
    degenerate_rows = 0

    for t in range(1, cfg.T_AMP + 1):
        tau = residual_covariance(Z, A)
        tau_trace.append(tau)
        Gamma = np.zeros_like(Z)
        Zh = Z.conj().T
        live_rows.append(0)
        for u in range(U):
            Cu = codebook.block(u)
            # matched filter Cu^H Z, conjugating the small residual instead of Cu
            R_u = (Zh @ Cu).conj().T + sqrt_ec * X[u]
            if not np.all(np.isfinite(R_u.view(float))):
                raise DecodeError(t)
            den = denoise_rows(R_u, tau, g[u], log_prior[u], cfg.Ec, A)
            degenerate_rows += int(den.degenerate.sum())
            live_rows[-1] += len(den.live)
            X[u] = den.x_hat
            posts[u] = den.posterior
            log_lik[u] = den.log_mc_lik
            Q_u = onsager(R_u, den, tau, cfg.Ec, A)
            if len(den.live) == M:
                CX = Cu @ X[u]
            else:
                CX = Cu[:, den.live] @ X[u][den.live]
            Gamma += CX - (M / Nc) * (Z @ Q_u)
        Z = Y - sqrt_ec * Gamma
        if not np.all(np.isfinite(Z.view(float))):
            raise DecodeError(t)

    diagnostics = {
        "tau_trace": np.array(tau_trace),
        "degenerate_rows": degenerate_rows,
        "live_rows": live_rows,
    }
    return posts, log_lik, X, Z, diagnostics


def amp_run(
    Y: np.ndarray,
    codebook: Codebook,
    prior: MultiplicityPrior,
    g: np.ndarray,
    cfg: SystemConfig,
) -> DecodeResult:
    """Full centralized decode: :func:`amp_iterate` on all F antennas, then MAP type estimation."""
    posts, _log_lik, _X, _Z, diagnostics = amp_iterate(Y, codebook, prior.log_pmf, g, cfg)
    return DecodeResult.from_posteriors(posts, diagnostics)


def estimate_multiplicities(posteriors: np.ndarray) -> np.ndarray:
    """MAP multiplicity per (zone, message); ties break toward smaller k."""
    return np.argmax(posteriors, axis=-1)


def estimate_type(k_per_zone: np.ndarray) -> tuple[np.ndarray, bool]:
    """Global multiplicities normalized to the type; all-zero yields the empty sentinel."""
    k = np.asarray(k_per_zone).sum(axis=0).astype(float)
    total = k.sum()
    if total <= 0:
        return np.zeros_like(k), True
    return k / total, False
