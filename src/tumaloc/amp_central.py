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
pairs,

    M_{b,b'}(r) = sum_k post(k | r) sum_i w_i(k) c_{b,i,k} c_{b',i,k}.

The finite-difference oracle in the test suite pins this identity.

Monte-Carlo position samples are drawn once per (zone, multiplicity) and
shared across all messages, iterations and the Onsager computation, so the
analytic Jacobian is the exact Jacobian of the implemented denoiser up to
the weight and row floors below.  All of them rest on the shrinkage bound
c = sqrt(Ec) g / (tau + Ec g) <= 1/sqrt(Ec).

Block shapes and the second moment.  :func:`amp_iterate` runs the
recursion on one block of all its APs (the centralized decoder) or, with
``per_ap``, on one block per AP, stacked along the row axis (the
distributed decoder): block j's rows are ``j M .. (j+1) M - 1`` of every
per-zone array.  A block of more than one AP always runs alone in its
call.  On either shape :func:`denoise_rows` computes M on its weighed rows
(below) and returns it as ``ZoneDenoiseResult.m2``, shape (L, Bb, Bb) with
Bb the APs of a block; :func:`onsager` reads only H, the weighed rows and
m2.  Its ``Q2`` products of all output APs run as one batched product
per block, each slice the GEMM of one output AP, in chunks of output APs
that cap the (L, chunk, Bb, 2A) temporary; a split over rows would change
the order of the sums.

Weighed rows.  The rows that go through the denoiser's weight passes,
``ZoneDenoiseResult.weighed``, are the rows that M, the Onsager ``Q2``
products and the residual GEMM ``C_u @ X_u`` cover, in every iteration
but the last, which computes none of them (Stopping, below).  The
denoiser's posteriors and log-likelihoods, the ``diag(mean_m H)`` term
and the 1/M normalization cover all M rows.  One-AP blocks weigh every
row (below); a block of more than one AP leaves out its ruled-dead rows,
and since it runs alone, every block of a call keeps the same number of
rows.
:func:`denoise_rows` also sets the real and imaginary parts of its channel
estimates below tiny, the smallest normal double, to zero, so that the
residual GEMM never sees subnormal operands.

Blocks of more than one AP.  Once the importance weights collapse, the
posterior sits on one multiplicity per row and a few samples carry all its
weight.  The posterior x sample-weight products ``omega[m, j]`` (j a
(k, i) sample) that enter M are then mostly negligible, some of them
subnormal, and a GEMM with subnormal operands runs about twenty times
slower on x86 BLAS.  :func:`denoise_rows` therefore sets the subnormal
products of its weighed rows to zero and runs the ``omega @ (c c)`` GEMM
only on the sample columns j in which some weighed row m has
``omega[m, j] >= max(1e-16 * max_j' omega[m, j'], tiny)``.  The products
are non-negative, so the dropped terms move each entry of M by at most

    |dM[m, b, b']| <= K N 1e-16 max_j omega[m, j] / Ec,

plus K N 2.3e-308 / Ec for the subnormal flush: at most K N roundings
relative to the row's largest possible term max_j omega[m, j] / Ec.

On such a block most rows are ruled dead before the dense passes.  Let
``s_m = sum_{k>=1} post(k | r_m)`` be row m's posterior mass on k >= 1
and ``floor = max(1e-16 * max_m' s_m', tiny)`` the row floor, m' over the
block's rows, both as the all-rows denoiser gives them.  With
``mx_k = max_i log p(r | rho^i_{1:k})`` the MC average of N samples obeys
``mx_k - log N <= log_mc_k <= mx_k``, and s_m grows with each log_mc_k,
k >= 1.  Sample i's log-likelihood ``sum_b e_b (-1/v_{k,i,b}) - logdet_{k,i}``
grows with no v_{k,i,b}, so the sample-free bound

    u_k = -sum_b e_b / (tau_b + Ec max_i g_{k,i,b}) - min_i logdet_{k,i},

one (M, Bb) @ (Bb, K) product, holds ``mx_k <= u_k``.  Every step of both
computations rounds monotonically, and only the order of their Bb-term
sums differs, so with every ``v >= tau`` the computed mx_k exceeds the
computed u_k by at most ``2 (Bb + 2) eps (sum_b e_b / tau_b + max |logdet|)``;
u_k carries twice that as its rounding margin.

s_m evaluated at ``log_mc_k = u_k``, s_m^ub, bounds s_m from above.  The
exact mx of the top row, the row of largest s^ub, gives that row's
s^lo, s evaluated at ``mx_k - log N``, and
``floor^est = max(1e-16 s^lo, tiny)`` bounds the row floor from below.  A
row with ``s_m^ub < floor^est / 4`` is ruled dead at once; when every
row clears ``max(1e-16 max_m' s_m'^ub, tiny) / 4``, at least
floor^est / 4, no row is, and the top row's exact pass is skipped.  The
others, the survivors, take the dense passes: the (L', K_max, N)
log-likelihood product, the subtraction of logdet and the max over
samples, then the weighed-row test.  There s_m^hi, s_m at ``mx_k``,
bounds s_m from above, s_m^lo from below,
``floor^lo = max(1e-16 * max_m' s_m'^lo, tiny)``, m' over the survivors,
bounds the row floor from below, and a row with
``s_m^hi < floor^lo / 2`` is ruled dead too.  The factor 2 between the two
tests absorbs their rounding, so the survivors hold every row the test
weighs.  A row the bound rules dead has
``s^lo <= s^ub < floor^est / 4``, so it holds the largest s^lo only if
every s^lo is below tiny, when floor^lo is tiny over any rows: floor^lo and
the weighed rows are those of the all-rows test.

A ruled-dead row skips the exp, sum, normalization and shrinkage product
over its (K_max, N) weights and keeps ``H = 0``, ``x_hat = 0`` and zero
sample weights, and its ``log_mc_k`` holds u_k if the bound ruled it dead,
mx_k if the test did: at least the MC average either way.  The weighed
rows keep the all-rows arithmetic, except that their two products, the
log-likelihoods' and the shrinkage product, run on the gathered rows,
which BLAS may round in another order than an all-rows product: OpenBLAS
does in its edge tiles, which for the log-likelihoods hold the last
samples of k = K_max.

A ruled-dead row's mass lies below the row floor,
``s_m <= s_m^ub < floor^est / 4 <= floor / 4`` or
``s_m <= s_m^hi < floor^lo / 2 <= floor / 2``, and so does the mass its
posterior reports; its MAP multiplicity is 0.  Its H, x_hat and weights,
at most s_m / sqrt(Ec), s_m |r| / sqrt(Ec) and 1, become zero; only the
posterior, the ``diag(mean_m H)`` term and the next matched filter see
them.  Its |H_b| <= s_m / sqrt(Ec) and M_{b,b'} <= s_m / Ec, so leaving it
out of the products moves each entry by at most

    |dQ[a, f]|     <= 2 s_m |r_ma| |r_mf| / (M sqrt(Ec) tau_{b(a)}),
    |dGamma[n, f]| <= |C[n, m]| s_m |r_mf| / sqrt(Ec)

(Gamma = sum_u C_u X_u - (M / Nc) Z sum_u Q_u the residual's update,
its Onsager part one GEMM per iteration).  One-AP blocks drop no row.

One-AP blocks.  There M is one scalar per row,
``sum_k post(k | r) sum_i w_i(k) c_{i,k}^2``.  :func:`denoise_rows` weighs
every row, since the distributed decoder fronthauls their
log-likelihoods, and leaves the weights ``w_i = exp(log p_i - s_k)``
unnormalized, s_k a shift per (row, k) (below): it takes
``S_j = sum_i w_i c_i^j``, j = 0, 1, 2, per (row, k) from one
(M, N) @ (N, 3) product per (block, k) with the table ``[1, c, c^2]``,
then ``log_mc_k = s_k + log(S_0 / N)``, ``H = sum_k post_k S_1 / S_0``
and ``M = sum_k post_k S_2 / S_0``.  Against a sum, a normalization and
two products over normalized weights this changes only the order of sums
of N non-negative terms, each within N eps relative; ``psi = H H - M``
cancels, so the change in Q is not bounded by an ulp.

The weights take three passes: one product, one exp and the moment
product.  Sample i's log-likelihood ``log p_i = f(v_i)``,
``f(v) = e (-1/v) - A log(pi v)`` with ``v_i = tau + Ec g_i``, depends on
the sample only through v_i, and f has one peak: its derivative
``(e - A v) / v^2`` is positive below ``v* = e / A`` and negative above.
With v_min and v_max the smallest and largest variance of a (block, k)
group, the shift

    s = f(clip(v*, v_min, v_max)),

in the table's own expression, bounds every sample's log p of the row
from above, up to rounding.  A row whose v* is clipped attains the bound
at an extreme sample, so s is its table max.  An interior row's max is at
least f at the next sample above v*, ``v* e^D``, so s exceeds it by at most

    f(v*) - f(v* e^D) = A (D - 1 + e^-D) < A log(v_max / v_min).

The raw weights therefore peak between ``exp(-A log(v_max / v_min))`` and
1, up to rounding, and ``log_mc_k = s_k + log(S_0 / N)`` absorbs the gap.
A wide group, one whose ``A log(v_max / v_min)`` exceeds
:data:`_MAX_SHIFT_SLACK` = 700, takes its exact table max as s instead, so
that no peak weight leaves the normal range; on the desk and paper
presets' MC tables that quantity is about 17 and 34, even at
``tau = TAU_FLOOR``.  One (M, 3) @ (3, N) product per (block, k), rows
``[e_m, -1, -s_{m,k}]`` against columns ``[-1/v_i; logdet_i; 1]``, then
writes ``log p - s`` for every sample.  A GEMM kernel that sums each
entry's three terms in order rounds it in the steps of a multiply, a
subtraction of logdet and a subtraction of s, the last two products being
exact, so the peak weight of a clipped row or a wide group is exactly 1.
Each entry and s round within a few eps of ``e / v + |logdet|``, by which
an interior row's peak may exceed 1 relative.  The exp runs in place and
the moment product reads the result.  The raw weights stay k-major,
(G, K, M, N), the layout that product reads;
``ZoneDenoiseResult.sample_weights`` builds the normalized (G M, K, N)
array on first read.  With one row or
one sample per block numpy calls GEMV or a dot in place of a GEMM, and
their kernels may fuse ``e (-1/v_i)`` into the sum: each entry of
``log p - s`` then moves by at most
``3 eps (e / v_i + |logdet_i| + |s|)``.  Decodes have M >= 4 rows;
``N_MC = 1`` takes this path.

Stacked one-AP blocks.  The matched filter is one (F, Nc) @ (Nc, M) GEMM,
whose rows j A .. (j+1) A - 1 are block j's, reshaped to R_u of shape
(G M, A); :func:`denoise_rows` and :func:`onsager` run on chunks of
``max(1, _MAX_STACKED_WEIGHTS // (M K_max N))`` blocks, so that a chunk's
(rows, K_max, N) weight array fits the bound: all 12 APs in one chunk at
the desk preset, one AP per chunk at the paper preset.  They read a
chunk's block count off the shapes of R and the MC table and sum rows
only within a block.  The zone's estimates, block j's in columns
j A .. (j+1) A - 1 of one (M, F') array X_u, enter the residual product,
taken as ``(X_u^T C_u^T)^T`` so that, as in the matched filter, the
blocks lie along the rows of the GEMM's output (BLAS's N dimension).  It
runs as one GEMM per block of codebook rows, each block's weighed columns
upcast exactly to complex128 just before its GEMM: the largest multiple
of 128 rows whose copy fits :data:`_RESIDUAL_UPCAST_BYTES`, 2 MiB, and 128
rows if none does.  That is one block at the desk preset and 128 rows of
a one-AP block at the paper preset, against 15.6 MiB for a zone's whole
(Nc, M) block.  Each output entry is still one sum over the weighed rows,
and a block boundary at a multiple of 128 rows falls on a boundary of
BLAS's register tiles along N, so every entry keeps the bits of one
product; blocks of other sizes can move an entry by an ulp.
Every stacked operation does a one-block call's arithmetic on each block
(element-wise passes; per-slice BLAS calls on stacks with the one-block
strides; and these two GEMMs, which BLAS splits along their summed terms,
Nc in the matched filter and M in each residual product, by that count
only; the argument holds alike for the single-precision matched filter),
so for A >= 2 each block's output is bit-identical to
:func:`amp_iterate` on that block alone, capped at the iterations the
stacked call ran (Stopping, below), whatever the chunk size.  At A = 1 a
one-block call's products have one output row, numpy runs them as GEMV
where the stacked call runs a GEMM, and the two may round differently.

The matched filter.  ``C_u^H Z`` runs in the codebook's precision: the
residual Z is conjugated, transposed and rounded to the codebook's dtype once
per iteration, so the complex64 codebook of
:func:`~tumaloc.airlink.gen_codebook` takes one single-precision (cgemm)
product per zone, whose result is conjugate-transposed into the complex128
R_u.  Everything after it, the denoiser, the Onsager term, tau and the
residual GEMM on the weighed columns (upcast exactly, in row blocks),
stays in double.  By the standard inner-product bound (Higham, *Accuracy
and Stability of Numerical Algorithms*, 2002, section 3.1), each entry of
R moves by about

    |dR[m, f]| <= gamma_Nc ||c_m|| ||z_f||,    gamma_n = n u / (1 - n u),

with u = 2^-24, ||c_m|| = 1 within 2^-24, and a few u more for the complex
products and the rounding of Z: a worst case of about 6e-5 ||z_f|| at
Nc = 1000.  The posterior gap this opens against the same decode on the
codebook's exact complex128 upcast is measured in
``BENCH_c64_matched_filter.json`` and bounded by the tests.

Between zone steps the recursion keeps only what the next step reads: the
residual, and each zone's latest estimates as its weighed rows and their
values, zero elsewhere.  The matched filter adds ``sqrt(Ec) x_hat`` on
those rows only, and each chunk's denoiser output is dropped before the
next chunk is denoised.  No dense (U, G M, F' / G) estimate array is
built.

Stopping.  The recursion runs at most ``T_AMP`` iterations and stops after
iteration t >= 2 once ``max_b |tau_b(t) - tau_b(t-1)| / tau_b(t-1)`` is
below :data:`TAU_TOL`, tau_b(t) the residual variance that iteration t
starts from; the max runs over every AP of every block, so stacked blocks
stop together.  ``TAU_TOL = 0`` runs all ``T_AMP`` iterations.  The rule
reads only the tau values the iterations compute anyway, and it reads
them at the start of iteration t, so the recursion knows there whether t
is its last iteration: t = ``T_AMP``, or tau has converged.  The last
iteration ends at the posteriors, the output (Bayati and Montanari, 2011:
what follows a denoiser pass is read only by the next iteration).  Its
denoiser calls leave out the channel estimates, H and M
(``estimates=False``), and it runs no Onsager term, residual product,
Onsager GEMM or residual update, and so no residual finiteness check: a
decode whose only non-finite value would be that last residual returns
its posteriors.  Iteration t of a run, the last one of a stopped run
included, is reproduced exactly by a run with ``T_AMP = t``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .airlink import STREAM_MC, substream
from .config import SystemConfig, Topology, lsfc_vector
from .priors import MultiplicityPrior

__all__ = [
    "DecodeResult",
    "DecodeError",
    "TAU_FLOOR",
    "TAU_TOL",
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
TAU_TOL = 1e-3         # stop once every tau_b moves by less than this share of its last value
_TINY = np.finfo(float).tiny
_EPS = np.finfo(float).eps
_REL_FLOOR = 1e-16     # M drops sample columns, a multi-AP block rules rows dead, below this share of the peak
_Q2_CHUNK_REALS = 1 << 18     # bound on the Onsager Q2 product's temporary, in float64 values (2 MB)
_MAX_STACKED_WEIGHTS = 1 << 22     # bound on a denoiser call's (rows, K_max, N_MC) weight array
_MAX_SHIFT_SLACK = 700.0     # a one-AP group with A log(v_max / v_min) above this takes its table max as the shift
_RESIDUAL_UPCAST_BYTES = 1 << 21     # bound on the residual product's complex128 copy of codebook rows (2 MiB)


class DecodeError(RuntimeError):
    """AMP produced non-finite iterates; carries the failing iteration.

    On stacked blocks: the earliest iteration at which any block fails; the
    message names the lowest-index block failing that iteration's first
    failing check (a zone's matched filter, or the residual update).
    """

    def __init__(self, iteration: int, message: str = ""):
        super().__init__(message or f"non-finite AMP iterate at iteration {iteration}")
        self.iteration = iteration


def _chunks(G: int, cfg: SystemConfig) -> list[tuple[int, int]]:
    """``(j0, j1)`` per denoiser call on G stacked blocks: the blocks whose weights fit the bound."""
    size = max(1, _MAX_STACKED_WEIGHTS // (cfg.M * cfg.K_max * cfg.N_MC))
    return [(j0, min(j0 + size, G)) for j0 in range(0, G, size)]


def _check_finite(blocks: np.ndarray, t: int) -> None:
    """Raise :class:`DecodeError` at iteration t if some block of ``blocks`` (G, ...) is not finite."""
    finite = np.isfinite(blocks.view(float)).reshape(len(blocks), -1).all(axis=1)
    if not finite.all():
        where = f" in block {np.argmin(finite)}" if len(blocks) > 1 else ""
        raise DecodeError(t, f"non-finite AMP iterate{where} at iteration {t}")


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
    """Per-zone denoiser output, read by the recursion and :func:`onsager`.

    The G stacked blocks' rows follow one another: rows ``j M .. (j+1) M - 1``
    belong to block j, and G > 1 only for one-AP blocks.  ``m2`` holds the
    Onsager second moment M on the weighed rows, (L, Bb, Bb) with Bb the
    APs of a block, on either block shape; the recursion and
    :func:`onsager` read no sample weights.  :attr:`sample_weights` are
    self-normalized on weighed rows and zero on ruled-dead rows, whose
    ``log_mc_lik`` on k >= 1 holds an upper bound on the largest sample
    log-likelihood, the sample-free bound or the exact max, and whose
    ``H`` and ``x_hat`` are zero (module docstring).

    On a block of more than one AP, ``weights`` holds the normalized
    weights of the weighed rows, (L, K_max, N), and ``weight_sums`` is
    None; :attr:`sample_weights` scatters them into the (M, K_max, N) row
    layout, zero on ruled-dead rows, on first read.  On one-AP blocks, ``weights``
    holds the raw weights k-major, shape (G, K_max, M, N), and
    ``weight_sums`` their (G M, K_max) sums over the N samples (module
    docstring); :attr:`sample_weights` divides them out on first read into
    the (G M, K_max, N) row layout and clears ``weight_sums``.  After the
    first read, ``weights`` holds that normalized row layout on either
    block shape.  A call without estimates, the recursion's last
    iteration, leaves ``x_hat``, ``H`` and ``m2`` None.
    """

    x_hat: np.ndarray | None       # (G M, F'); None on the recursion's last iteration
    posterior: np.ndarray          # (G M, K_max + 1)
    log_mc_lik: np.ndarray         # (G M, K_max + 1): log (1/N) sum_i p(r | rho^i_{1:k}) on weighed rows
    weights: np.ndarray            # (G M, K_max, N) sample weights; (L, K_max, N) or raw (G, K_max, M, N) before the first read
    shrink: np.ndarray             # (K_max, N, B) per-sample shrinkage factors
    H: np.ndarray | None           # (G M, Bb) total shrinkage per AP of the row's block; None as x_hat
    degenerate: np.ndarray         # (G M,) bool: prior-only fallback rows
    weighed: np.ndarray            # (L,) rows that went through the weight passes: all G M on one-AP blocks
    m2: np.ndarray | None          # (L, Bb, Bb) second moment M on the weighed rows; None as x_hat
    weight_sums: np.ndarray | None = None   # (G M, K_max) sums of the raw weights, else None

    @property
    def sample_weights(self) -> np.ndarray:
        """(G M, K_max, N) self-normalized on weighed rows, else zero; built once, on first read."""
        if self.weight_sums is not None:
            G, K, M, N = self.weights.shape
            W = np.empty((G, M, K, N))
            np.divide(self.weights.transpose(0, 2, 1, 3), self.weight_sums.reshape(G, M, K, 1), out=W)
            self.weights, self.weight_sums = W.reshape(G * M, K, N), None
        elif len(self.weights) < len(self.posterior):
            self.weights = _scatter_rows(self.weights, self.weighed, len(self.posterior))
        return self.weights


def _block_shape(R: np.ndarray, B: int, A: int) -> tuple[int, int, int]:
    """``(G, M, B / G)`` of G stacked blocks: R is (G M, F'), each block F' / A of the B APs.

    Raises ``ValueError`` when blocks of more than one AP are stacked: such a
    block runs alone in its call.
    """
    per_block = R.shape[1] // A
    G = B // per_block
    if G > 1 and per_block > 1:
        raise ValueError(f"{G} stacked blocks of {per_block} APs: a block of several APs runs alone")
    return G, R.shape[0] // G, per_block


def _posterior(log_mc: np.ndarray, log_prior: np.ndarray, M: int) -> tuple[np.ndarray, np.ndarray]:
    """Multiplicity posteriors of stacked rows and their degenerate-row mask.

    ``log_mc`` (G M, K_max + 1) log-likelihoods, ``log_prior`` (M, K_max + 1)
    shared by the G blocks.  A row with every hypothesis at -inf is
    degenerate and gets the prior.
    """
    rows, K1 = log_mc.shape
    log_post_un = (log_mc.reshape(rows // M, M, K1) + log_prior).reshape(rows, K1)
    # the row maxima column by column: exact, and several times faster than
    # numpy's max over a short last axis
    post_mx = log_post_un[:, 0].copy()
    for col in log_post_un.T[1:]:
        np.maximum(post_mx, col, out=post_mx)
    degenerate = ~np.isfinite(post_mx)
    safe_mx = np.where(degenerate, 0.0, post_mx)
    post_un = np.exp(log_post_un - safe_mx[:, None])
    post = post_un / post_un.sum(axis=1, keepdims=True)
    if degenerate.any():
        prior_lin = np.exp(log_prior[np.flatnonzero(degenerate) % M])
        post[degenerate] = prior_lin / prior_lin.sum(axis=1, keepdims=True)
    return post, degenerate


def _second_moment(omega: np.ndarray, c: np.ndarray) -> np.ndarray:
    """``M[m, b, b'] = sum_j omega[m, j] c[j, b] c[j, b']`` on the sample columns that carry weight.

    ``omega`` (L, K N) holds the posterior x sample-weight products of L
    rows, flushed in place; ``c`` (K N, B) the shrinkage factors.  Returns
    (L, B, B); the floors and their bound are in the module docstring.
    """
    omega[omega < _TINY] = 0.0     # subnormal operands slow the GEMM ~20x
    # drop the sample columns that are negligible in every row
    floor = np.maximum(_REL_FLOOR * omega.max(axis=1), _TINY)
    keep = (omega >= floor[:, None]).any(axis=0)
    if not keep.all():
        omega, c = omega[:, keep], c[keep]
    B = c.shape[1]
    cpair = np.einsum("jb,jc->jbc", c, c).reshape(-1, B * B)
    return (omega @ cpair).reshape(-1, B, B)


def _scatter_rows(values: np.ndarray, at: np.ndarray, rows: int) -> np.ndarray:
    """``rows`` rows of zeros with ``values`` in rows ``at``."""
    out = np.zeros((rows, *values.shape[1:]), dtype=values.dtype)
    out[at] = values
    return out


def _mx_bound(energy: np.ndarray, neg_inv_v: np.ndarray, logdet: np.ndarray, q: np.ndarray) -> np.ndarray:
    """A sample-free upper bound on every row's mx_k of one block, (M, K), rounding margin included.

    ``energy`` (M, Bb), ``neg_inv_v`` (K, N, Bb), ``logdet`` (K, N) and
    ``q`` (M,), each row's ``sum_b e_b / tau_b``.  The bound and its margin
    are in the module docstring.
    """
    Bb = energy.shape[1]
    # max_i -1/v as a reduction along the last axis of a (K, Bb, N) copy:
    # in the (K, N, Bb) layout, whose last axis is short, it takes twice as
    # long at the desk preset's shape
    nv_max = np.ascontiguousarray(neg_inv_v.transpose(0, 2, 1)).max(axis=2)
    bound = energy @ nv_max.T - logdet.min(axis=1)
    bound += (4 * (Bb + 2) * _EPS) * (q + np.abs(logdet).max())[:, None]
    return bound


def _surviving_rows(log_bound, log_prior, energy, nv, logdet, N) -> np.ndarray:
    """Rows of one block that the bound cannot rule out of the row floor.

    ``log_bound[:, 1:]`` holds the bound on mx_k; ``nv`` is the (Bb, K N)
    matrix of -1/v and ``logdet`` (K, N).  A row survives unless its mass
    on k >= 1 at the bound, s^ub, lies below a quarter of the floor
    estimate from the exact mx of the row of largest s^ub (module
    docstring).
    """
    M, K1 = log_bound.shape
    s_ub = _posterior(log_bound, log_prior, M)[0][:, 1:].sum(axis=1)
    top = np.argmax(s_ub)
    if s_ub.min() >= max(_REL_FLOOR * s_ub[top], _TINY) / 4:
        return np.arange(M)     # every row clears even the top row's s^ub as floor estimate
    # the top row's s^lo, at its exact mx_k - log N
    mx_top = ((energy[top] @ nv).reshape(K1 - 1, -1) - logdet).max(axis=1)
    a = log_prior[top] + np.concatenate([log_bound[top, :1], mx_top - np.log(N)])
    p = np.exp(a - a.max())
    s_lo = p[1:].sum() / p.sum()
    return np.flatnonzero(s_ub >= np.fmax(_REL_FLOOR * s_lo, _TINY) / 4)


def _weighed_rows(log_mc: np.ndarray, log_prior: np.ndarray, N: int) -> np.ndarray:
    """Rows of one block that the weight passes cannot rule out of the row floor.

    ``log_mc[:, 1:]`` holds mx_k, the largest sample log-likelihood, with
    ``mx_k - log N <= log_mc_k <= mx_k``.  The other rows are ruled dead
    (module docstring).
    """
    M = len(log_mc)
    if M == 0:
        return np.zeros(0, dtype=int)
    # s^hi and s^lo from one posterior of the rows at mx_k, then at mx_k - log N
    both = np.concatenate([log_mc, log_mc])
    both[M:, 1:] -= np.log(N)
    s = _posterior(both, log_prior, M)[0][:, 1:].sum(axis=1)
    s_hi, s_lo = s[:M], s[M:]
    floor_lo = max(_REL_FLOOR * s_lo.max(), _TINY)
    return np.flatnonzero(s_hi >= floor_lo / 2)


def _weigh_one_ap(e, tau, v, neg_inv_v, logdet, log_tau, c, log_prior, A, estimates):
    """Log-likelihoods, posteriors and shrinkage moments of G one-AP blocks.

    ``e`` (G, M) row energies; ``v``, ``neg_inv_v``, ``logdet`` and ``c``
    (G, K, N) per block, contiguous.  The one-AP scheme, its shift s and its
    bounds are in the module docstring.  Returns
    ``(log_mc, post, degenerate, H, m2, W, w_sum)``, the raw weights
    ``W = exp(log p - s)`` k-major; H and m2 are None without ``estimates``.
    """
    G, K, N = v.shape
    M = e.shape[1]
    rows = G * M
    lo, hi = v.min(axis=2, keepdims=True), v.max(axis=2, keepdims=True)
    v_s = np.clip((e / A)[:, None], lo, hi)                           # (G, K, M)
    s = e[:, None] * -(1.0 / v_s) - A * np.log(np.pi * v_s)
    wide = np.nonzero(A * np.log(hi[..., 0] / lo[..., 0]) > _MAX_SHIFT_SLACK)
    if wide[0].size:
        s[wide] = (e[wide[0], :, None] * neg_inv_v[wide][:, None] - logdet[wide][:, None]).max(axis=2)
    # rows [e_m, -1, -s_{m,k}] against columns [-1/v_i; logdet_i; 1]
    lhs = np.empty((G, K, M, 3))
    lhs[..., 0] = e[:, None]
    lhs[..., 1] = -1.0
    lhs[..., 2] = -s
    W = np.matmul(lhs, np.stack([neg_inv_v, logdet, np.ones_like(logdet)], axis=2))
    np.exp(W, out=W)
    # sum_i w_i, sum_i w_i c_i and sum_i w_i c_i^2 per (row, k): one
    # (M, N) @ (N, 3) product per (block, k) with the table [1, c, c^2]
    table = np.empty((G, K, N, 3))
    table[..., 0] = 1.0
    table[..., 1] = c
    np.multiply(c, c, out=table[..., 2])
    sums = np.matmul(W, table).transpose(0, 2, 1, 3).reshape(rows, K, 3)
    w_sum = sums[..., 0]
    log_mc = np.empty((rows, K + 1))
    log_mc[:, 0] = (-(e * (1.0 / tau)[:, None]) - log_tau[:, None]).reshape(rows)
    log_mc[:, 1:] = s.transpose(0, 2, 1).reshape(rows, K) + np.log(w_sum / N)
    post, degenerate = _posterior(log_mc, log_prior, M)
    # the weights stay unnormalized: ZoneDenoiseResult.sample_weights divides on first read
    if degenerate.any():
        # all hypotheses at -inf: uniform weights, the posterior falls back to the prior
        d = np.flatnonzero(degenerate)
        W[d // M, :, d % M] = 1.0
        sums[degenerate] = table.sum(axis=2)[d // M]
    if not estimates:
        return log_mc, post, degenerate, None, None, W, w_sum
    post_k = post[:, 1:]
    H = np.einsum("mk,mk->m", post_k, sums[..., 1] / w_sum)[:, None]
    # the Onsager second moment is one scalar per row
    m2 = np.einsum("mk,mk->m", post_k, sums[..., 2] / w_sum).reshape(rows, 1, 1)
    return log_mc, post, degenerate, H, m2, W, w_sum


def denoise_rows(
    R: np.ndarray,
    tau: np.ndarray,
    g: np.ndarray,
    log_prior: np.ndarray,
    Ec: float,
    A: int,
    estimates: bool = True,
) -> ZoneDenoiseResult:
    """Vectorized PME denoiser for all rows of one zone: one block, or G stacked one-AP blocks.

    ``R``: (G M, F') effective observations, block j's M rows after block
    j - 1's, each block on F' / A APs; ``tau``: (B,) per-AP variances, block
    by block; ``g``: (K_max, N, B) MC aggregate-LSFC table;
    ``log_prior``: (M, K_max+1), shared by the blocks.  G = B / (F' / A) is
    read off the shapes; blocks of more than one AP are not stacked
    (``ValueError``).

    The multiplicity posterior uses the MC average of the position
    likelihood per hypothesis (the empty hypothesis has a single
    deterministic term); the conditional means are self-normalized
    importance averages of per-AP linear shrinkages of ``r``.  Each row
    sees only its own block's APs, with the arithmetic of a one-block call.
    The result holds the Onsager second moment of the weighed rows, ``m2``.
    On a block of more than one AP, rows that provably miss the row floor
    skip the weight passes; most of them, ruled dead by a sample-free
    bound, also skip the dense log-likelihood passes (module docstring).

    With ``estimates`` False, the recursion's last iteration, the result
    leaves out what only a next iteration reads: ``x_hat``, ``H`` and
    ``m2`` are None, and the shrinkage and second-moment products are not
    run.  Everything else is as with ``estimates`` True, bit for bit.
    """
    K, N, B = g.shape
    G, M, Bb = _block_shape(R, B, A)
    rows = G * M
    tau = np.maximum(np.asarray(tau, dtype=float), TAU_FLOOR)

    energy = (np.abs(R) ** 2).reshape(rows, Bb, A).sum(axis=2)      # (G M, Bb)
    v = tau[None, None, :] + Ec * g                                  # (K, N, B)
    inv_v = 1.0 / v
    neg_inv_v = -inv_v
    logdet = A * np.log(np.pi * v).reshape(K, N, G, Bb).sum(axis=3)  # (K, N, G)
    logdet = np.ascontiguousarray(logdet.transpose(2, 0, 1))         # (G, K, N), unit-stride slices
    log_tau = A * np.log(np.pi * tau).reshape(G, Bb).sum(axis=1)     # (G,)
    shrink = np.sqrt(Ec) * g * inv_v                                 # (K, N, B)
    weighed = slice(None)    # every row, or the indices of the rows not ruled dead
    if Bb == 1:
        # (G, K, N) tables, contiguous per block, so that each BLAS call sees a one-block call's strides
        v_g, neg_inv_v_g, c_g = (np.ascontiguousarray(x.transpose(2, 0, 1)) for x in (v, neg_inv_v, shrink))
        log_mc, post, degenerate, H, m2, weights, w_sum = _weigh_one_ap(
            energy.reshape(G, M), tau, v_g, neg_inv_v_g, logdet, log_tau, c_g, log_prior, A, estimates,
        )
    else:
        # one block (G = 1).  The sample-free bound rules rows dead; the
        # survivors' log-likelihoods, weights and normalized weights share
        # one (L', K, N) buffer, L' the survivors
        log_prior = np.broadcast_to(log_prior, (M, K + 1))
        ld = logdet[0]                                               # (K, N)
        nv = neg_inv_v.reshape(K * N, Bb).T                          # (Bb, K N)
        q = (energy @ (1.0 / tau).reshape(Bb, 1))[:, 0]              # sum_b e_b / tau_b
        log_mc = np.empty((M, K + 1))
        log_mc[:, 0] = -q - log_tau[0]
        log_mc[:, 1:] = _mx_bound(energy, neg_inv_v, ld, q)     # kept on ruled-dead rows
        live = _surviving_rows(log_mc, log_prior, energy, nv, ld, N)
        W = (energy[live] @ nv).reshape(len(live), K, N)
        W -= ld
        mx = W.max(axis=2)                                           # (L', K)
        log_mc[live, 1:] = mx
        kept = _weighed_rows(log_mc[live], log_prior[live], N)
        weighed = live[kept]
        if len(kept) < len(live):
            W, mx = W[kept], mx[kept]
        W -= mx[..., None]
        np.exp(W, out=W)
        w_sum = W.sum(axis=2)
        log_mc[weighed, 1:] = mx + np.log(w_sum / N)
        post, degenerate = _posterior(log_mc, log_prior, M)

        W /= w_sum[..., None]
        if degenerate.any():
            W[degenerate[weighed]] = 1.0 / N
        weights, w_sum, H, m2 = W, None, None, None
        if estimates:
            # sum_k post_k sum_i w_i(k) shrink[k, i, b] per weighed row
            mean = np.matmul(W.transpose(1, 0, 2), shrink).transpose(1, 0, 2)   # (L', K, Bb)
            H = np.zeros((M, Bb))
            H[weighed] = np.einsum("mk,mkb->mb", post[weighed, 1:], mean)
            # M on the weighed rows
            omega = post[weighed, 1:, None] * W
            m2 = _second_moment(omega.reshape(len(weighed), K * N), shrink.reshape(K * N, Bb))
    x_hat = None
    if estimates:
        # degenerate rows: the estimate falls back to zero
        H[degenerate] = 0.0
        x_hat = R[weighed] * np.repeat(H[weighed], A, axis=1)
        for part in (x_hat.real, x_hat.imag):
            part[np.abs(part) < _TINY] = 0.0     # subnormal operands slow the residual GEMM
        if len(x_hat) < rows:
            x_hat = _scatter_rows(x_hat, weighed, rows)     # zero estimates on the ruled-dead rows
    return ZoneDenoiseResult(
        x_hat=x_hat,
        posterior=post,
        log_mc_lik=log_mc,
        weights=weights,
        shrink=shrink,
        H=H,
        degenerate=degenerate,
        weighed=np.arange(rows)[weighed],
        m2=m2,
        weight_sums=w_sum,
    )


def onsager(R: np.ndarray, den: ZoneDenoiseResult, tau: np.ndarray, Ec: float, A: int) -> np.ndarray:
    """Average Wirtinger Jacobian of the denoiser over each block's rows, (G, F', F').

    Reads the denoiser's ``H``, ``weighed`` and second moment ``m2``, so
    the result is the exact Jacobian of the implemented (sample-fixed)
    estimator up to the weight and row floors and the rounding stated in
    the module docstring: the diagonal mean shrinkage covers all M rows of
    a block, the second-moment term only the denoiser's weighed rows, every
    row on one-AP blocks.  Row sums stay within their block.  B is
    ``len(tau)``.
    """
    F = R.shape[1]
    tau = np.maximum(np.asarray(tau, dtype=float), TAU_FLOOR)
    G, M, Bb = _block_shape(R, len(tau), A)
    Q = np.zeros((G, F, F), dtype=complex)
    diag = np.arange(F)
    Q[:, diag, diag] = np.repeat(den.H.reshape(G, M, Bb).mean(axis=1), A, axis=1)

    H, weighed = den.H, den.weighed
    L = len(weighed)
    if L < G * M:
        H, R = H[weighed], R[weighed]
    n = L // G     # rows per block: only a block that runs alone leaves rows out

    psi = H[:, :, None] * H[:, None, :]
    psi -= den.m2
    psi *= np.sqrt(Ec)
    psi /= tau.reshape(G, Bb)[weighed // M, None, :]
    # psi[m, b_out, b_in]; J[a, f] = delta H - r_f conj(r_a) psi[b(f), b(a)]
    Rr = R.reshape(L, Bb, A)
    Rc = np.conj(Rr).view(float)                                     # (L, Bb, 2A)
    # output APs per product, so that its (L, chunk, Bb, 2A) temporary stays below the cap
    chunk = max(1, _Q2_CHUNK_REALS // (max(L, 1) * Bb * 2 * A))
    for b0 in range(0, Bb, chunk):
        b1 = min(b0 + chunk, Bb)
        # columns of output APs b0..b1-1: sum_m conj(r_a) psi[m, b, b(a)] r_f
        P = (psi[:, b0:b1, :, None] * Rc[:, None]).view(complex).reshape(L, b1 - b0, F)
        for j in range(G):
            s, e = j * n, (j + 1) * n
            Q2 = np.matmul(P[s:e].transpose(1, 2, 0), Rr[s:e, b0:b1].transpose(1, 0, 2))
            Q[j, :, b0 * A:b1 * A] -= (Q2.transpose(1, 0, 2) / M).reshape(F, (b1 - b0) * A)
    return Q


def amp_iterate(
    Y: np.ndarray,
    codebook: np.ndarray,
    log_prior: np.ndarray,
    g: np.ndarray,
    cfg: SystemConfig,
    per_ap: bool = False,
) -> tuple[np.ndarray, np.ndarray, dict]:
    """The AMP recursion on the receive columns ``Y``, shared by both decoders.

    ``Y`` (Nc, F') holds the antennas of some APs, ``codebook`` is the
    (Nc, U, M) array of :func:`~tumaloc.airlink.gen_codebook` and ``g``
    (U, K_max, N, F' / A) is the MC aggregate-LSFC table restricted to those
    APs.  The columns form one block, or with ``per_ap`` one independent
    recursion per AP, G = F' / A of them, run at once with their rows
    stacked: block j's rows are ``j M .. (j+1) M - 1`` of every per-zone
    array, and for A >= 2 its outputs equal those of a one-block call on
    its columns, capped at the same iteration count, bit for bit, whatever
    the chunk size (module docstring).  A non-finite iterate raises
    :class:`DecodeError` by its rule for stacked blocks.  The recursion
    stops after iteration t >= 2 once every AP's tau moved by less than
    :data:`TAU_TOL` relative to iteration t - 1, else after ``T_AMP``
    (module docstring); its output is then that of a run with
    ``T_AMP = t``, bit for bit.  The last iteration ends at the
    posteriors: it computes no channel estimates, Onsager term or
    residual, so a decode whose only non-finite value would be that
    residual returns its posteriors.

    Returns ``(posteriors, log_lik, diagnostics)``: the last iteration's
    per-zone multiplicity posteriors and MC-averaged log-likelihood
    tables, both (U, G M, K_max + 1), and the diagnostics: ``tau_trace``
    (t, F' / A), the tau each of the t iterations run started from,
    ``degenerate_rows`` and ``weighed_rows``, the rows that went through
    the denoiser's weight passes in each iteration, summed over zones; in
    every iteration but the last they are the rows that reach the residual
    and Onsager products.
    """
    Nc, F_all = Y.shape
    U, M, A = cfg.U, cfg.M, cfg.A
    G = F_all // A if per_ap else 1
    F = F_all // G
    Bb = F // A
    rows = G * M
    sqrt_ec = np.sqrt(cfg.Ec)

    # each zone's latest estimates on its weighed rows, (rows, values); zero on the other rows
    est = [(np.zeros(0, dtype=int), np.zeros((0, F), dtype=complex))] * U
    Z = Y.copy()
    R_u = np.empty((rows, F), dtype=complex)     # each zone's matched filter, overwritten zone by zone
    posts = np.zeros((U, rows, cfg.K_max + 1))
    log_lik = np.zeros((U, rows, cfg.K_max + 1))
    tau_trace = []
    weighed_rows = []
    degenerate_rows = 0

    for t in range(1, cfg.T_AMP + 1):
        tau = residual_covariance(Z, A)
        tau_trace.append(tau)
        # the last iteration: the cap, or every AP's tau moved by less than
        # TAU_TOL of its last value.  It stops at the posteriors
        last = t == cfg.T_AMP or (
            t >= 2 and (np.abs(tau - tau_trace[-2]) / tau_trace[-2]).max() < TAU_TOL
        )
        Gamma = np.zeros_like(Z)
        Gamma_blocks = Gamma.reshape(Nc, G, F).transpose(1, 0, 2)   # (G, Nc, F) views
        Z_blocks = Z.reshape(Nc, G, F).transpose(1, 0, 2)
        Zh = Z.conj().T.astype(codebook.dtype, copy=False)
        Q = np.zeros((G, F, F), dtype=complex)
        weighed_rows.append(0)
        for u in range(U):
            Cu = codebook[:, u]
            # matched filter Cu^H Z as one (F', Nc) @ (Nc, M) GEMM in the codebook's
            # precision, conjugating the small residual instead of Cu, then
            # conjugate-transposed in one pass into the complex128 stacked rows in
            # C order, which _check_finite's float view and onsager need
            np.conjugate((Zh @ Cu).reshape(G, F, M).transpose(0, 2, 1), out=R_u.reshape(G, M, F))
            at_rows, x_rows = est[u]
            R_u[at_rows] += sqrt_ec * x_rows
            _check_finite(R_u.reshape(G, M, F), t)
            new_rows, new_x = [], []
            for j0, j1 in _chunks(G, cfg):
                at, aps = slice(j0 * M, j1 * M), slice(j0 * Bb, j1 * Bb)
                den = denoise_rows(
                    R_u[at], tau[aps], g[u, ..., aps], log_prior[u], cfg.Ec, A, estimates=not last
                )
                degenerate_rows += int(den.degenerate.sum())
                weighed_rows[-1] += len(den.weighed)
                posts[u, at] = den.posterior
                log_lik[u, at] = den.log_mc_lik
                if not last:
                    new_rows.append(j0 * M + den.weighed)
                    new_x.append(den.x_hat[den.weighed])
                    Q[j0:j1] += onsager(R_u[at], den, tau[aps], cfg.Ec, A)
                del den     # one chunk's denoiser output alive at a time
            if last:
                continue
            at_rows, x_rows = est[u] = (np.concatenate(new_rows), np.concatenate(new_x))
            # one residual GEMM per zone on the weighed rows, block j's estimates in
            # columns j F .. (j+1) F - 1; only a block that runs alone leaves rows out.
            # Taken as (X_u^T C^T)^T: with the blocks along the output's rows, as in
            # the matched filter, BLAS rounds each block as a one-block call does.
            # The codebook rows are upcast exactly and multiplied in blocks of a
            # multiple of 128 rows whose copy fits the bound, if any does
            n = len(at_rows) // G
            X_u = x_rows.reshape(G, n, F).transpose(1, 0, 2).reshape(n, G * F)
            C_w = Cu if n == M else Cu[:, at_rows]
            step = 128 * max(1, _RESIDUAL_UPCAST_BYTES // (16 * 128 * max(n, 1)))
            for r0 in range(0, Nc, step):
                Gamma[r0 : r0 + step] += (X_u.T @ C_w[r0 : r0 + step].astype(complex, copy=False).T).T
        if last:
            break
        # the Onsager correction of all zones in one GEMM per block: Z (sum_u Q_u)
        Gamma_blocks -= (M / Nc) * np.matmul(Z_blocks, Q)
        Z = Y - sqrt_ec * Gamma
        _check_finite(Z.reshape(Nc, G, F).transpose(1, 0, 2), t)

    diagnostics = {
        "tau_trace": np.array(tau_trace),
        "degenerate_rows": degenerate_rows,
        "weighed_rows": weighed_rows,
    }
    return posts, log_lik, diagnostics


def amp_run(
    Y: np.ndarray,
    codebook: np.ndarray,
    prior: MultiplicityPrior,
    g: np.ndarray,
    cfg: SystemConfig,
) -> DecodeResult:
    """Full centralized decode: :func:`amp_iterate` on all F antennas, then MAP type estimation."""
    posts, _log_lik, diagnostics = amp_iterate(Y, codebook, prior.log_pmf, g, cfg)
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
