"""Shared independent oracles and test-only helpers.

The oracles avoid the package's denoiser/Onsager code paths: the denoiser
oracle evaluates the position integrals by Gauss-Legendre quadrature, and
the Jacobian oracle uses central finite differences of the Wirtinger
derivative.  ``compute_p_closest`` is the per-pair closest-target integral
that the pooled message-probability estimator replaces; ``lsfc``,
``zone_of`` and ``quantize`` are the scalar references of the package's
vectorized maps.  ``gen_codebook_reference``, ``denoise_rows_reference``,
``onsager_loop_reference`` and ``amp_iterate_reference`` are the
whole-array codebook, the all-rows denoiser, the per-output-AP Onsager
loop and the all-rows AMP recursion that the package's in-place
codebook, ruled-dead rows, batched ``Q2`` product and weighed-row
recursion must reproduce; ``second_moment_reference`` is the Onsager second moment
by one einsum over every sample column, with no flush, that the
denoiser's column floor must stay within its bound of;
``log_lik_table_reference`` is the all-rows denoiser's
full table of sample log-likelihoods, whose row maxima the one-AP peak
search must find.  ``detection_prob_array_reference`` and
``compute_msg_probs_reference`` are the whole-array detection kernel and
the one-sensor-at-a-time message-probability integral, its mirrored zones
read off reflected cell centres, that the block evaluation must reproduce
bit for bit.  ``detection_integral_quad`` is the single-target detection
integral by adaptive quadrature, with the inside angle of
``inside_angle_reference`` built arc by arc, against which the activation
integral's fixed radial rule is checked.
``multiplicity_pmf_full`` is the binomial-thinning prior over every
k = 0..K, whose first K_max + 1 columns ``build_prior`` must reproduce.

The helpers read quantities off the package that only tests need:
``decoder_loglik`` the decoder's own diagonal log-Gaussian likelihood,
``amp_traces`` the channel estimation error and residual-variance gap of
chosen AMP iterations, ``effective_channels_dense`` and
``synthesize_dense`` the dense (U, M, F) channel array of a round and the
received signal from such an array, ``raw_gaussian_codebook`` the unnormalized codebook
of the state-evolution analysis, ``snr_conversions`` the SNRs implied by
a configuration and ``config_to_dict`` the JSON form of a configuration.
"""

import math

import numpy as np
from scipy.integrate import quad
from scipy.special import chndtr

from tumaloc.airlink import STREAM_CODEBOOK, STREAM_PRIORS, substream, synthesize_rx
from tumaloc.amp_central import (
    TAU_FLOOR,
    ZoneDenoiseResult,
    denoise_rows,
    onsager,
    residual_covariance,
)
from tumaloc.config import SystemConfig, _gamma_of_distance
from tumaloc.priors import DEFAULT_N_CELL, _falloff_radii
from tumaloc.scene import (
    _detection_noncentrality,
    _noncentrality_scale,
    _pd_table,
    detection_prob_array,
    quantize_array,
)
from tumaloc.specfun import _MARCUM_ONE_GAP, binom_logpmf, marcum_q1


def gamma_of(points, aps, d0, beta):
    d = np.linalg.norm(points[:, None, :] - aps[None, :, :], axis=-1)
    return 1.0 / (1.0 + (d / d0) ** beta)


def gl_nodes(x0, x1, n):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x1 - x0) * x + 0.5 * (x0 + x1), 0.5 * (x1 - x0) * w


def grid_denoiser_oracle(r, tau, Ec, prior, aps, zone, d0, beta, A=1, n1=40, n2=20):
    """Posterior over k in {0,1,2} and posterior-mean estimate by quadrature.

    Evaluates the position-likelihood integrals for one and two users over
    the zone (2-D and 4-D) on tensorized Gauss-Legendre grids; inputs with
    A > 1 use per-AP-constant diagonal covariances like the model.
    """
    (x0, x1), (y0, y1) = zone
    area = (x1 - x0) * (y1 - y0)
    B = aps.shape[0]
    energy = (np.abs(r) ** 2).reshape(B, A).sum(axis=1)

    def loglike(gm):
        v = tau[None, :] + Ec * gm
        return -A * (np.log(np.pi * v)).sum(1) - (energy[None, :] / v).sum(1)

    def weighted_moments(gm, logw):
        ll = loglike(gm)
        m = ll.max()
        w = np.exp(logw + ll - m)
        integral = np.exp(m) * w.sum()
        shrink = np.sqrt(Ec) * gm / (tau[None, :] + Ec * gm)
        mean_shrink = (w[:, None] * shrink).sum(0) / w.sum()
        return integral, mean_shrink

    xs, wx = gl_nodes(x0, x1, n1)
    ys, wy = gl_nodes(y0, y1, n1)
    P1 = np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1).reshape(-1, 2)
    W1 = (wx[:, None] * wy[None, :]).reshape(-1)
    g1 = gamma_of(P1, aps, d0, beta)
    I1, S1 = weighted_moments(g1, np.log(W1 / area))

    xs2, wx2 = gl_nodes(x0, x1, n2)
    ys2, wy2 = gl_nodes(y0, y1, n2)
    P2 = np.stack(np.meshgrid(xs2, ys2, indexing="ij"), axis=-1).reshape(-1, 2)
    W2 = (wx2[:, None] * wy2[None, :]).reshape(-1)
    g2 = gamma_of(P2, aps, d0, beta)
    gsum = (g2[:, None, :] + g2[None, :, :]).reshape(-1, B)
    Wp = (W2[:, None] * W2[None, :]).reshape(-1)
    I2, S2 = weighted_moments(gsum, np.log(Wp / area**2))

    I0 = np.exp(-A * np.log(np.pi * tau).sum() - (energy / tau).sum())
    post_un = np.asarray(prior) * np.array([I0, I1, I2])
    post = post_un / post_un.sum()
    x_hat = (post[1] * np.repeat(S1, A) + post[2] * np.repeat(S2, A)) * r
    return post, x_hat


def fd_wirtinger_jacobian(eta, r, h=1e-5):
    """Central finite-difference Wirtinger Jacobian J[a, f] = d eta_f / d r_a.

    ``eta`` maps C^F -> C^F; the Wirtinger derivative combines the real and
    imaginary directional differences as (d/dx - i d/dy) / 2.
    """
    F = r.shape[0]
    J = np.zeros((F, F), dtype=complex)
    for a in range(F):
        e = np.zeros(F, dtype=complex)
        e[a] = h
        gx = (eta(r + e) - eta(r - e)) / (2 * h)
        gy = (eta(r + 1j * e) - eta(r - 1j * e)) / (2 * h)
        J[a, :] = 0.5 * (gx - 1j * gy)
    return J


def random_denoiser_instance(seed, zone_side=20.0, d0=80.0, ap_offset=55.0):
    """Frozen instance ensemble used by the grid-oracle comparisons."""
    rng = np.random.default_rng(seed)
    zone = ((0.0, zone_side), (0.0, zone_side))
    mid = zone_side / 2
    aps = np.array([[-ap_offset, mid], [zone_side + ap_offset, mid]])
    beta = 3.67
    tau = rng.uniform(0.5, 1.2, size=2)
    Ec = float(rng.uniform(1.5, 3.5))
    prior = rng.dirichlet(np.ones(3))
    k_true = int(rng.integers(0, 3))
    pos = rng.uniform([0, 0], [zone_side, zone_side], size=(max(k_true, 1), 2))
    g_true = gamma_of(pos, aps, d0, beta)[:k_true].sum(0) if k_true else np.zeros(2)
    v = tau + Ec * g_true
    r = (rng.normal(size=2) + 1j * rng.normal(size=2)) * np.sqrt(v / 2)
    return {
        "r": r, "tau": tau, "Ec": Ec, "prior": prior, "aps": aps,
        "zone": zone, "d0": d0, "beta": beta,
    }


def mc_table_for(aps, zone, d0, beta, n_mc, k_max, seed):
    """Uniform position samples with cumulative aggregate-LSFC sums."""
    rng = np.random.default_rng(seed)
    (x0, x1), (y0, y1) = zone
    pos = np.stack(
        [rng.uniform(x0, x1, (n_mc, k_max)), rng.uniform(y0, y1, (n_mc, k_max))], axis=-1
    )
    gam = gamma_of(pos.reshape(-1, 2), aps, d0, beta).reshape(n_mc, k_max, -1)
    return np.cumsum(gam, axis=1).transpose(1, 0, 2).copy()


def log_lik_table_reference(R, tau, g, Ec, A):
    """Every row's sample log-likelihoods, as ``denoise_rows`` built them before the peak search.

    Returns the (G M, K_max, N) table ``log p(r_m | rho^i_{1:k})``, each
    entry ``e (-1/v) - logdet`` in one multiply and one subtraction on a
    one-AP block, and the (G, M) empty-hypothesis log-likelihoods ``ll0``
    of the G blocks.  ``tau`` as ``denoise_rows`` floors it.
    """
    K, N, B = g.shape
    Bb = R.shape[1] // A
    G = B // Bb
    M = R.shape[0] // G
    rows = G * M
    energy = (np.abs(R) ** 2).reshape(rows, Bb, A).sum(axis=2)
    v = tau[None, None, :] + Ec * g
    neg_inv_v = -(1.0 / v)
    logdet = A * np.log(np.pi * v).reshape(K, N, G, Bb).sum(axis=3)
    log_tau = A * np.log(np.pi * tau).reshape(G, Bb).sum(axis=1)
    if Bb == 1:
        W = energy.reshape(G, M, 1, 1) * neg_inv_v.transpose(2, 0, 1)[:, None]
        ll0 = -(energy.reshape(G, M) * (1.0 / tau)[:, None])
    else:
        e = energy.reshape(G, M, Bb)
        W = np.matmul(e, neg_inv_v.reshape(K * N, G, Bb).transpose(1, 2, 0))
        ll0 = -np.matmul(e, (1.0 / tau).reshape(G, Bb, 1))[..., 0]
    W = W.reshape(G, M, K, N)
    W -= logdet.transpose(2, 0, 1)[:, None]
    ll0 -= log_tau[:, None]
    return W.reshape(rows, K, N), ll0


def denoise_rows_reference(R, tau, g, log_prior, Ec, A):
    """``denoise_rows`` with every row through the weight passes.

    The package's denoiser as it was before it ruled rows dead: the
    exp, sum, normalization and shrinkage product run over the full
    (G M, K_max, N) weight array, so every row's ``log_mc_lik`` is the
    exact MC average, ``weighed`` is every row and ``m2`` covers every row.
    Same arguments and result type as ``tumaloc.amp_central.denoise_rows``.
    """
    K, N, B = g.shape
    Bb = R.shape[1] // A
    G = B // Bb
    M = R.shape[0] // G
    rows = G * M
    tiny = np.finfo(float).tiny
    tau = np.maximum(np.asarray(tau, dtype=float), TAU_FLOOR)
    W, ll0 = log_lik_table_reference(R, tau, g, Ec, A)
    inv_v = 1.0 / (tau[None, None, :] + Ec * g)

    mx = W.max(axis=2)
    W -= mx[..., None]
    np.exp(W, out=W)
    w_sum = W.sum(axis=2)
    log_mc = np.empty((rows, K + 1))
    log_mc[:, 0] = ll0.reshape(rows)
    log_mc[:, 1:] = mx + np.log(w_sum / N)
    W /= w_sum[..., None]

    log_post_un = (log_mc.reshape(G, M, K + 1) + log_prior).reshape(rows, K + 1)
    post_mx = log_post_un.max(axis=1)
    degenerate = ~np.isfinite(post_mx)
    safe_mx = np.where(degenerate, 0.0, post_mx)
    post_un = np.exp(log_post_un - safe_mx[:, None])
    post = post_un / post_un.sum(axis=1, keepdims=True)
    if degenerate.any():
        prior_lin = np.exp(log_prior[np.flatnonzero(degenerate) % M])
        post[degenerate] = prior_lin / prior_lin.sum(axis=1, keepdims=True)
        W[degenerate] = 1.0 / N

    shrink = np.sqrt(Ec) * g * inv_v
    shrink_blocks = np.ascontiguousarray(shrink.reshape(K, N, G, Bb).transpose(2, 0, 1, 3))
    shrink_mean = np.matmul(
        W.reshape(G, M, K, N).transpose(0, 2, 1, 3), shrink_blocks
    ).transpose(0, 2, 1, 3)
    H = np.einsum(
        "gmk,gmkb->gmb", post.reshape(G, M, K + 1)[..., 1:], shrink_mean
    ).reshape(rows, Bb)
    if degenerate.any():
        H[degenerate] = 0.0
    x_hat = R * np.repeat(H, A, axis=1)
    for part in (x_hat.real, x_hat.imag):
        part[np.abs(part) < tiny] = 0.0
    den = ZoneDenoiseResult(
        x_hat=x_hat, posterior=post, log_mc_lik=log_mc, weights=W, shrink=shrink,
        H=H, degenerate=degenerate, weighed=np.arange(rows), m2=None,
    )
    den.m2 = second_moment_reference(den, den.weighed)
    return den


def weighed_rows_reference(R, tau, g, log_prior, Ec, A):
    """The rows of one block that the all-rows weighed-row test keeps.

    Every row's exact ``mx_k``, the max of :func:`log_lik_table_reference`
    over the samples, gives s^hi (each row's mass on k >= 1 at ``mx_k``)
    and s^lo (at ``mx_k - log N``); the rows with
    ``s^hi >= max(1e-16 max s^lo, tiny) / 2`` are kept.  The set that
    ``denoise_rows`` weighed on a block of several APs before it ruled rows
    dead by a sample-free bound.
    """
    K, N, _B = g.shape
    tau = np.maximum(np.asarray(tau, dtype=float), TAU_FLOOR)
    W, ll0 = log_lik_table_reference(R, tau, g, Ec, A)
    log_mc = np.empty((len(R), K + 1))
    log_mc[:, 0] = ll0.reshape(-1)
    log_mc[:, 1:] = W.max(axis=2)

    def mass(log_lik):
        log_post = log_lik + log_prior
        post = np.exp(log_post - log_post.max(axis=1, keepdims=True))
        return (post / post.sum(axis=1, keepdims=True))[:, 1:].sum(axis=1)

    s_hi = mass(log_mc)
    log_mc[:, 1:] -= np.log(N)
    floor_lo = max(1e-16 * mass(log_mc).max(), np.finfo(float).tiny)
    return np.flatnonzero(s_hi >= floor_lo / 2)


def second_moment_reference(den, rows):
    """The Onsager second moment M of ``rows`` by one einsum: every sample column, no flush.

    ``M[m, b, b'] = sum_k post_k sum_i w_i(k) c_{b,i,k} c_{b',i,k}`` over the
    APs of row m's block, from ``den.posterior``, ``den.sample_weights`` and
    ``den.shrink``; (len(rows), Bb, Bb), as ``ZoneDenoiseResult.m2``.  The
    einsum takes an optimized contraction path; summed in written operand
    order, the four-operand product takes most of a reference recursion.
    """
    K, N, B = den.shrink.shape
    Bb = den.H.shape[1]
    M = len(den.H) * Bb // B
    c = den.shrink.reshape(K, N, B // Bb, Bb)[:, :, rows // M]       # (K, N, L, Bb)
    return np.einsum(
        "mk,mki,kimb,kimc->mbc", den.posterior[rows, 1:], den.sample_weights[rows], c, c,
        optimize=True,
    )


def onsager_reference(R, den, tau, Ec, A):
    """Onsager matrix by the plain einsum algebra on every row, with no subnormal flush.

    ``den`` is a one-block denoiser output for the rows ``R`` (``denoise_rows``
    or ``denoise_rows_reference``), whose ``m2`` it does not read; the
    second moment is ``second_moment_reference`` on all rows, and the
    result is the row-averaged Wirtinger Jacobian
    ``Q[a, f] = delta(a, f) mean_m H - mean_m conj(r_a) r_f psi[b(f), b(a)]``.
    """
    M, F = R.shape
    B = F // A
    tau = np.maximum(np.asarray(tau, dtype=float), 1e-15)
    M2 = second_moment_reference(den, np.arange(M))
    H = den.H
    psi = np.sqrt(Ec) * (H[:, :, None] * H[:, None, :] - M2) / tau[None, None, :]
    Rr = R.reshape(M, B, A)
    Q2 = np.einsum("max,mby,mba->axby", np.conj(Rr), Rr, psi).reshape(F, F)
    Q = np.diag(np.repeat(H.mean(axis=0), A)).astype(complex)
    Q -= Q2 / M
    return Q


def onsager_loop_reference(R, den, tau, Ec, A):
    """``onsager`` with one ``Q2`` product per output AP and block.

    The package's Onsager matrix as it was before the ``Q2`` products of
    all output APs ran as one batched product: a Python loop over the
    output APs, each a (F, L) @ (L, A) GEMM per block, with the second
    moment from ``den.m2``.  Same arguments and result as
    ``tumaloc.amp_central.onsager``.
    """
    F = R.shape[1]
    Bb = F // A
    G = len(tau) // Bb
    M = R.shape[0] // G
    tau = np.maximum(np.asarray(tau, dtype=float), TAU_FLOOR)
    Q = np.zeros((G, F, F), dtype=complex)
    diag = np.arange(F)
    Q[:, diag, diag] = np.repeat(den.H.reshape(G, M, Bb).mean(axis=1), A, axis=1)

    H, weighed = den.H, den.weighed
    L = len(weighed)
    if L < G * M:
        H, R = H[weighed], R[weighed]
    ends = np.searchsorted(weighed, M * np.arange(1, G + 1))
    blocks = list(enumerate(zip([0, *ends[:-1]], ends)))

    psi = H[:, :, None] * H[:, None, :]
    psi -= den.m2
    psi *= np.sqrt(Ec)
    psi /= tau.reshape(G, Bb)[weighed // M, None, :]
    Rr = R.reshape(L, Bb, A)
    Rc = np.conj(Rr).view(float)
    prod = np.empty_like(Rc)
    for b in range(Bb):
        np.multiply(psi[:, b, :, None], Rc, out=prod)
        P = prod.view(complex).reshape(L, F)
        for j, (s, e) in blocks:
            Q2_b = P[s:e].T @ Rr[s:e, b, :]
            Q[j, :, b * A:(b + 1) * A] -= Q2_b / M
    return Q


def amp_iterate_reference(Y, codebook, log_prior, g, cfg, denoise=denoise_rows_reference):
    """The AMP recursion with every row in every product, all ``T_AMP`` iterations.

    ``amp_iterate`` as it was before the ruled-dead rows:
    ``denoise_rows_reference`` weighs every row and gives ``m2`` on all of
    them, so the Onsager term and the residual GEMM ``C_u @ X_u`` cover all
    M rows of every zone.  Its last iteration, too, runs to the residual.
    ``denoise`` may be the package's ``denoise_rows`` instead, whose
    estimates are zero on the rows it leaves out.  Returns
    ``(posteriors, log_lik, X, Z)``: the final channel estimates (U, M, F)
    and residual (Nc, F) as well.
    """
    Nc, F = Y.shape
    U, M, A = cfg.U, cfg.M, cfg.A
    X = np.zeros((U, M, F), dtype=complex)
    Z = Y.copy()
    posts = np.zeros((U, M, cfg.K_max + 1))
    log_lik = np.zeros((U, M, cfg.K_max + 1))
    for _t in range(cfg.T_AMP):
        tau = residual_covariance(Z, A)
        Gamma = np.zeros_like(Z)
        Zh = Z.conj().T.astype(codebook.dtype)     # the matched filter in the codebook's precision
        for u in range(U):
            Cu = codebook[:, u]
            R_u = (Zh @ Cu).conj().T + np.sqrt(cfg.Ec) * X[u]
            den = denoise(R_u, tau, g[u], log_prior[u], cfg.Ec, A)
            X[u] = den.x_hat
            posts[u] = den.posterior
            log_lik[u] = den.log_mc_lik
            Q_u = onsager(R_u, den, tau, cfg.Ec, A)[0]
            Gamma += Cu @ X[u] - (M / Nc) * (Z @ Q_u)
        Z = Y - np.sqrt(cfg.Ec) * Gamma
    return posts, log_lik, X, Z


def effective_channels_dense(round_, fading):
    """The round's (U, M, F) effective-channel array, zero on the codewords not sent.

    Colliding users' channels are added in round order; the rows that
    ``airlink.effective_channels`` returns are its sent rows.
    """
    h = np.atleast_2d(fading)
    X = np.zeros((round_.U, round_.M, h.shape[1]), dtype=complex)
    np.add.at(X, (round_.zones, round_.messages), h)
    return X


def synthesize_dense(codebook, X, cfg, seed):
    """``airlink.synthesize_rx`` from a dense (U, M, F) channel array: its rows with a nonzero entry."""
    Xf = np.ascontiguousarray(X).reshape(cfg.U * cfg.M, -1)
    sent = np.flatnonzero(Xf.view(float).any(axis=1))     # real or imaginary part nonzero
    return synthesize_rx(codebook, sent, Xf[sent], cfg, seed)


def compute_p_closest(s, p, cfg, n_int=DEFAULT_N_CELL, seed=0):
    """Probability that target ``p`` is the closest detected one for sensor ``s``.

    ``J(s, p)^(T-1)`` with ``J`` the single-competitor MC integral; the
    strict-inequality indicator makes the coincident case return 1.
    """
    rng = substream(seed, STREAM_PRIORS, 1)
    s = np.asarray(s, dtype=float)
    p = np.asarray(p, dtype=float)
    if cfg.T_targets <= 1:
        return 1.0
    others = rng.uniform(0, cfg.area_side, size=(n_int, 2))
    pd = detection_prob_array(s[None, :], others, cfg)[0]
    closer = ((others - s) ** 2).sum(axis=1) < ((p - s) ** 2).sum()
    J = float(np.mean(1.0 - pd * closer))
    return J ** (cfg.T_targets - 1)


def detection_prob_array_reference(sensors, targets, cfg):
    """``detection_prob_array`` as one pass of each step over the whole (K, T) array."""
    d2 = sensors[:, 0, None] - targets[None, :, 0]
    dy = sensors[:, 1, None] - targets[None, :, 1]
    d2 *= d2
    dy *= dy
    d2 += dy
    b = float(np.sqrt(cfg.gamma_threshold))
    table = _pd_table(_noncentrality_scale(cfg), b, 2.0 * cfg.area_side**2)
    if table is None:
        pd = np.ones_like(d2)
        direct = np.ones(d2.shape, dtype=bool)
    else:
        u_lo, inv_h, coef = table
        n_cells = coef.shape[1]
        with np.errstate(divide="ignore"):
            t = np.log(d2)
        t -= u_lo
        t *= inv_h
        direct = ~((t >= 0.0) & (t <= n_cells))
        # evaluate every entry, the direct ones on cell 0, then overwrite those
        t[direct] = 0.0
        cell = np.minimum(t.astype(np.intp), n_cells - 1)
        t -= cell
        pd = np.take(coef[-1], cell)
        for c in coef[-2::-1]:
            pd *= t
            pd += np.take(c, cell)
        np.clip(pd, 0.0, 1.0, out=pd)
        pd[direct] = 1.0
    far = direct & (d2 != 0)
    if far.any():
        pd[far] = marcum_q1(_detection_noncentrality(d2[far], cfg), b)
    return pd


def inside_angle_reference(s, r, side):
    """Angle of the radius-``r`` circle about ``s`` that lies inside the square, arc by arc.

    The circle's crossings with the four edge lines cut it into arcs; an arc
    counts when its midpoint lies in the closed square.
    """
    x, y = s
    cuts = [0.0, 2.0 * math.pi]
    for c, on_cos in ((-x / r, True), ((side - x) / r, True), (-y / r, False), ((side - y) / r, False)):
        if abs(c) <= 1.0:
            if on_cos:
                a = math.acos(c)
                cuts += [a, 2.0 * math.pi - a]
            else:
                a = math.asin(c)
                cuts += [a % (2.0 * math.pi), math.pi - a]
    cuts.sort()
    tol = 1e-12 * side
    total = 0.0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        mid = 0.5 * (lo + hi)
        px, py = x + r * math.cos(mid), y + r * math.sin(mid)
        if -tol <= px <= side + tol and -tol <= py <= side + tol:
            total += hi - lo
    return total


def detection_integral_quad(s, cfg, epsrel=1e-13):
    """Single-target detection probability at sensor ``s`` by ``scipy.integrate.quad``.

    ``(1/S^2) int pd(r^2) r theta_s(r) dr`` with the inside angle from
    :func:`inside_angle_reference` and ``pd`` from scipy's noncentral
    chi-square cdf, one adaptive quadrature per piece between the
    package's breakpoints (edge and corner distances and
    ``priors._falloff_radii``).
    """
    x, y = float(s[0]), float(s[1])
    side = cfg.area_side
    c0 = _noncentrality_scale(cfg)
    b2 = cfg.gamma_threshold
    one = (math.sqrt(b2) + _MARCUM_ONE_GAP) ** 2

    def f(r):
        a2 = (c0 / (r * r)) ** 2 if r > 0.0 else math.inf
        pd = 1.0 if a2 > one else 1.0 - chndtr(b2, 2.0, a2)
        return pd * r * inside_angle_reference((x, y), r, side)

    d = [x, y, side - x, side - y]
    corners = [math.hypot(d[i], d[(i + 1) % 4]) for i in range(4)]
    R = max(corners)
    ends = sorted({min(e, R) for e in [0.0, *d, *corners, *_falloff_radii(cfg)]})
    total = 0.0
    for lo, hi in zip(ends[:-1], ends[1:]):
        total += quad(f, lo, hi, epsabs=1e-14 * side**2, epsrel=epsrel, limit=200)[0]
    return total / side**2


def compute_msg_probs_reference(cfg, topology, quantizer, n_int=DEFAULT_N_CELL):
    """``compute_msg_probs`` one sensor at a time, each with its own target cloud.

    Only the zones in the lower-left quarter of the zone grid (middle row
    and column included) are drawn, in zone order.  Every other zone reads
    its representative's normalized table at the cells that hold its own
    cell centres reflected in the area's centre lines, ``x -> S - x`` when
    the zone lies right of the middle and ``y -> S - y`` when above it.
    """
    rng = substream(0, STREAM_PRIORS, 2)
    U, M = topology.U, quantizer.M
    rows, cols = topology.zone_grid
    side = cfg.area_side
    n_sensors = max(64, n_int // 8)
    n_targets = max(4096, 4 * M, int(np.ceil(n_int * M / n_sensors)))
    Tm1 = cfg.T_targets - 1
    drawn = {}
    for u in range(U):
        iy, ix = divmod(u, cols)
        if 2 * iy > rows - 1 or 2 * ix > cols - 1:
            continue
        x0, y0, x1, y1 = topology.zone_rects[u]
        svals = np.stack(
            [rng.uniform(x0, x1, n_sensors), rng.uniform(y0, y1, n_sensors)], axis=1
        )
        raw = np.zeros(M)
        for s in svals:
            cloud = rng.uniform(0, side, size=(n_targets, 2))
            pd = detection_prob_array_reference(s[None, :], cloud, cfg)[0]
            d2 = ((cloud - s) ** 2).sum(axis=1)
            order = np.argsort(d2)
            csum = np.concatenate([[0.0], np.cumsum(pd[order])])
            J = 1.0 - csum[:-1] / n_targets
            p_closest = J**Tm1 if Tm1 > 0 else np.ones(n_targets)
            weights = pd[order] * p_closest
            cells = quantize_array(quantizer, cloud[order])
            raw += np.bincount(cells, weights=weights, minlength=M) / n_targets
        raw /= n_sensors
        if raw.sum() <= 0:
            raise ValueError("message-probability integration produced an all-zero zone")
        drawn[u] = raw / raw.sum()
    out = np.empty((U, M))
    for u in range(U):
        iy, ix = divmod(u, cols)
        centres = quantizer.grid_points.copy()
        if 2 * ix > cols - 1:
            centres[:, 0] = side - centres[:, 0]
            ix = cols - 1 - ix
        if 2 * iy > rows - 1:
            centres[:, 1] = side - centres[:, 1]
            iy = rows - 1 - iy
        out[u] = drawn[iy * cols + ix][quantize_array(quantizer, centres)]
    return out


def multiplicity_pmf_full(K, U, p_active, msg_prob):
    """Exact binomial-chain pmf over k = 0..K for each entry of ``msg_prob``.

    The chain ``p(k) = sum_{Ka} sum_{Kau} Bin(k; Kau, pm) Bin(Kau; Ka, 1/U)
    Bin(Ka; K, p_active)`` is three successive binomial thinnings of the K
    sensors, so it equals ``Bin(k; K, p_active pm / U)``, evaluated with
    log-domain binomials.  Returns an array of shape
    ``msg_prob.shape + (K + 1,)``.
    """
    q = p_active * np.asarray(msg_prob, dtype=float)[..., None] / U
    return np.exp(binom_logpmf(np.arange(K + 1), K, q))


def lsfc(rho, ap_position, cfg):
    """Large-scale fading coefficient ``1 / (1 + (d / d0)^beta)`` in (0, 1] for one point and AP."""
    diff = np.asarray(rho, dtype=float) - np.asarray(ap_position, dtype=float)
    # 1-element array, not a 0-d scalar: keeps the ufunc kernel identical to
    # the vectorized path so lsfc_vector entries match bit-for-bit
    d = np.sqrt((diff * diff).sum(axis=-1, keepdims=True))
    return float(_gamma_of_distance(d, cfg)[0])


def zone_of(rho, topology):
    """Zone index of a point; half-open rectangles, left/bottom inclusive.

    The outer boundary of the area belongs to the last row/column so that
    the map is total on the closed square.
    """
    x, y = float(rho[0]), float(rho[1])
    side = topology.area_side
    if not (0.0 <= x <= side and 0.0 <= y <= side):
        raise ValueError(f"point {(x, y)} outside coverage area")
    rows, cols = topology.zone_grid
    ix = min(int(x // (side / cols)), cols - 1)
    iy = min(int(y // (side / rows)), rows - 1)
    return iy * cols + ix


def quantize(q, point):
    """Index of the nearest grid point; ties break toward the lowest index."""
    p = np.asarray(point, dtype=float)
    d2 = ((q.grid_points - p) ** 2).sum(axis=1)
    return int(np.argmin(d2))


def snr_conversions(cfg, topology):
    """Transmit and received SNR implied by the configuration.

    ``SNR_tx = Ec / (Nc sigma_w^2)`` and
    ``SNR_rx = SNR_tx / (1 + (varsigma / d0)^beta)`` with ``varsigma`` the
    centroid-to-nearest-AP distance.  The attenuation exponent is the
    path-loss exponent ``beta``.
    """
    snr_tx = cfg.Ec / (cfg.Nc * cfg.sigma_w2)
    varsigma = topology.centroid_nearest_ap_distance()
    snr_rx = snr_tx / (1.0 + (varsigma / cfg.d0) ** cfg.beta)
    return {"snr_tx": snr_tx, "snr_rx": snr_rx, "varsigma": varsigma}


def config_to_dict(cfg):
    """JSON-serializable field dict of a configuration, as ``load_config`` reads it."""
    d = {}
    for name in SystemConfig.__dataclass_fields__:
        val = getattr(cfg, name)
        if isinstance(val, tuple):
            val = list(list(v) if isinstance(v, tuple) else v for v in val)
        d[name] = val
    return d


def decoder_loglik(r, tau, g, Ec, A):
    """The decoder's log-likelihoods of one observation ``r`` (length A * B).

    ``denoise_rows`` on a one-sample table (N = 1) with aggregate LSFC
    ``g`` (B,): entry 0 is the diagonal circular log-Gaussian density with
    per-AP variances ``tau``, entry 1 the same at ``tau + Ec g``.
    """
    g = np.asarray(g, dtype=float).reshape(1, 1, -1)
    den = denoise_rows(np.asarray(r)[None], tau, g, np.zeros((1, 2)), Ec, A)
    return den.log_mc_lik[0]


def raw_gaussian_codebook(cfg, seed):
    """Unnormalized CN(0, 1/Nc) codebook: ``gen_codebook``'s draws before the column scaling.

    An (Nc, U, M) complex128 array, shaped as ``gen_codebook`` returns; the
    AMP recursion runs its matched filter on it in double precision.
    """
    rng = substream(seed, STREAM_CODEBOOK)
    shape = (cfg.Nc, cfg.U * cfg.M)
    c = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2 * cfg.Nc)
    return c.reshape(cfg.Nc, cfg.U, cfg.M)


def gen_codebook_reference(cfg, seed):
    """The codebook by whole-array arithmetic: ``gen_codebook`` without its row blocks.

    The raw codebook rounded to single precision, its squared column norms
    summed in float64 over the rows (numpy reduces axis 0 of a C-ordered
    array row after row), real parts then imaginary parts, and each part
    scaled in float64 by the reciprocal norm, then rounded again.
    """
    y = raw_gaussian_codebook(cfg, seed).reshape(cfg.Nc, cfg.U * cfg.M).astype(np.complex64)
    re, im = y.real.astype(float), y.imag.astype(float)
    inv = 1.0 / np.sqrt((re * re).sum(axis=0) + (im * im).sum(axis=0))
    c = np.empty_like(y)
    c.real, c.imag = re * inv, im * inv
    return c.reshape(cfg.Nc, cfg.U, cfg.M)


def channel_estimation_error(X, X_true, cfg):
    """Energy-normalized squared estimation error ``(Ec / Nc) sum_u ||X_u - X_u^true||_F^2``.

    The 1/Nc factor puts the error on the same scale as the residual-based
    variance gap ``sum_b A (tau_b - sigma_w^2)`` it is compared against.
    """
    return float(cfg.Ec / cfg.Nc * np.sum(np.abs(X - X_true) ** 2))


def amp_traces(Y, codebook, log_prior, g, cfg, X_true, iterations):
    """Channel estimation error and residual-variance gap after each of ``iterations``.

    Iteration t is the final iterate of ``amp_iterate_reference`` with the
    package's denoiser at ``T_AMP = t``, since ``amp_iterate`` returns no
    estimates or residual: its iterations are ``amp_iterate``'s, up to the
    summation order of the residual product and with no stop rule.  ``Y``,
    ``g`` and ``X_true`` may be restricted to one AP's antennas, as in the
    distributed decoder's local runs.
    """
    errs, gaps = [], []
    for t in iterations:
        _posts, _log_lik, X, Z = amp_iterate_reference(
            Y, codebook, log_prior, g, cfg.with_updates(T_AMP=t), denoise=denoise_rows
        )
        errs.append(channel_estimation_error(X, X_true, cfg))
        gaps.append(float(np.sum(cfg.A * (residual_covariance(Z, cfg.A) - cfg.sigma_w2))))
    return np.array(errs), np.array(gaps)
