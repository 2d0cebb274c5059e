"""Shared independent oracles for the decoder tests.

Everything here avoids the package's denoiser/Onsager code paths: the
denoiser oracle evaluates the position integrals by Gauss-Legendre
quadrature, and the Jacobian oracle uses central finite differences of the
Wirtinger derivative.  ``compute_p_closest`` is the per-pair closest-target
integral that the pooled message-probability estimator replaces.
"""

import numpy as np

from tumaloc.airlink import STREAM_PRIORS, substream
from tumaloc.priors import DEFAULT_N_CELL
from tumaloc.scene import detection_prob_array


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


def onsager_reference(R, den, tau, Ec, A):
    """Onsager matrix by the plain einsum algebra, with no subnormal flush.

    ``den`` is the denoiser output of ``tumaloc.amp_central.denoise_rows``
    for the rows ``R``; the result is the row-averaged Wirtinger Jacobian
    ``Q[a, f] = delta(a, f) mean_m H - mean_m conj(r_a) r_f psi[b(f), b(a)]``.
    """
    M, F = R.shape
    K, N, B = den.shrink.shape
    tau = np.maximum(np.asarray(tau, dtype=float), 1e-15)
    omega = (den.posterior[:, 1:, None] * den.sample_weights).reshape(M, K * N)
    cfl = den.shrink.reshape(K * N, B)
    cpair = (cfl[:, :, None] * cfl[:, None, :]).reshape(K * N, B * B)
    M2 = (omega @ cpair).reshape(M, B, B)
    H = den.H
    psi = np.sqrt(Ec) * (H[:, :, None] * H[:, None, :] - M2) / tau[None, None, :]
    Rr = R.reshape(M, B, A)
    Q2 = np.einsum("max,mby,mba->axby", np.conj(Rr), Rr, psi).reshape(F, F)
    Q = np.diag(np.repeat(H.mean(axis=0), A)).astype(complex)
    Q -= Q2 / M
    return Q


def compute_p_closest(s, p, cfg, n_int=DEFAULT_N_CELL, seed=None):
    """Probability that target ``p`` is the closest detected one for sensor ``s``.

    ``J(s, p)^(T-1)`` with ``J`` the single-competitor MC integral; the
    strict-inequality indicator makes the coincident case return 1.
    """
    rng = substream(cfg.master_seed if seed is None else seed, STREAM_PRIORS, 1)
    s = np.asarray(s, dtype=float)
    p = np.asarray(p, dtype=float)
    if cfg.T_targets <= 1:
        return 1.0
    others = rng.uniform(0, cfg.area_side, size=(n_int, 2))
    pd = detection_prob_array(s[None, :], others, cfg)[0]
    closer = ((others - s) ** 2).sum(axis=1) < ((p - s) ** 2).sum()
    J = float(np.mean(1.0 - pd * closer))
    return J ** (cfg.T_targets - 1)
