"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The full-scale decoder
reproduction (centralized TV at 10 dB, 10-bit messages, 100 runs) took
194 s on a 2-core VM with one BLAS thread and only runs when
TUMALOC_FULL_SCALE=1 is set; TUMALOC_FULL_SCALE_RUNS sets its run count.
"""

import os

import numpy as np
import pytest

from oracle_utils import (
    amp_traces,
    decoder_loglik,
    effective_channels_dense,
    fd_wirtinger_jacobian,
    grid_denoiser_oracle,
    mc_table_for,
    multiplicity_pmf_full,
    random_denoiser_instance,
    raw_gaussian_codebook,
    synthesize_dense,
)
from tumaloc import airlink, amp_central, amp_dist, harness
from tumaloc.amp_central import amp_run, build_mc_table, denoise_rows, onsager
from tumaloc.amp_dist import aggregate_posteriors, local_amp_run
from tumaloc.config import SystemConfig, build_topology, desk_preset, paper_preset, sigma_w2_for_snr_rx
from tumaloc.metrics import WeightedPointSet, transport_plan, tv_distance, wasserstein_p
from tumaloc.priors import build_prior
from tumaloc.specfun import marcum_q1


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} — {name}: {detail}")
    assert ok, f"criterion {num}: {name}: {detail}"


def test_criterion_01_marcum_vs_quadrature():
    from test_specfun import marcum_quadrature

    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(10_000):
        a, b = rng.uniform(0.0, 10.0, size=2)
        worst = max(worst, abs(marcum_q1(a, b) - marcum_quadrature(a, b)))
    _report(1, "Marcum-Q vs quadrature oracle", worst <= 1e-9, f"max abs err {worst:.2e} <= 1e-9")


def test_criterion_02_diag_gaussian_vs_dense():
    # the decoder's own likelihood (denoise_rows on a one-sample table):
    # the empty hypothesis at variances v, one position at v + Ec g
    def dense(r, v, A):
        cov = np.diag(np.repeat(v, A)).astype(complex)
        _sign, logdet = np.linalg.slogdet(np.pi * cov)
        return float(-logdet - np.real(r.conj() @ np.linalg.solve(cov, r)))

    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(1000):
        B = int(rng.integers(1, 9))
        A = int(rng.integers(1, 5))
        if A * B > 16:
            A = max(1, 16 // B)
        v = rng.uniform(0.05, 4.0, size=B)
        g = rng.uniform(0.0, 1.0, size=B)
        r = rng.normal(size=A * B) + 1j * rng.normal(size=A * B)
        got = decoder_loglik(r, v, g, 2.0, A)
        for got_k, want in zip(got, (dense(r, v, A), dense(r, v + 2.0 * g, A))):
            worst = max(worst, abs(got_k - want) / abs(want))
    _report(2, "diagonal log-Gaussian vs dense oracle", worst <= 1e-10, f"max rel err {worst:.2e} <= 1e-10")


def test_criterion_03_denoiser_vs_grid_integration():
    worst_post = worst_x = 0.0
    for i in range(50):
        inst = random_denoiser_instance(100 + i)
        post_o, x_o = grid_denoiser_oracle(
            inst["r"], inst["tau"], inst["Ec"], inst["prior"], inst["aps"],
            inst["zone"], inst["d0"], inst["beta"],
        )
        g = mc_table_for(inst["aps"], inst["zone"], inst["d0"], inst["beta"], 100_000, 2, 777 + i)
        den = denoise_rows(inst["r"][None], inst["tau"], g, np.log(inst["prior"])[None], inst["Ec"], 1)
        x, post = den.x_hat[0], den.posterior[0]
        worst_post = max(worst_post, np.abs(post - post_o).max() / post_o.max())
        worst_x = max(worst_x, np.linalg.norm(x - x_o) / max(np.linalg.norm(x_o), 1e-300))
    ok = worst_post <= 1e-3 and worst_x <= 1e-3
    _report(3, "denoiser vs grid integration (50 instances, N_MC=1e5)", ok,
            f"posterior rel err {worst_post:.2e}, x_hat rel err {worst_x:.2e} <= 1e-3")


def test_criterion_04_onsager_vs_finite_difference():
    rng = np.random.default_rng(4)
    worst = 0.0
    for i in range(50):
        B = int(rng.integers(1, 5))
        A = int(rng.integers(1, 3))
        F = B * A
        if F > 8:
            A = max(1, 8 // B)
            F = B * A
        K = int(rng.integers(1, 4))
        M = int(rng.integers(2, 7))
        g = np.cumsum(rng.uniform(0.05, 1.5, size=(K, 30, B)), axis=0)
        tau = rng.uniform(0.4, 1.5, size=B)
        Ec = float(rng.uniform(0.8, 3.0))
        lp = np.log(rng.dirichlet(np.ones(K + 1)))
        R = (rng.normal(size=(M, F)) + 1j * rng.normal(size=(M, F))) * 0.8
        den = denoise_rows(R, tau, g, lp, Ec, A)
        Q = onsager(R, den, tau, Ec, A)[0]

        def eta(r):
            return denoise_rows(r[None], tau, g, lp[None], Ec, A).x_hat[0]

        Q_fd = sum(fd_wirtinger_jacobian(eta, R[m]) for m in range(M)) / M
        worst = max(worst, np.abs(Q - Q_fd).max())
    _report(4, "Onsager analytic vs finite-difference Wirtinger Jacobian", worst <= 1e-4,
            f"max abs err {worst:.2e} <= 1e-4")


def test_criterion_05_distributed_central_equivalences():
    side = 60.0
    cfg = SystemConfig(
        area_side=side, zone_grid=(1, 2),
        ap_positions=((30.0, -35.0),), A=3, M=4, Nc=64, Ns=100, Ec=3.0,
        sigma_w2=0.05, d0=60.0, K=8, T_targets=4, N_MC=48, T_AMP=4, K_max=2,
    )
    topo = build_topology(cfg)
    prior = build_prior(cfg, 0.3, np.full((cfg.U, cfg.M), 1.0 / cfg.M))
    cb = airlink.gen_codebook(cfg, seed=5)
    mc = build_mc_table(cfg, topo, seed=5)
    rng = np.random.default_rng(5)
    X = np.zeros((cfg.U, cfg.M, cfg.F), dtype=complex)
    h = airlink.sample_fading(np.array([[20.0, 20.0]]), topo, cfg, seed=5)
    X[0, 1] = h[0]
    Y = synthesize_dense(cb, X, cfg, seed=5)
    central = amp_run(Y, cb, prior, mc, cfg)
    dist = aggregate_posteriors([local_amp_run(Y, 0, cb, prior, mc, cfg)], prior)
    bit_equal = (
        np.array_equal(central.posteriors, dist.posteriors)
        and np.array_equal(central.k_per_zone, dist.k_per_zone)
        and np.array_equal(central.t_hat, dist.t_hat)
    )
    # block-likelihood factorization on random instances
    worst = 0.0
    B, A = 4, 2
    for _ in range(200):
        tau = rng.uniform(0.3, 1.5, size=B)
        gv = rng.uniform(0.05, 1.0, size=B)
        r = rng.normal(size=B * A) + 1j * rng.normal(size=B * A)
        total = decoder_loglik(r, tau, gv, 2.0, A)
        parts = sum(
            decoder_loglik(r[b * A:(b + 1) * A], tau[b:b + 1], gv[b:b + 1], 2.0, A)
            for b in range(B)
        )
        worst = max(worst, np.abs(total - parts).max())
    ok = bit_equal and worst <= 1e-10
    _report(5, "B=1 bit-equality and likelihood factorization", ok,
            f"bit-equal={bit_equal}, factorization max err {worst:.2e} <= 1e-10")


def test_criterion_06_prior_normalization_and_enumeration():
    rng = np.random.default_rng(6)
    pm = rng.uniform(0.0, 0.3, size=(2, 8))
    full = multiplicity_pmf_full(K=40, U=2, p_active=0.45, msg_prob=pm)
    sum_err = np.abs(full.sum(axis=-1) - 1.0).max()

    from math import comb

    worst = 0.0
    K, U, pa = 4, 2, 0.63
    for pm_val in rng.uniform(0, 1, size=8):
        want = np.zeros(K + 1)
        for Ka in range(K + 1):
            pKa = comb(K, Ka) * pa**Ka * (1 - pa) ** (K - Ka)
            for Kau in range(Ka + 1):
                pKau = comb(Ka, Kau) * 0.5**Ka
                for k in range(Kau + 1):
                    want[k] += comb(Kau, k) * pm_val**k * (1 - pm_val) ** (Kau - k) * pKau * pKa
        got = multiplicity_pmf_full(K, U, pa, np.array([pm_val]))[0]
        worst = max(worst, np.abs(got - want).max())
    ok = sum_err <= 1e-10 and worst <= 1e-12
    _report(6, "prior sums to 1 and matches enumeration oracle", ok,
            f"sum err {sum_err:.2e} <= 1e-10, enumeration err {worst:.2e} <= 1e-12")


def test_criterion_07_wasserstein_feasibility_axioms_oracle():
    from test_metrics import enumerate_transport_vertices

    rng = np.random.default_rng(7)
    feas_err = 0.0
    for _ in range(20):
        n, m = int(rng.integers(2, 7)), int(rng.integers(2, 10))
        p1, p2 = rng.uniform(0, 50, (n, 2)), rng.uniform(0, 50, (m, 2))
        a, b = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(m))
        plan, _ = transport_plan(WeightedPointSet(p1, a), WeightedPointSet(p2, b), 2.0)
        feas_err = max(
            feas_err,
            np.abs(plan.sum(axis=1) - a).max(),
            np.abs(plan.sum(axis=0) - b).max(),
        )
    axiom_ok = True
    pts = rng.uniform(0, 20, size=(5, 2))
    for _ in range(10):
        w = [rng.dirichlet(np.ones(5)) for _ in range(3)]
        s = [WeightedPointSet(pts, wi) for wi in w]
        d01 = wasserstein_p(s[0], s[1], 2.0)
        d10 = wasserstein_p(s[1], s[0], 2.0)
        d02 = wasserstein_p(s[0], s[2], 2.0)
        d12 = wasserstein_p(s[1], s[2], 2.0)
        dself = wasserstein_p(s[0], s[0], 2.0)
        axiom_ok &= abs(d01 - d10) <= 1e-9 * max(d01, 1.0)
        axiom_ok &= d02 <= d01 + d12 + 1e-9
        axiom_ok &= dself <= 1e-9
    oracle_err = 0.0
    for _ in range(10):
        n, m = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        p1, p2 = rng.uniform(0, 5, (n, 2)), rng.uniform(0, 5, (m, 2))
        a, b = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(m))
        cost = ((p1[:, None] - p2[None]) ** 2).sum(-1)
        _, got = transport_plan(WeightedPointSet(p1, a), WeightedPointSet(p2, b), 2.0)
        want = enumerate_transport_vertices(a, b, cost)
        oracle_err = max(oracle_err, abs(got - want))
    ok = feas_err <= 1e-9 and axiom_ok and oracle_err <= 1e-9
    _report(7, "transport feasibility, metric axioms, LP-enumeration oracle", ok,
            f"marginal err {feas_err:.2e}, axioms={axiom_ok}, oracle err {oracle_err:.2e}")


def _perfect_runs(cfg, master, runs=100):
    ctx = harness.prepare_context(cfg, need_prior=False)
    recs = []
    for r in range(runs):
        rec = harness.run_single(ctx, "perfect", harness.derive_run_seed(master, 0, r))
        recs.append(rec)
    return [r for r in recs if r["status"] == "ok"]


def test_criterion_08_misdetection_vs_sensing_blocklength():
    targets = {100: (0.365, 0.04), 1000: (0.122, 0.03), 1900: (0.097, 0.03)}
    details, ok = [], True
    for ns, (want, tol) in targets.items():
        cfg = paper_preset(Ns=ns, Nc=2000 - ns)
        vals = [r["p_md"] for r in _perfect_runs(cfg, master=2024)]
        got = float(np.mean(vals))
        ok &= abs(got - want) <= tol
        details.append(f"Ns={ns}: {got:.3f} (target {want}±{tol})")
    _report(8, "misdetection vs sensing blocklength (100 runs)", ok, "; ".join(details))


def test_criterion_09_multiplicity_histogram():
    cfg = paper_preset()
    res = harness.multiplicity_histogram(cfg, runs=100, seed=31415)
    h = res["hist"]
    cf = res["collision_fraction"]
    ok = abs(h[1] - 0.351) <= 0.05 and abs(h[2] - 0.257) <= 0.05 and cf >= 0.70
    _report(9, "nonzero-multiplicity histogram and collision fraction", ok,
            f"P(1)={h[1]:.3f} (0.351±0.05), P(2)={h[2]:.3f} (0.257±0.05), collisions={cf:.2%} >= 70%")


@pytest.fixture(scope="module")
def perfect_comm_bits_sweep():
    out = {}
    for bits in (2, 4, 6, 8, 10, 12):
        cfg = paper_preset(M=2**bits)
        recs = _perfect_runs(cfg, master=777)
        out[bits] = recs
    return out


def test_criterion_10_perfect_comm_gospa_vs_bits(perfect_comm_bits_sweep):
    means = {b: float(np.mean([r["gospa"] for r in recs]))
             for b, recs in perfect_comm_bits_sweep.items()}
    at10 = means[10]
    bits = sorted(means)
    monotone = all(means[a] > means[b] for a, b in zip(bits, bits[1:]))
    ok = abs(at10 - 13.9) <= 1.0 and monotone
    summary = ", ".join(f"{b}b: {v:.1f}" for b, v in sorted(means.items()))
    _report(10, "perfect-communication GOSPA vs quantizer bits", ok,
            f"10-bit mean {at10:.2f} m (13.9±1.0); {summary}; monotone={monotone}")


def test_criterion_11_perfect_comm_wasserstein_floor(perfect_comm_bits_sweep):
    w = float(np.mean([r["w_p"] for r in perfect_comm_bits_sweep[10]]))
    ok = abs(w - 3.84) <= 0.5
    _report(11, "perfect-communication Wasserstein floor at 10 bits", ok,
            f"mean W2 {w:.3f} m (3.84±0.5)")


def _desk_uplinks(cfg, ctx, master, runs, make_codebook=None):
    """Seeded rounds with at least one active sensor: ``(round, codebook, X, Y, mc)``.

    Every round is sent on ``ctx.codebook``, as in a sweep, unless
    ``make_codebook(cfg, seed)`` draws one per run.
    """
    for r in range(runs):
        seed = harness.derive_run_seed(master, 0, r)
        rnd = harness.draw_run(ctx, seed, ()).round
        if rnd.K_a == 0:
            continue
        cb = ctx.codebook if make_codebook is None else make_codebook(cfg, seed)
        fading = airlink.sample_fading(rnd.positions, ctx.topology, cfg, seed)
        X = effective_channels_dense(rnd, fading)
        Y = airlink.uplink(rnd, cb, ctx.topology, cfg, seed)
        yield rnd, cb, X, Y, build_mc_table(cfg, ctx.topology, seed)


def _desk_decode_runs(cfg, ctx, decoder, master, runs):
    """TV of each decode; None for an empty type."""
    decode = amp_central.amp_run if decoder == "centralized" else amp_dist.distributed_decode
    tvs = []
    for rnd, cb, _X, Y, mc in _desk_uplinks(cfg, ctx, master, runs):
        res = decode(Y, cb, ctx.prior, mc, cfg)
        tvs.append(None if res.empty_type else tv_distance(rnd.true_type, res.t_hat))
    return tvs


def test_criterion_12_state_evolution_consistency(desk_prior_cache, monkeypatch):
    # iterations 6 and T_AMP of each run, unnormalized codebook; the stop
    # rule is off, so that both are iterations the recursion runs
    monkeypatch.setattr(amp_central, "TAU_TOL", 0.0)
    cfg0 = desk_preset()
    topo = build_topology(cfg0)
    ctx0 = harness.prepare_context(cfg0, cache_dir=desk_prior_cache)
    cfg = cfg0.with_updates(sigma_w2=sigma_w2_for_snr_rx(cfg0, topo, 10.0))
    ctx = harness.PointContext(cfg, ctx0.topology, ctx0.quantizer, ctx0.prior)
    traces = [
        amp_traces(Y, cb, ctx.prior.log_pmf, mc, cfg, X, (6, cfg.T_AMP))
        for _rnd, cb, X, Y, mc in _desk_uplinks(cfg, ctx, 606, 40, raw_gaussian_codebook)
    ]
    errs = np.array([err for err, _gap in traces])
    gaps = np.array([gap for _err, gap in traces])
    mean_err = errs.mean(axis=0)
    mean_gap = gaps.mean(axis=0)
    plateau = abs(mean_err[0] - mean_err[-1]) <= 0.2 * mean_err[-1]
    ratio = mean_err[-1] / mean_gap[-1]
    agree = abs(ratio - 1.0) <= 0.2
    _report(12, "channel-error plateau and residual-variance agreement", plateau and agree,
            f"plateau-by-6={plateau}, err/gap ratio {ratio:.3f} within 20% (runs={len(traces)})")


def test_criterion_13_tv_vs_snr_and_decoder_ordering(desk_prior_cache):
    cfg0 = desk_preset()
    topo = build_topology(cfg0)
    ctx0 = harness.prepare_context(cfg0, cache_dir=desk_prior_cache)
    means = {}
    for dec in ("centralized", "distributed"):
        for snr in (-40.0, -20.0, 0.0):
            cfg = cfg0.with_updates(sigma_w2=sigma_w2_for_snr_rx(cfg0, topo, snr))
            ctx = harness.PointContext(cfg, ctx0.topology, ctx0.quantizer, ctx0.prior)
            vals = [tv for tv in _desk_decode_runs(cfg, ctx, dec, master=909, runs=100)
                    if tv is not None]
            means[(dec, snr)] = float(np.mean(vals))
    cen = [means[("centralized", s)] for s in (-40.0, -20.0, 0.0)]
    dis = [means[("distributed", s)] for s in (-40.0, -20.0, 0.0)]
    decreasing = cen[0] > cen[1] > cen[2] and dis[0] > dis[1] > dis[2]
    ordering = means[("distributed", 0.0)] >= means[("centralized", 0.0)]
    _report(13, "TV decreasing in SNR; distributed >= centralized at 0 dB",
            decreasing and ordering,
            f"centralized {['%.3f' % v for v in cen]}, distributed {['%.3f' % v for v in dis]}")


@pytest.mark.skipif(
    os.environ.get("TUMALOC_FULL_SCALE") != "1",
    reason="full-scale reproduction: 100 paper-scale runs, 194 s on a 2-core VM with one "
    "BLAS thread; set TUMALOC_FULL_SCALE=1",
)
def test_optional_full_scale_centralized_tv(desk_prior_cache):
    # Optional long-running target: centralized TV = 0.065±0.02 at
    # SNR_rx = 10 dB, 10-bit quantizer, full paper scale.
    runs = int(os.environ.get("TUMALOC_FULL_SCALE_RUNS", "100"))
    cfg0 = paper_preset()
    topo = build_topology(cfg0)
    ctx0 = harness.prepare_context(cfg0, cache_dir=desk_prior_cache)
    cfg = cfg0.with_updates(sigma_w2=sigma_w2_for_snr_rx(cfg0, topo, 10.0))
    ctx = harness.PointContext(cfg, ctx0.topology, ctx0.quantizer, ctx0.prior)
    vals = [tv for tv in _desk_decode_runs(cfg, ctx, "centralized", master=555, runs=runs)
            if tv is not None]
    tv = float(np.mean(vals))
    se = float(np.std(vals, ddof=1) / np.sqrt(len(vals))) if len(vals) > 1 else float("nan")
    import resource  # POSIX only: imported here, so that the module loads elsewhere

    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024     # KiB on Linux
    _report(14, "full-scale centralized TV at 10 dB (optional)", abs(tv - 0.065) <= 0.02,
            f"mean TV {tv:.4f}, standard error {se:.4f}, over {len(vals)} runs (0.065±0.02); "
            f"process peak RSS {peak_mib:.0f} MiB")
