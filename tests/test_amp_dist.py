import numpy as np
import pytest

from oracle_utils import amp_traces, decoder_loglik, synthesize_dense
from tumaloc import airlink, amp_central, amp_dist
from tumaloc.amp_central import DecodeError, amp_iterate, amp_run, build_mc_table
from tumaloc.amp_dist import aggregate_posteriors, distributed_decode, local_amp_run
from tumaloc.config import SystemConfig, build_topology, desk_preset, paper_preset
from tumaloc.priors import build_prior


def _system(B=2, A=2, U=2, M=4, Nc=64, N_MC=48, K_max=2, Ec=3.0, sigma_w2=0.05,
            T_AMP=4, seed=0):
    side = 60.0
    cfg = SystemConfig(
        area_side=side,
        zone_grid=(1, U),
        ap_positions=tuple((side * (b + 0.5) / B, -35.0) for b in range(B)),
        A=A, M=M, Nc=Nc, Ns=100, Ec=Ec, sigma_w2=sigma_w2,
        d0=60.0, K=8, T_targets=4, N_MC=N_MC, T_AMP=T_AMP, K_max=K_max,
    )
    topo = build_topology(cfg)
    pm = np.full((cfg.U, cfg.M), 1.0 / cfg.M)
    prior = build_prior(cfg, 0.3, pm)
    cb = airlink.gen_codebook(cfg, seed=seed)
    mc = build_mc_table(cfg, topo, seed=seed)
    return cfg, topo, prior, cb, mc


def _received(cfg, topo, cb, seed, n_users=3):
    rng = np.random.default_rng(seed)
    X = np.zeros((cfg.U, cfg.M, cfg.F), dtype=complex)
    for _ in range(n_users):
        u = int(rng.integers(cfg.U))
        m = int(rng.integers(cfg.M))
        x0, y0, x1, y1 = topo.zone_rects[u]
        pos = rng.uniform([x0, y0], [x1, y1])[None, :]
        h = airlink.sample_fading(pos, topo, cfg, seed=int(rng.integers(1 << 30)))
        X[u, m] += h[0]
    Y = synthesize_dense(cb, X, cfg, seed=seed)
    return Y, X


class TestLocalEqualsCentralWhenSingleAp:
    def test_bit_equality(self):
        cfg, topo, prior, cb, mc = _system(B=1, A=3)
        Y, _ = _received(cfg, topo, cb, seed=11)
        central = amp_run(Y, cb, prior, mc, cfg)
        local = local_amp_run(Y, 0, cb, prior, mc, cfg)
        dist = aggregate_posteriors([local], prior)
        np.testing.assert_array_equal(central.posteriors, dist.posteriors)
        np.testing.assert_array_equal(central.k_per_zone, dist.k_per_zone)
        np.testing.assert_array_equal(central.t_hat, dist.t_hat)
        assert central.empty_type == dist.empty_type

    def test_each_ap_of_two_equals_central_on_that_ap(self):
        # AP b's local run is the centralized decoder on a system with AP b only
        seed = 0
        cfg, topo, prior, cb, mc = _system(B=2, A=2, seed=seed)
        Y, _ = _received(cfg, topo, cb, seed=12)
        for b in range(cfg.B):
            Y_b = Y[:, b * cfg.A : (b + 1) * cfg.A]
            cfg_b = cfg.with_updates(ap_positions=(cfg.ap_positions[b],))
            mc_b = build_mc_table(cfg_b, build_topology(cfg_b), seed=seed)
            central = amp_run(Y_b, cb, prior, mc_b, cfg_b)
            local = local_amp_run(Y_b, b, cb, prior, mc, cfg)
            dist = aggregate_posteriors([local], prior)
            np.testing.assert_array_equal(central.posteriors, dist.posteriors)


class TestLikelihoodFactorization:
    def test_local_product_equals_global(self, rng):
        # block-diagonal covariances: sum of per-AP log-likelihoods equals
        # the global log-likelihood for any fixed positions
        B, A = 3, 2
        tau = rng.uniform(0.3, 1.5, size=B)
        g = rng.uniform(0.05, 1.0, size=B)
        Ec = 2.2
        for _ in range(100):
            r = rng.normal(size=B * A) + 1j * rng.normal(size=B * A)
            total = decoder_loglik(r, tau, g, Ec, A)
            parts = sum(
                decoder_loglik(r[b * A : (b + 1) * A], tau[b : b + 1], g[b : b + 1], Ec, A)
                for b in range(B)
            )
            assert total == pytest.approx(parts, abs=1e-10)

    def test_end_to_end_local_tables_product(self):
        # with F=4 (B=2, A=2), local per-position likelihoods multiply to the
        # global one; here checked through the decoder's likelihood on row slices
        cfg, topo, prior, cb, mc = _system(B=2, A=2)
        rng = np.random.default_rng(0)
        r = rng.normal(size=cfg.F) + 1j * rng.normal(size=cfg.F)
        tau = rng.uniform(0.5, 1.0, size=cfg.B)
        g = mc[0, 1, 17]               # some aggregate sample, k=2
        total = decoder_loglik(r, tau, g, cfg.Ec, cfg.A)
        parts = sum(
            decoder_loglik(
                r[b * cfg.A : (b + 1) * cfg.A], tau[b : b + 1], g[b : b + 1], cfg.Ec, cfg.A
            )
            for b in range(cfg.B)
        )
        assert total == pytest.approx(parts, abs=1e-10)


class TestAggregation:
    def test_uniform_likelihoods_return_prior(self):
        cfg, topo, prior, cb, mc = _system()
        tables = []
        for b in range(cfg.B):
            log_lik = local_amp_run(
                np.zeros((cfg.Nc, cfg.A), dtype=complex) + 1e-8, b, cb, prior, mc, cfg
            )
            tables.append(np.zeros_like(log_lik))     # force uniform over k
        res = aggregate_posteriors(tables, prior)
        want = prior.pmf / prior.pmf.sum(axis=-1, keepdims=True)
        np.testing.assert_allclose(res.posteriors, want, atol=1e-12)

    def test_posteriors_normalized(self):
        cfg, topo, prior, cb, mc = _system(B=2)
        Y, _ = _received(cfg, topo, cb, seed=6)
        res = distributed_decode(Y, cb, prior, mc, cfg)
        np.testing.assert_allclose(res.posteriors.sum(axis=-1), 1.0, atol=1e-10)

    def test_fronthaul_accounting(self):
        cfg, topo, prior, cb, mc = _system(B=2)
        Y, _ = _received(cfg, topo, cb, seed=7)
        res = distributed_decode(Y, cb, prior, mc, cfg)
        per_ap = cfg.U * cfg.M * (cfg.K_max + 1)
        assert res.diagnostics["fronthaul_reals_total"] == cfg.B * per_ap


class TestLocalRun:
    def test_noise_only_favors_k0(self):
        cfg, topo, prior, cb, mc = _system(B=2, sigma_w2=0.01)
        rng = np.random.default_rng(1)
        Yb = (rng.normal(size=(cfg.Nc, cfg.A)) + 1j * rng.normal(size=(cfg.Nc, cfg.A))) * np.sqrt(
            cfg.sigma_w2 / 2
        )
        log_lik = local_amp_run(Yb, 0, cb, prior, mc, cfg)
        # local MC-averaged log-likelihood highest for the empty hypothesis
        assert np.all(log_lik[:, :, 0] >= log_lik[:, :, 1:].max(axis=-1) - 1e-9)

    def test_wrong_block_width_rejected(self):
        cfg, topo, prior, cb, mc = _system(B=2, A=2)
        with pytest.raises(ValueError):
            local_amp_run(np.zeros((cfg.Nc, 3), dtype=complex), 0, cb, prior, mc, cfg)


def _dead_row_system(monkeypatch, A=4):
    # high SNR, two users: most rows of every AP are noise only.  All
    # T_AMP iterations, so that every AP's own run stops where the stacked one does
    monkeypatch.setattr(amp_central, "TAU_TOL", 0.0)
    cfg, topo, prior, cb, mc = _system(B=3, A=A, M=8, Nc=128, sigma_w2=1e-6, Ec=6.0, T_AMP=6)
    Y, _ = _received(cfg, topo, cb, seed=20, n_users=2)
    return cfg, prior, cb, mc, Y


class TestStackedRecursion:
    # A = 2 is the desk preset's antenna count.  A = 1 is left out: there a
    # one-AP run's products are GEMV calls where the stacked call's are GEMMs
    @pytest.mark.parametrize("A", [2, 4])
    def test_stacked_blocks_equal_per_ap_runs(self, monkeypatch, A):
        cfg, prior, cb, mc, Y = _dead_row_system(monkeypatch, A)
        M = cfg.M
        posts, log_lik, diag = amp_iterate(Y, cb, prior.log_pmf, mc, cfg, per_ap=True)
        per_ap_diag = []
        for b in range(cfg.B):
            rows, cols = slice(b * M, (b + 1) * M), slice(b * A, (b + 1) * A)
            p_b, l_b, d_b = amp_iterate(
                Y[:, cols], cb, prior.log_pmf, mc[..., b : b + 1], cfg
            )
            np.testing.assert_array_equal(log_lik[:, rows], l_b)
            local = local_amp_run(Y[:, cols], b, cb, prior, mc, cfg)
            np.testing.assert_array_equal(log_lik[:, rows], local)
            np.testing.assert_array_equal(posts[:, rows], p_b)
            np.testing.assert_array_equal(diag["tau_trace"][:, b], d_b["tau_trace"][:, 0])
            per_ap_diag.append(d_b)
        per_ap_rows = [d["weighed_rows"] for d in per_ap_diag]
        assert diag["weighed_rows"] == [sum(rows) for rows in zip(*per_ap_rows)]
        assert diag["degenerate_rows"] == sum(d["degenerate_rows"] for d in per_ap_diag)

    def test_stacked_blocks_stop_together(self, monkeypatch):
        # AP 0 settles at iteration 4 and APs 1 and 2 at 5: the stacked call
        # stops at 5, where every AP has settled, and each block equals its
        # own run capped at 5 with the rule off
        cfg, topo, prior, cb, mc = _system(
            B=3, A=4, M=8, Nc=128, sigma_w2=1e-3, Ec=6.0, T_AMP=30, seed=4
        )
        Y, _ = _received(cfg, topo, cb, seed=14, n_users=2)
        A, M = cfg.A, cfg.M
        posts, log_lik, diag = amp_iterate(Y, cb, prior.log_pmf, mc, cfg, per_ap=True)
        t = len(diag["tau_trace"])
        # the distributed decoder forwards the stacked call's tau trace
        res = distributed_decode(Y, cb, prior, mc, cfg)
        np.testing.assert_array_equal(res.diagnostics["tau_trace"], diag["tau_trace"])
        assert len(res.diagnostics["weighed_rows"]) == t
        # alone, each AP stops where its own tau settles
        cols = [slice(b * A, (b + 1) * A) for b in range(cfg.B)]
        alone = [
            len(amp_iterate(Y[:, c], cb, prior.log_pmf, mc[..., b : b + 1], cfg)[2]["tau_trace"])
            for b, c in enumerate(cols)
        ]
        tol = amp_central.TAU_TOL
        monkeypatch.setattr(amp_central, "TAU_TOL", 0.0)
        full = amp_iterate(Y, cb, prior.log_pmf, mc, cfg, per_ap=True)
        change = np.abs(np.diff(full[2]["tau_trace"], axis=0)) / full[2]["tau_trace"][:-1]
        settled = change < tol                         # row s - 2: iteration s against s - 1
        assert t == np.flatnonzero(settled.all(axis=1))[0] + 2 < cfg.T_AMP
        per_ap_stop = np.argmax(settled, axis=0) + 2
        assert per_ap_stop.min() < t == per_ap_stop.max()
        np.testing.assert_array_equal(alone, per_ap_stop)
        capped = cfg.with_updates(T_AMP=t)
        for b, c in enumerate(cols):
            rows = slice(b * M, (b + 1) * M)
            g_b = mc[..., b : b + 1]
            p_b, l_b, d_b = amp_iterate(Y[:, c], cb, prior.log_pmf, g_b, capped)
            np.testing.assert_array_equal(posts[:, rows], p_b)
            np.testing.assert_array_equal(log_lik[:, rows], l_b)
            np.testing.assert_array_equal(diag["tau_trace"][:, b], d_b["tau_trace"][:, 0])

    def test_row_counts_sum_over_one_ap_runs(self, monkeypatch):
        cfg, prior, cb, mc, Y = _dead_row_system(monkeypatch)
        A = cfg.A
        res = distributed_decode(Y, cb, prior, mc, cfg)
        per_ap = [
            amp_iterate(Y[:, b * A : (b + 1) * A], cb, prior.log_pmf, mc[..., b : b + 1], cfg)[2]
            for b in range(cfg.B)
        ]
        per_ap_rows = [d["weighed_rows"] for d in per_ap]
        assert res.diagnostics["weighed_rows"] == [sum(rows) for rows in zip(*per_ap_rows)]
        assert len(res.diagnostics["weighed_rows"]) == cfg.T_AMP
        assert res.diagnostics["degenerate_rows"] == sum(d["degenerate_rows"] for d in per_ap)

    def test_group_size_does_not_change_results(self, monkeypatch):
        # a group: the chunk of stacked blocks that one denoiser call takes
        cfg, prior, cb, mc, Y = _dead_row_system(monkeypatch)
        A, M = cfg.A, cfg.M
        per_ap = cfg.M * cfg.K_max * cfg.N_MC
        one_ap = [
            amp_iterate(Y[:, b * A : (b + 1) * A], cb, prior.log_pmf, mc[..., b : b + 1], cfg)[1]
            for b in range(cfg.B)
        ]
        results = []
        for size in (1, 2, cfg.B):                   # 2 leaves a chunk of one AP
            monkeypatch.setattr(amp_central, "_MAX_STACKED_WEIGHTS", size * per_ap)
            assert amp_central._chunks(cfg.B, cfg)[0] == (0, size)
            log_lik = amp_iterate(Y, cb, prior.log_pmf, mc, cfg, per_ap=True)[1]
            for b in range(cfg.B):
                np.testing.assert_array_equal(log_lik[:, b * M : (b + 1) * M], one_ap[b])
            results.append(distributed_decode(Y, cb, prior, mc, cfg))
        for res in results[1:]:
            np.testing.assert_array_equal(res.posteriors, results[0].posteriors)
            assert res.diagnostics.keys() == results[0].diagnostics.keys()
            for key, want in results[0].diagnostics.items():
                if isinstance(want, np.ndarray):
                    np.testing.assert_array_equal(res.diagnostics[key], want, err_msg=key)
                else:
                    assert res.diagnostics[key] == want, key

    @pytest.mark.parametrize("A", [2, 4])
    def test_paper_shaped_blocks_equal_per_ap_runs(self, monkeypatch, A):
        # M = 512 rows: the residual product sums its terms in more than one
        # BLAS panel.  All APs in one chunk, then one AP per chunk
        cfg, topo, prior, cb, mc = _system(
            B=4, A=A, M=512, Nc=200, N_MC=16, sigma_w2=1e-6, Ec=6.0, T_AMP=2
        )
        Y, _ = _received(cfg, topo, cb, seed=20)
        M = cfg.M
        per_ap = [
            amp_iterate(Y[:, b * A : (b + 1) * A], cb, prior.log_pmf, mc[..., b : b + 1], cfg)
            for b in range(cfg.B)
        ]
        per_ap_weights = M * cfg.K_max * cfg.N_MC
        for size in (cfg.B, 1):
            monkeypatch.setattr(amp_central, "_MAX_STACKED_WEIGHTS", size * per_ap_weights)
            assert len(amp_central._chunks(cfg.B, cfg)) == cfg.B // size
            posts, log_lik, _diag = amp_iterate(Y, cb, prior.log_pmf, mc, cfg, per_ap=True)
            for b, (p_b, l_b, _d) in enumerate(per_ap):
                rows = slice(b * M, (b + 1) * M)
                np.testing.assert_array_equal(log_lik[:, rows], l_b)
                np.testing.assert_array_equal(posts[:, rows], p_b)

    @pytest.mark.parametrize("per_ap", [False, True], ids=["centralized", "stacked"])
    def test_residual_row_blocks_do_not_change_results(self, monkeypatch, per_ap):
        # the residual product upcasts the codebook in row blocks: blocks of
        # 128 of the 200 rows, the last one short, give one product's bits
        cfg, topo, prior, cb, mc = _system(
            B=4, A=2, M=512, Nc=200, N_MC=16, sigma_w2=1e-6, Ec=6.0, T_AMP=3
        )
        Y, _ = _received(cfg, topo, cb, seed=20)
        monkeypatch.setattr(amp_central, "TAU_TOL", 0.0)     # all T_AMP iterations
        results = []
        for bound in (1 << 40, 1):     # one product, then 128-row blocks whatever the weighed rows
            monkeypatch.setattr(amp_central, "_RESIDUAL_UPCAST_BYTES", bound)
            results.append(amp_iterate(Y, cb, prior.log_pmf, mc, cfg, per_ap=per_ap))
        whole, blocked = results
        for a, b in zip(blocked[:2], whole[:2]):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(blocked[2]["tau_trace"], whole[2]["tau_trace"])
        assert len(whole[2]["tau_trace"]) == cfg.T_AMP

    def test_group_size_rule(self):
        # all APs in one chunk at desk scale; one AP per chunk at the paper
        # preset, whose per-AP weight array alone exceeds the bound
        desk, paper = desk_preset(), paper_preset()
        assert amp_central._chunks(desk.B, desk) == [(0, 12)]
        assert paper.M * paper.K_max * paper.N_MC > amp_central._MAX_STACKED_WEIGHTS
        assert amp_central._chunks(paper.B, paper) == [(b, b + 1) for b in range(40)]
        assert amp_central._chunks(1, paper) == [(0, 1)]     # the centralized decoder

    def test_failing_ap_named_as_in_per_ap_runs(self):
        # APs 1 and 2 both fail at iteration 1: the lower one is named
        cfg, topo, prior, cb, mc = _system(B=3, A=2)
        Y, _ = _received(cfg, topo, cb, seed=3)
        Y[5, 2 * cfg.A] = np.nan                     # AP 2's first antenna
        Y[5, 1 * cfg.A] = np.nan                     # AP 1's first antenna
        with pytest.raises(DecodeError, match="block 1 at iteration 1") as err:
            distributed_decode(Y, cb, prior, mc, cfg)
        assert err.value.iteration == 1

    def test_one_amp_iterate_call(self, monkeypatch):
        # chunks of one AP, and a failing AP, still take one call and no per-AP re-run
        cfg, prior, cb, mc, Y = _dead_row_system(monkeypatch)
        monkeypatch.setattr(amp_central, "_MAX_STACKED_WEIGHTS", cfg.M * cfg.K_max * cfg.N_MC)
        calls = {"amp_iterate": 0, "local_amp_run": 0}
        for name in calls:
            fn = getattr(amp_dist, name)

            def counted(*args, _fn=fn, _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(amp_dist, name, counted)
        distributed_decode(Y, cb, prior, mc, cfg)
        assert calls == {"amp_iterate": 1, "local_amp_run": 0}
        Y[5, cfg.A] = np.nan                         # AP 1's first antenna
        with pytest.raises(DecodeError):
            distributed_decode(Y, cb, prior, mc, cfg)
        assert calls == {"amp_iterate": 2, "local_amp_run": 0}


class TestEndToEnd:
    def test_distributed_decodes_strong_single_user(self):
        cfg, topo, prior, cb, mc = _system(B=2, A=2, Ec=6.0, sigma_w2=1e-4, T_AMP=5)
        X = np.zeros((cfg.U, cfg.M, cfg.F), dtype=complex)
        pos = np.array([[15.0, 20.0]])
        h = airlink.sample_fading(pos, topo, cfg, seed=2)
        X[0, 1] = h[0]
        Y = synthesize_dense(cb, X, cfg, seed=2)
        res = distributed_decode(Y, cb, prior, mc, cfg)
        assert res.k_per_zone[0, 1] >= 1
        assert res.k_per_zone.sum() <= 3
        # channel estimation error summed over the APs' local runs
        A = cfg.A
        trace = sum(
            amp_traces(Y[:, b * A : (b + 1) * A], cb, prior.log_pmf, mc[..., b : b + 1], cfg,
                       X[:, :, b * A : (b + 1) * A], (1, cfg.T_AMP))[0]
            for b in range(cfg.B)
        )
        assert trace[-1] < trace[0]
