import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle_utils import (
    amp_iterate_reference,
    amp_traces,
    decoder_loglik,
    denoise_rows_reference,
    fd_wirtinger_jacobian,
    grid_denoiser_oracle,
    log_lik_table_reference,
    mc_table_for,
    onsager_loop_reference,
    onsager_reference,
    random_denoiser_instance,
    second_moment_reference,
    synthesize_dense,
    weighed_rows_reference,
)
from tumaloc import airlink, amp_central, amp_dist, harness
from tumaloc.amp_central import (
    DecodeError,
    amp_iterate,
    amp_run,
    build_mc_table,
    denoise_rows,
    estimate_multiplicities,
    estimate_type,
    onsager,
    residual_covariance,
)
from tumaloc.config import build_topology, desk_preset, lsfc_vector, paper_preset, sigma_w2_for_snr_rx
from tumaloc.priors import build_prior

from test_golden_paper_records import paper_prior


class TestResidualCovariance:
    def test_all_ones(self):
        Z = np.ones((50, 8), dtype=complex)
        np.testing.assert_allclose(residual_covariance(Z, 2), np.ones(4))

    def test_zero_clamped_to_floor(self):
        Z = np.zeros((10, 4), dtype=complex)
        assert np.all(residual_covariance(Z, 2) == 1e-15)

    def test_iid_noise_estimate(self, rng):
        sigma2 = 0.37
        Z = (rng.normal(size=(20_000, 6)) + 1j * rng.normal(size=(20_000, 6))) * np.sqrt(
            sigma2 / 2
        )
        tau = residual_covariance(Z, 3)
        assert tau.shape == (2,)
        np.testing.assert_allclose(tau, sigma2, rtol=0.03)


class TestHypothesisLoglik:
    # the decoder's log-likelihood of fixed positions with aggregate LSFC g
    # is the diagonal Gaussian density with per-AP variances tau + Ec g
    def test_empty_hypothesis_is_noise_density(self, rng):
        tau = np.array([0.5, 1.5])
        r = rng.normal(size=4) + 1j * rng.normal(size=4)
        got = decoder_loglik(r, tau, np.zeros(2), 3.0, 2)
        assert got[1] == pytest.approx(got[0])

    def test_zero_observation(self):
        tau = np.array([2.0])
        g = np.array([0.5])
        got = decoder_loglik(np.zeros(3, dtype=complex), tau, g, 4.0, 3)[1]
        assert got == pytest.approx(-3 * np.log(np.pi * 4.0))

    def test_matches_dense_oracle(self, rng):
        tau = rng.uniform(0.2, 2.0, size=2)
        g = rng.uniform(0.0, 1.0, size=2)
        Ec = 2.5
        r = rng.normal(size=2) + 1j * rng.normal(size=2)
        cov = np.diag(tau + Ec * g).astype(complex)
        _, logdet = np.linalg.slogdet(np.pi * cov)
        want = -logdet - np.real(r.conj() @ np.linalg.solve(cov, r))
        assert decoder_loglik(r, tau, g, Ec, 1)[1] == pytest.approx(want, rel=1e-12)


class TestDenoiser:
    def test_zero_observation_gives_zero_estimate(self, rng):
        g = rng.uniform(0.1, 1.0, size=(2, 30, 3))
        lp = np.log(rng.dirichlet(np.ones(3)))
        den = denoise_rows(np.zeros((1, 3), dtype=complex), np.ones(3), g, lp[None], 2.0, 1)
        np.testing.assert_array_equal(den.x_hat[0], 0)
        assert den.posterior[0].sum() == pytest.approx(1.0)

    def test_prior_point_mass_at_zero(self, rng):
        g = rng.uniform(0.1, 1.0, size=(2, 30, 2))
        lp = np.log(np.array([1.0, 1e-300, 1e-300]))
        r = rng.normal(size=2) + 1j * rng.normal(size=2)
        den = denoise_rows(r[None], np.ones(2), g, lp[None], 2.0, 1)
        assert den.posterior[0, 0] > 0.999
        assert np.linalg.norm(den.x_hat[0]) < 1e-2 * np.linalg.norm(r)

    def test_subnormal_estimates_flushed_to_zero(self, rng):
        # the log-prior puts each row's posterior odds of every k >= 1
        # against k = 0 at 2 tiny: every row's mass on k >= 1 is a few tiny,
        # so no row is ruled dead, and many of their shrunk observations H r
        # fall below the smallest normal double
        R, tau, g, Ec, A = TestOnsager._instance(rng)
        M, K = R.shape[0], g.shape[0]
        tiny = np.finfo(float).tiny
        log_mc = denoise_rows_reference(R, tau, g, np.zeros((M, K + 1)), Ec, A).log_mc_lik
        lp = np.zeros((M, K + 1))
        lp[:, 1:] = log_mc[:, :1] - log_mc[:, 1:] + np.log(2 * tiny)
        den = denoise_rows(R, tau, g, lp, Ec, A)
        np.testing.assert_array_equal(den.weighed, np.arange(M))
        raw = (R * np.repeat(den.H, A, axis=1)).view(float)
        sub = (raw != 0) & (np.abs(raw) < tiny)
        assert sub.any()
        got = den.x_hat.view(float)
        assert not np.any((got != 0) & (np.abs(got) < tiny))
        np.testing.assert_array_equal(got[sub], 0.0)
        np.testing.assert_array_equal(got[~sub], raw[~sub])

    def test_shrinkage_bound(self, rng):
        # all per-sample shrinkage factors lie in (0, 1) when Ec >= 1
        for trial in range(20):
            g = rng.uniform(0.01, 2.0, size=(3, 50, 2))
            tau = rng.uniform(0.1, 2.0, size=2)
            Ec = rng.uniform(1.0, 5.0)
            lp = np.log(rng.dirichlet(np.ones(4)))
            r = rng.normal(size=2) + 1j * rng.normal(size=2)
            den = denoise_rows(r[None], tau, g, lp[None], Ec, 1)
            assert np.all(den.shrink > 0) and np.all(den.shrink < 1)
            assert np.linalg.norm(den.x_hat[0]) <= np.linalg.norm(r) * den.shrink.max() + 1e-12

    def test_posterior_normalized_rows(self, rng):
        g = rng.uniform(0.1, 1.0, size=(2, 40, 2))
        R = rng.normal(size=(6, 2)) + 1j * rng.normal(size=(6, 2))
        lp = np.log(rng.dirichlet(np.ones(3), size=6))
        res = denoise_rows(R, np.ones(2), g, lp, 1.5, 1)
        np.testing.assert_allclose(res.posterior.sum(axis=1), 1.0, atol=1e-10)

    def test_multirow_matches_single_row(self, rng):
        g = rng.uniform(0.1, 1.0, size=(2, 25, 2))
        R = rng.normal(size=(5, 4)) + 1j * rng.normal(size=(5, 4))
        lp = np.log(rng.dirichlet(np.ones(3), size=5))
        res = denoise_rows(R, np.array([0.7, 1.3]), g, lp, 2.0, 2)
        for m in range(5):
            one = denoise_rows(R[m : m + 1], np.array([0.7, 1.3]), g, lp[m : m + 1], 2.0, 2)
            # BLAS picks different kernels for (M,F) and (1,F): ulp-level slack
            np.testing.assert_allclose(res.x_hat[m], one.x_hat[0], rtol=1e-12, atol=1e-14)
            np.testing.assert_allclose(res.posterior[m], one.posterior[0], rtol=1e-12, atol=1e-14)

    def test_vs_grid_integration_oracle(self):
        # one zone, F=2, K_max=2, 1e5 shared samples: posterior and x_hat
        # match 4-D quadrature of the exact integrals to 1e-3 relative
        worst_post = worst_x = 0.0
        for i in range(50):
            inst = random_denoiser_instance(100 + i)
            post_o, x_o = grid_denoiser_oracle(
                inst["r"], inst["tau"], inst["Ec"], inst["prior"], inst["aps"],
                inst["zone"], inst["d0"], inst["beta"],
            )
            g = mc_table_for(
                inst["aps"], inst["zone"], inst["d0"], inst["beta"], 100_000, 2, 777 + i
            )
            den = denoise_rows(
                inst["r"][None], inst["tau"], g, np.log(inst["prior"])[None], inst["Ec"], 1
            )
            x, post = den.x_hat[0], den.posterior[0]
            worst_post = max(worst_post, np.abs(post - post_o).max() / post_o.max())
            worst_x = max(
                worst_x, np.linalg.norm(x - x_o) / max(np.linalg.norm(x_o), 1e-300)
            )
        assert worst_post <= 1e-3
        assert worst_x <= 1e-3


class TestOnsager:
    def _eta(self, tau, g, lp, Ec, A):
        def eta(r):
            return denoise_rows(r[None], tau, g, lp[None], Ec, A).x_hat[0]
        return eta

    def test_linear_map_single_sample_point_prior(self, rng):
        # prior mass on k=1 with one MC sample: eta(r) = D r exactly
        g = rng.uniform(0.2, 1.5, size=(1, 1, 3))
        tau = rng.uniform(0.5, 1.5, size=3)
        Ec = 2.0
        lp = np.log(np.array([1e-300, 1.0]))
        R = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
        res = denoise_rows(R, tau, g, lp, Ec, 1)
        Q = onsager(R, res, tau, Ec, 1)[0]
        D = np.sqrt(Ec) * g[0, 0] / (tau + Ec * g[0, 0])
        np.testing.assert_allclose(Q, np.diag(D), atol=1e-9)

    def test_zero_prior_gives_zero(self, rng):
        g = rng.uniform(0.2, 1.5, size=(2, 10, 2))
        tau = np.ones(2)
        lp = np.log(np.array([1.0, 1e-300, 1e-300]))
        R = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        res = denoise_rows(R, tau, g, lp, 2.0, 1)
        Q = onsager(R, res, tau, 2.0, 1)[0]
        np.testing.assert_allclose(Q, 0.0, atol=1e-6)

    @pytest.mark.parametrize("B,A,K,M", [(2, 1, 2, 3), (4, 2, 3, 5), (2, 4, 2, 4), (1, 1, 3, 6)])
    def test_vs_finite_difference_oracle(self, B, A, K, M, rng):
        # analytic Jacobian vs central-difference Wirtinger Jacobian of the
        # implemented (sample-fixed) denoiser, F <= 8
        for trial in range(12):
            F = B * A
            g = rng.uniform(0.05, 1.5, size=(K, 40, B))
            g = np.cumsum(g, axis=0)  # aggregate sums grow with k
            tau = rng.uniform(0.4, 1.5, size=B)
            Ec = float(rng.uniform(0.8, 3.0))
            lp = np.log(rng.dirichlet(np.ones(K + 1)))
            R = (rng.normal(size=(M, F)) + 1j * rng.normal(size=(M, F))) * 0.8
            res = denoise_rows(R, tau, g, lp, Ec, A)
            Q = onsager(R, res, tau, Ec, A)[0]
            eta = self._eta(tau, g, lp, Ec, A)
            J_sum = np.zeros((F, F), dtype=complex)
            for m in range(M):
                J_sum += fd_wirtinger_jacobian(eta, R[m])
            Q_fd = J_sum / M
            assert np.abs(Q - Q_fd).max() <= 1e-4

    @staticmethod
    def _instance(rng):
        # B = 3 APs with distinct tau, A = 2 antennas, K = 3, N = 50, M = 12 rows
        g = np.cumsum(rng.uniform(0.05, 1.5, size=(3, 50, 3)), axis=0)
        tau = np.array([0.4, 0.9, 1.3])
        R = (rng.normal(size=(12, 6)) + 1j * rng.normal(size=(12, 6))) * 0.8
        return R, tau, g, 2.3, 2

    def test_vs_einsum_reference(self, rng):
        R, tau, g, Ec, A = self._instance(rng)
        lp = np.log(rng.dirichlet(np.ones(g.shape[0] + 1), size=R.shape[0]))
        den = denoise_rows(R, tau, g, lp, Ec, A)
        np.testing.assert_allclose(
            onsager(R, den, tau, Ec, A)[0], onsager_reference(R, den, tau, Ec, A), rtol=1e-12
        )

    def test_pruned_columns_vs_einsum_reference(self, rng):
        # k = 2 sits 80 nats below the other multiplicities in every row, so
        # its sample columns fall below the 1e-16 relative floor everywhere;
        # every fourth row is ruled dead
        R, tau, g, Ec, A = self._instance(rng)
        M, K, N = R.shape[0], g.shape[0], g.shape[1]
        lp = np.log(rng.dirichlet(np.ones(K + 1), size=M))
        lp[:, 2] -= 80.0
        lp[::4, 1:] = -1000.0
        den = denoise_rows(R, tau, g, lp, Ec, A)
        weighed = den.weighed
        assert not np.isin(np.arange(0, M, 4), weighed).any()
        omega = (den.posterior[weighed, 1:, None] * den.sample_weights[weighed]).reshape(len(weighed), K * N)
        floor = np.maximum(1e-16 * omega.max(axis=1), np.finfo(float).tiny)
        dropped = (omega < floor[:, None]).all(axis=0)
        assert 0 < dropped.sum() < K * N
        # NaN shrink factors in the dropped sample columns: m2 comes out the
        # same only if none of them reaches the GEMM
        c = den.shrink.reshape(K * N, -1).copy()
        c[dropped] = np.nan
        np.testing.assert_array_equal(amp_central._second_moment(omega.copy(), c), den.m2)
        # |dM2[m]| <= K N 1e-16 max_j omega[m, j] / Ec
        want = second_moment_reference(den, weighed)
        dM2 = K * N * 1e-16 * omega.max(axis=1) / Ec
        assert np.all(np.abs(den.m2 - want) <= dM2[:, None, None] + 1e-12 * want)

    def test_rows_left_out_of_the_products_sit_below_the_floor(self, monkeypatch):
        # the centralized desk decode at 10 dB: every zone call takes m2 on
        # its weighed rows, and each row it leaves out of the products has
        # mass on k >= 1 below 1e-16 of the zone's peak in the all-rows
        # denoiser, the premise of the dropped-row bounds; all T_AMP iterations
        cfg, cb, prior, mc, Y = _desk_at_10db()
        monkeypatch.setattr(amp_central, "TAU_TOL", 0.0)
        denoise, left_out = amp_central.denoise_rows, []

        def checked(R, tau, g, log_prior, Ec, A, estimates=True):
            den = denoise(R, tau, g, log_prior, Ec, A, estimates)
            if estimates:     # the last iteration computes no second moment
                assert den.m2.shape == (len(den.weighed), cfg.B, cfg.B)
            s = denoise_rows_reference(R, tau, g, log_prior, Ec, A).posterior[:, 1:].sum(axis=1)
            out = np.setdiff1d(np.arange(len(R)), den.weighed)
            assert np.all(s[out] < 1e-16 * s.max())
            left_out.append(len(out))
            return den

        monkeypatch.setattr(amp_central, "denoise_rows", checked)
        amp_iterate(Y, cb, prior.log_pmf, mc, cfg)
        assert len(left_out) == cfg.T_AMP * cfg.U and sum(left_out) > 0

    @staticmethod
    def _half_dead(rng):
        # half the rows put log-prior ~ -700 on every k >= 1: their mass on
        # k >= 1 is far below 1e-16 of the other rows', and they are ruled dead
        R, tau, g, Ec, A = TestOnsager._instance(rng)
        M, K = R.shape[0], g.shape[0]
        lp = np.log(rng.dirichlet(np.ones(K + 1), size=M))
        lp[::2, 1:] = -700.0 - np.arange(K)
        den = denoise_rows(R, tau, g, lp, Ec, A)
        np.testing.assert_array_equal(den.weighed, np.arange(1, M, 2))
        return R, tau, g, lp, Ec, A, den

    def test_subnormal_weight_products_vs_einsum_reference(self, rng):
        # the dead rows' posterior x sample-weight products reach the
        # subnormal range in the all-rows denoiser's output; leaving those
        # rows out of m2 moves Q by at most
        # sum over dead m of 2 s_m |r_ma| |r_mf| / (M sqrt(Ec) tau_b(a)),
        # and the column floor on the weighed rows by the bound above
        R, tau, g, lp, Ec, A, den = self._half_dead(rng)
        ref = denoise_rows_reference(R, tau, g, lp, Ec, A)
        M, K, N = R.shape[0], g.shape[0], g.shape[1]
        omega = ref.posterior[:, 1:, None] * ref.sample_weights
        assert np.any((omega > 0) & (omega < np.finfo(float).tiny))
        got = onsager(R, den, tau, Ec, A)[0]
        want = onsager_reference(R, ref, tau, Ec, A)
        dead, weighed = np.arange(0, M, 2), den.weighed
        s = ref.posterior[dead, 1:].sum(axis=1)
        absR = np.abs(R[dead])
        tau_in = np.repeat(tau, A)
        bound = 2.0 * (absR.T * s) @ absR / (M * np.sqrt(Ec) * tau_in[:, None])
        dM2 = K * N * 1e-16 * omega[weighed].reshape(len(weighed), K * N).max(axis=1) / Ec
        bound += np.sqrt(Ec) * (np.abs(R[weighed]).T * dM2) @ np.abs(R[weighed]) / (M * tau_in[:, None])
        assert np.all(np.abs(got - want) <= bound + 1e-12 * np.abs(want))

    def test_dead_rows_never_reach_the_products(self, rng):
        # NaN weights and shrinkage on the dead rows: the second-moment term
        # stays finite and unchanged, only the all-row mean shrinkage on
        # the diagonal sees the NaN
        R, tau, _g, _lp, Ec, A, den = self._half_dead(rng)
        dead = np.arange(0, R.shape[0], 2)
        W, H = den.sample_weights.copy(), den.H.copy()
        W[dead] = np.nan
        H[dead] = np.nan
        clean = onsager(R, den, tau, Ec, A)[0]
        Q = onsager(R, dataclasses.replace(den, weights=W), tau, Ec, A)[0]
        np.testing.assert_array_equal(Q, clean)
        Q = onsager(R, dataclasses.replace(den, weights=W, H=H), tau, Ec, A)[0]
        off = ~np.eye(Q.shape[0], dtype=bool)
        np.testing.assert_array_equal(Q[off], clean[off])
        assert np.all(np.isnan(np.diag(Q)))

    def test_dead_zone_gives_mean_shrinkage_diagonal(self, rng):
        # every row's posterior on k >= 1 underflows: no sample column of the
        # all-rows denoiser's output carries weight, so M is zero on every
        # weighed row, H H underflows, and Q is the diagonal of the mean
        # shrinkage.  At -720 nats the masses are subnormal and H is not
        # zero; at -800 they are zero, every row is ruled dead and m2 has no row
        R, tau, g, Ec, A = self._instance(rng)
        M, K, N = R.shape[0], g.shape[0], g.shape[1]
        B = len(tau)
        for depth in (-720.0, -800.0):
            lp = np.zeros((M, K + 1))
            lp[:, 1:] = depth
            ref = denoise_rows_reference(R, tau, g, lp, Ec, A)
            omega = (ref.posterior[:, 1:, None] * ref.sample_weights).reshape(M, K * N)
            assert omega.max() < np.finfo(float).tiny
            # the column floor keeps no column: NaN shrink factors never reach the GEMM
            nan_c = np.full((K * N, B), np.nan)
            np.testing.assert_array_equal(amp_central._second_moment(omega, nan_c), 0.0)
            den = denoise_rows(R, tau, g, lp, Ec, A)
            assert den.m2.shape == (len(den.weighed), B, B)
            np.testing.assert_array_equal(den.m2, 0.0)
            Q = onsager(R, den, tau, Ec, A)[0]
            np.testing.assert_array_equal(Q, np.diag(np.repeat(den.H.mean(axis=0), A)))
            if depth == -720.0:
                assert np.all(ref.H > 0)
        assert len(den.weighed) == 0


class TestRuledDeadRows:
    @staticmethod
    def _spanning(rng, N, B):
        # the rows' log-prior on k >= 1 falls by 0.25 nats per row, so their
        # mass s_m on k >= 1 spans about 1e-26 of the peak: across the 1e-16
        # row floor and, further down, across the bound that rules rows dead
        K, M, A, Ec = 3, 240, 2, 2.3
        g = np.cumsum(rng.uniform(0.05, 1.5, size=(K, N, B)), axis=0)
        tau = rng.uniform(0.4, 1.3, size=B)
        R = (rng.normal(size=(M, B * A)) + 1j * rng.normal(size=(M, B * A))) * 0.8
        lp = np.log(rng.dirichlet(np.ones(K + 1), size=M))
        lp[:, 1:] -= 0.25 * np.arange(M)[:, None]
        return R, tau, g, lp, Ec, A

    @pytest.mark.parametrize("N", [1, 50])
    def test_vs_all_rows_reference(self, rng, N):
        R, tau, g, lp, Ec, A = self._spanning(rng, N, B=3)
        den = denoise_rows(R, tau, g, lp, Ec, A)
        ref = denoise_rows_reference(R, tau, g, lp, Ec, A)
        M, K = R.shape[0], g.shape[0]
        s = ref.posterior[:, 1:].sum(axis=1)
        floor = max(1e-16 * s.max(), np.finfo(float).tiny)
        weighed = den.weighed
        dead = np.setdiff1d(np.arange(M), weighed)
        # rows just above the floor, rows within the factor-2 margin below
        # it, and ruled-dead rows
        assert np.any((s >= floor) & (s < 2 * floor))
        assert np.any((s >= floor / 2) & (s < floor))
        assert len(dead) > 0
        # no row that reaches half the floor is ruled dead
        assert np.isin(np.flatnonzero(s >= floor / 2), weighed).all()
        for name in ("posterior", "log_mc_lik", "sample_weights", "degenerate"):
            np.testing.assert_array_equal(getattr(den, name)[weighed], getattr(ref, name)[weighed])
        # H sums N K non-negative terms per AP, and BLAS may order the
        # shrinkage product's sums differently on the gathered rows
        rtol = 2 * (N + K) * np.finfo(float).eps
        np.testing.assert_allclose(den.H[weighed], ref.H[weighed], rtol=rtol, atol=0)
        np.testing.assert_allclose(
            den.x_hat[weighed], ref.x_hat[weighed], rtol=rtol, atol=np.finfo(float).tiny
        )
        # a ruled-dead row holds an upper bound on mx_k, at least the MC
        # average, and its mass on k >= 1 evaluated there stays below half
        # the floor
        assert np.all(den.log_mc_lik[dead, 1:] >= ref.log_mc_lik[dead, 1:])
        assert np.all(den.posterior[dead, 1:].sum(axis=1) < floor / 2)
        np.testing.assert_array_equal(den.log_mc_lik[dead, 0], ref.log_mc_lik[dead, 0])
        assert not den.H[dead].any() and not den.x_hat[dead].any()
        assert not den.sample_weights[dead].any()

    @staticmethod
    def _bound_and_mx(R, tau, g, Ec, A):
        """``_mx_bound`` of one block's rows, their exact mx_k from the all-rows table, and the bound's margin."""
        K, N, B = g.shape
        energy = (np.abs(R) ** 2).reshape(len(R), B, A).sum(axis=2)
        v = tau + Ec * g
        logdet = A * np.log(np.pi * v).sum(axis=2)
        q = (energy @ (1.0 / tau).reshape(B, 1))[:, 0]
        bound = amp_central._mx_bound(energy, -(1.0 / v), logdet, q)
        margin = 4 * (B + 2) * np.finfo(float).eps * (q + np.abs(logdet).max())
        return bound, log_lik_table_reference(R, tau, g, Ec, A)[0].max(axis=2), margin

    @pytest.mark.parametrize("N", [1, 50])
    def test_bound_holds_on_spanning_rows(self, rng, N):
        # with one sample the bound is that sample's log-likelihood: it
        # exceeds mx_k by its rounding margin, give or take the rounding
        # that the margin covers twice over
        R, tau, g, _lp, Ec, A = self._spanning(rng, N, B=3)
        bound, mx, margin = self._bound_and_mx(R, tau, g, Ec, A)
        assert np.all(bound >= mx)
        if N == 1:
            assert np.all(bound - mx >= margin[:, None] / 2)
            assert np.all(bound - mx <= 2 * margin[:, None])

    def test_bound_holds_on_random_denoiser_instances(self):
        # the two-AP instances of the grid-oracle comparisons, K_max = 2
        for i in range(20):
            inst = random_denoiser_instance(300 + i)
            g = mc_table_for(inst["aps"], inst["zone"], inst["d0"], inst["beta"], 200, 2, 900 + i)
            bound, mx, _margin = self._bound_and_mx(inst["r"][None], inst["tau"], g, inst["Ec"], 1)
            assert np.all(bound >= mx)

    @pytest.mark.parametrize("B, A, K, N", [(2, 1, 4, 30), (5, 2, 3, 64), (12, 2, 5, 100), (40, 4, 11, 100)])
    def test_bound_holds_on_multi_ap_blocks(self, rng, B, A, K, N):
        # rows from pure noise up to strong signal, tau from 1e-3 to 1e3
        # times the LSFC scale, so that e_b / v and logdet span wide ranges
        M = 64
        g = np.cumsum(rng.uniform(0.0, 0.02, size=(K, N, B)), axis=0)
        for tau_scale in (1e-5, 1e-2, 10.0):
            tau = tau_scale * rng.uniform(0.5, 2.0, size=B)
            R = (rng.normal(size=(M, B * A)) + 1j * rng.normal(size=(M, B * A))) * np.sqrt(
                np.repeat(tau, A) / 2
            )
            R *= np.geomspace(1.0, 1e3, M)[:, None]
            bound, mx, _margin = self._bound_and_mx(R, tau, g, 1.0, A)
            assert np.all(bound >= mx)

    @pytest.mark.parametrize("N", [1, 50])
    def test_weighed_rows_equal_the_all_rows_test(self, rng, N):
        # the bound only rules out rows that the all-rows test leaves out,
        # and it rules out some before the dense passes: those rows hold
        # the bound itself
        shapes = [self._spanning(rng, N, B) for B in (3, 8)] + [_paper_shaped(rng)]
        for R, tau, g, lp, Ec, A in shapes:
            den = denoise_rows(R, tau, g, lp, Ec, A)
            want = weighed_rows_reference(R, tau, g, lp, Ec, A)
            assert 0 < len(want) < len(R)
            np.testing.assert_array_equal(den.weighed, want)
            bound = self._bound_and_mx(R, tau, g, Ec, A)[0]
            assert (den.log_mc_lik[:, 1:] == bound).all(axis=1).any()

    def test_every_row_ruled_dead(self, rng):
        # every row's mass on k >= 1 is zero at its bound: the bound rules
        # every row dead, so no row takes the dense passes or the weighed-row
        # test, and the call returns no weighed row and an empty m2
        R, tau, g, Ec, A = TestOnsager._instance(rng)
        M, K, N, B = R.shape[0], g.shape[0], g.shape[1], len(tau)
        lp = np.zeros((M, K + 1))
        lp[:, 1:] = -800.0
        den = denoise_rows(R, tau, g, lp, Ec, A)
        assert den.weighed.shape == (0,) and den.m2.shape == (0, B, B)
        np.testing.assert_array_equal(den.log_mc_lik[:, 1:], self._bound_and_mx(R, tau, g, Ec, A)[0])
        ref = denoise_rows_reference(R, tau, g, lp, Ec, A)
        assert np.all(den.log_mc_lik[:, 1:] >= ref.log_mc_lik[:, 1:])
        np.testing.assert_array_equal(den.posterior[:, 1:], 0.0)
        assert not den.H.any() and not den.x_hat.any()
        assert den.sample_weights.shape == (M, K, N) and not den.sample_weights.any()
        Q = onsager(R, den, tau, Ec, A)[0]
        np.testing.assert_array_equal(Q, np.zeros((B * A, B * A)))

    def test_sample_weights_scattered_on_first_read(self, rng):
        # a block of several APs keeps the weighed rows' weights only; the
        # first read of sample_weights builds the row layout, zero on the
        # ruled-dead rows, and later reads return that same array
        R, tau, g, lp, Ec, A = self._spanning(rng, 50, B=3)
        den = denoise_rows(R, tau, g, lp, Ec, A)
        M, K, N = R.shape[0], g.shape[0], g.shape[1]
        L = len(den.weighed)
        assert 0 < L < M and den.weights.shape == (L, K, N)
        kept = den.weights
        W = den.sample_weights
        assert W.shape == (M, K, N) and den.sample_weights is W
        np.testing.assert_array_equal(W[den.weighed], kept)
        assert not np.delete(W, den.weighed, axis=0).any()

    def test_one_ap_block_weighs_every_row(self, rng):
        # one-AP blocks, the distributed decoder's and B = 1, keep the exact
        # MC averages on every row, also on rows far enough below the floor
        # that a block of more APs would rule them dead
        N = 50
        R, tau, g, lp, Ec, A = self._spanning(rng, N, B=1)
        den = denoise_rows(R, tau, g, lp, Ec, A)
        ref = denoise_rows_reference(R, tau, g, lp, Ec, A)
        s = ref.posterior[:, 1:].sum(axis=1)
        assert np.any(s < 1e-16 * s.max() / (2 * N * N))
        np.testing.assert_array_equal(den.weighed, np.arange(R.shape[0]))
        _assert_one_ap_matches_reference(den, ref)

    def test_stacked_one_ap_blocks_weigh_every_row(self, rng, monkeypatch):
        # three stacked one-AP blocks whose rows span far below 1e-16 of
        # their block's peak: every row enters m2, and the stacked desk
        # recursion puts every row of every AP in its residual and Onsager
        # products
        N, G = 50, 3
        R, tau, g, lp, Ec, A = self._spanning(rng, N, B=G)
        M = R.shape[0]
        R = R.reshape(M, G, A).transpose(1, 0, 2).reshape(G * M, A)
        den = denoise_rows(R, tau, g, lp, Ec, A)
        s = den.posterior[:, 1:].sum(axis=1).reshape(G, M)
        assert np.all((s < 1e-16 * s.max(axis=1, keepdims=True)).any(axis=1))
        np.testing.assert_array_equal(den.weighed, np.arange(G * M))
        assert den.m2.shape == (G * M, 1, 1)
        _assert_one_ap_matches_reference(den, denoise_rows_reference(R, tau, g, lp, Ec, A))
        cfg, cb, prior, mc, Y = _desk_at_10db()
        monkeypatch.setattr(amp_central, "TAU_TOL", 0.0)     # all T_AMP iterations
        diag = amp_iterate(Y, cb, prior.log_pmf, mc, cfg, per_ap=True)[2]
        assert diag["weighed_rows"] == [cfg.B * cfg.U * cfg.M] * cfg.T_AMP
        assert "live_rows" not in diag


def _assert_one_ap_matches_reference(den, ref, atol=0.0, d_log_lik=0.0):
    """A one-AP denoiser output against ``denoise_rows_reference``, within its rounding.

    ``atol`` is added to the absolute bounds of H and m2, for posteriors
    that reach the subnormal range.  ``d_log_lik`` bounds the absolute
    rounding that log-likelihoods far from 0 add: in each entry of the
    table ``W - mx``, in ``log_mc_lik`` and in the posterior's exponents.
    """
    K, N = ref.weights.shape[1:]
    for name in ("degenerate", "weighed"):
        np.testing.assert_array_equal(getattr(den, name), getattr(ref, name))
    # the one-AP branch takes sum_i w_i, sum_i w_i c_i and sum_i w_i c_i^2
    # from one product with the table [1, c, c^2], where the reference
    # sums and normalizes the same raw weights.  A sum of N non-negative
    # terms lies within N eps relative of the exact sum, so the two
    # sum_i w_i differ by at most 2 N eps relative: log_mc_lik by 2 N eps
    # absolute plus its own roundings, the normalized weights by 2 N eps
    # relative plus a division, and the posterior, a softmax over K + 1
    # hypotheses, by twice the log_mc_lik gap plus K + 3 roundings.
    # H and m2 take the ratios sum_i w_i c_i / sum_i w_i, within 4 N eps
    # of the reference's normalized sums, weigh them by the posterior and
    # add K non-negative terms.  A table entry off by d_log_lik moves its
    # weight by d_log_lik relative, every sum and log_mc_lik by d_log_lik
    # and the normalized weights and ratios by 2 d_log_lik
    eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
    d_log = 2 * N * eps + 2 * d_log_lik
    rtol_post = 2 * d_log + (K + 3) * eps
    rtol_h = 4 * N * eps + rtol_post + (K + 2) * eps
    np.testing.assert_allclose(den.log_mc_lik, ref.log_mc_lik, rtol=2 * eps, atol=d_log)
    np.testing.assert_allclose(den.posterior, ref.posterior, rtol=rtol_post, atol=tiny)
    np.testing.assert_allclose(
        den.sample_weights, ref.sample_weights, rtol=d_log + 2 * eps, atol=tiny
    )
    np.testing.assert_allclose(den.H, ref.H, rtol=rtol_h, atol=atol)
    np.testing.assert_allclose(den.x_hat, ref.x_hat, rtol=rtol_h + eps, atol=tiny)
    np.testing.assert_allclose(den.m2, ref.m2, rtol=rtol_h, atol=atol)


class TestStackedBlocks:
    def test_blocks_equal_one_block_calls_with_their_own_row_floor(self, rng):
        # two one-AP blocks stacked along the rows: block 0 has strong rows
        # (mass on k >= 1 near 1), block 1 a variance so small that all its
        # rows' mass on k >= 1 lies far below 1e-16 of block 0's largest;
        # a one-AP block weighs every row, so each block's products are its own run's
        K, N, M, A, Ec = 2, 30, 6, 4, 2.0
        g = rng.uniform(0.3, 1.0, size=(K, N, 2))
        tau = np.array([1.0, 1e-8])
        lp = np.log(rng.dirichlet(np.ones(K + 1), size=M))
        blocks = [
            (rng.normal(size=(M, A)) + 1j * rng.normal(size=(M, A))) * np.sqrt(t / 2) for t in tau
        ]
        blocks[0][:2] *= 4.0
        R = np.concatenate(blocks)
        den = denoise_rows(R, tau, g, lp, Ec, A)
        Q = onsager(R, den, tau, Ec, A)
        assert Q.shape == (2, A, A)
        for j, R_j in enumerate(blocks):
            one = denoise_rows(R_j, tau[j : j + 1], g[..., j : j + 1], lp, Ec, A)
            rows = slice(j * M, (j + 1) * M)
            for name in ("x_hat", "posterior", "log_mc_lik", "sample_weights", "H", "degenerate"):
                np.testing.assert_array_equal(getattr(den, name)[rows], getattr(one, name))
            np.testing.assert_array_equal(den.shrink[..., j : j + 1], one.shrink)
            np.testing.assert_array_equal(den.m2[rows], one.m2)
            np.testing.assert_array_equal(Q[j], onsager(R_j, one, tau[j : j + 1], Ec, A)[0])
        active = den.posterior[:, 1:].sum(axis=1)
        assert active[M:].max() < 1e-16 * active[:M].max()


class TestOneApSecondMoment:
    @staticmethod
    def _blocks(rng, G):
        # G one-AP blocks of M = 12 rows, each with its own variance, LSFC
        # table and observation scale
        K, N, M, A, Ec = 3, 50, 12, 2, 2.3
        g = np.cumsum(rng.uniform(0.05, 1.5, size=(K, N, G)), axis=0)
        tau = rng.uniform(0.4, 1.3, size=G)
        scale = np.repeat(rng.uniform(0.5, 2.0, size=G), M)[:, None]
        R = (rng.normal(size=(G * M, A)) + 1j * rng.normal(size=(G * M, A))) * scale
        lp = np.log(rng.dirichlet(np.ones(K + 1), size=M))
        return R, tau, g, lp, Ec, A

    @pytest.mark.parametrize("G", [1, 3])
    def test_vs_einsum_reference(self, rng, G):
        R, tau, g, lp, Ec, A = self._blocks(rng, G)
        K, N = g.shape[:2]
        M = R.shape[0] // G
        den = denoise_rows(R, tau, g, lp, Ec, A)
        assert den.m2.shape == (G * M, 1, 1)
        assert len(den.weighed) == G * M
        Q = onsager(R, den, tau, Ec, A)
        eps = np.finfo(float).eps
        for j in range(G):
            rows = slice(j * M, (j + 1) * M)
            den_j = dataclasses.replace(
                den, posterior=den.posterior[rows], weights=den.sample_weights[rows], weight_sums=None,
                H=den.H[rows], shrink=den.shrink[..., j : j + 1],
            )
            want = onsager_reference(R[rows], den_j, tau[j : j + 1], Ec, A)
            # the second moment summed over the (k, i) samples, as the reference does
            m2 = np.einsum(
                "mk,mki,ki->m", den_j.posterior[:, 1:], den_j.sample_weights, den_j.shrink[..., 0] ** 2
            )
            # M2 sums K N non-negative terms in another order than the
            # reference; psi and the Q2 sums add at most 2 M roundings of
            # terms no larger than sqrt(Ec) |r_a| |r_f| M2 / tau (H^2 <= M2),
            # the diagonal mean M roundings of H
            absR = np.abs(R[rows])
            unit = np.sqrt(Ec) * (absR.T * m2) @ absR / (M * tau[j])
            bound = (K * N + K + N + 2 * M) * eps * unit + M * eps * np.abs(want)
            assert np.all(np.abs(Q[j] - want) <= bound)

    @pytest.mark.parametrize("G", [1, 3, "multi-ap"])
    def test_sample_weights_unread(self, rng, G, monkeypatch):
        # both block shapes take the second moment from the denoiser's m2:
        # onsager reads no weights and no shrinkage table, and NaN ones leave
        # Q as it was; G one-AP blocks, or one block of three APs
        if G == "multi-ap":
            R, tau, g, Ec, A = TestOnsager._instance(rng)
            lp = np.log(rng.dirichlet(np.ones(g.shape[0] + 1), size=R.shape[0]))
        else:
            R, tau, g, lp, Ec, A = self._blocks(rng, G)
        den = denoise_rows(R, tau, g, lp, Ec, A)
        nan_den = dataclasses.replace(
            den, weights=np.full_like(den.weights, np.nan), shrink=np.full_like(den.shrink, np.nan)
        )

        def unread(_self):
            raise AssertionError("sample_weights read")

        monkeypatch.setattr(amp_central.ZoneDenoiseResult, "sample_weights", property(unread))
        Q = onsager(R, den, tau, Ec, A)
        np.testing.assert_array_equal(onsager(R, nan_den, tau, Ec, A), Q)
        assert np.isfinite(Q).all()

    @pytest.mark.parametrize("G", [1, 3])
    def test_sample_weights_normalized_on_first_read(self, rng, G):
        # one-AP blocks keep the raw weights exp(log p - s_k) k-major,
        # (G, K, M, N), each (row, k) peaking at no more than 1 up to the
        # rounding of log p - s, and their sums; sample_weights divides
        # them once, into the (G M, K, N) row layout
        R, tau, g, lp, Ec, A = self._blocks(rng, G)
        K, N = g.shape[:2]
        M = len(R) // G
        eps = np.finfo(float).eps
        den = denoise_rows(R, tau, g, lp, Ec, A)
        raw, sums = den.weights, den.weight_sums
        assert raw.shape == (G, K, M, N) and sums.shape == (len(R), K)
        assert raw.max() <= 1 + 4 * eps
        by_row = raw.transpose(0, 2, 1, 3).reshape(len(R), K, N)
        np.testing.assert_allclose(sums, by_row.sum(axis=2), rtol=2 * N * eps)
        W = den.sample_weights
        assert W.shape == (len(R), K, N)
        np.testing.assert_array_equal(W, by_row / sums[..., None])
        assert den.weight_sums is None and den.sample_weights is W
        ref = denoise_rows_reference(R, tau, g, lp, Ec, A)
        np.testing.assert_allclose(W, ref.sample_weights, rtol=2 * N * eps + 2 * eps, atol=np.finfo(float).tiny)

    def test_m2_on_the_weighed_rows_of_either_block_shape(self, rng):
        # one block of three APs, a third of its rows ruled dead, and three
        # stacked one-AP blocks: m2 is (L, Bb, Bb) on the weighed rows
        R, tau, g, Ec, A = TestOnsager._instance(rng)
        lp = np.log(rng.dirichlet(np.ones(g.shape[0] + 1), size=R.shape[0]))
        lp[::3, 1:] = -800.0
        multi = denoise_rows(R, tau, g, lp, Ec, A)
        assert 0 < len(multi.weighed) < len(R)
        one = denoise_rows(*self._blocks(rng, 3))
        for den, Bb in ((multi, 3), (one, 1)):
            assert den.m2.shape == (len(den.weighed), Bb, Bb)


@st.composite
def _one_ap_blocks(draw):
    """Random one-AP blocks: G in {1, 3}, A in {1, 2, 4}, K and N up to 64.

    Each row's energy puts e / A at 0, below its block's smallest variance
    v, above its largest or between them; the LSFC table may repeat its
    samples exactly.  The values are continuous draws otherwise, so no two
    distinct samples tie within rounding.
    """
    G = draw(st.sampled_from([1, 3]))
    A = draw(st.sampled_from([1, 2, 4]))
    K, N, M = draw(st.integers(1, 64)), draw(st.integers(1, 64)), draw(st.integers(1, 8))
    kinds = draw(st.lists(st.sampled_from(["zero", "below", "above", "between"]), min_size=G * M, max_size=G * M))
    distinct = draw(st.integers(1, N))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = np.cumsum(rng.uniform(0.05, 1.5, size=(K, N, G)), axis=0)
    g = g[:, rng.integers(0, distinct, size=N)]
    tau = rng.uniform(0.2, 2.0, size=G)
    Ec = float(rng.uniform(0.5, 3.0))
    v = tau + Ec * g
    lo, hi = v.min(axis=(0, 1)), v.max(axis=(0, 1))
    peak = {
        "zero": lambda j: 0.0,
        "below": lambda j: lo[j] * rng.uniform(0.0, 0.9),
        "above": lambda j: hi[j] * rng.uniform(1.1, 10.0),
        "between": lambda j: rng.uniform(lo[j], hi[j]),
    }
    e = A * np.array([peak[kind](row // M) for row, kind in enumerate(kinds)])
    z = rng.normal(size=(G * M, A)) + 1j * rng.normal(size=(G * M, A))
    R = z * np.sqrt(e / (np.abs(z) ** 2).sum(axis=1))[:, None]
    lp = np.log(rng.dirichlet(np.ones(K + 1), size=M))
    return R, tau, g, lp, Ec, A


def _shift_rounding(den, ref, lp):
    """``d_log_lik`` of ``_assert_one_ap_matches_reference`` for a one-AP output and its reference.

    Read before ``den.sample_weights``, while ``den.weights`` holds the raw
    weights ``exp(log p - s)``.  The package rounds ``log p - s``, the
    reference ``log p - mx``, each by eps / 2 of its size on the weights
    that stay normal: ``|log p - mx| <= -log w`` with w the reference's
    normalized weight, and ``s - mx`` is minus the log of the peak raw
    weight.  ``log_mc_lik`` and the log-posterior, up to |log p| ~ 1e3 on
    rows far above the variances, round to eps of their size.
    """
    eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
    G, K, M, N = den.weights.shape
    slack = -np.log(den.weights.max(axis=3)).transpose(0, 2, 1).reshape(G * M, K, 1)
    w = ref.sample_weights
    to_mx = np.where(w >= tiny, -np.log(np.maximum(w, tiny)), 0.0)
    size = np.abs(ref.log_mc_lik).reshape(G, M, K + 1) + np.abs(lp)
    return eps / 2 * (2 * to_mx + slack).max() + 2 * eps * size.max()


class TestOneApShift:
    """The one-AP shift s: the log-likelihood at the peak v* = e / A, clipped to the group's variances."""

    @staticmethod
    def _table(R, tau, g, Ec, A):
        """Per (row, k, sample): the variances v, v* = e / A and the sizes ``e / v + |logdet|`` of log p's terms."""
        K, N, G = g.shape
        M = len(R) // G
        v = np.repeat((tau + Ec * g).transpose(2, 0, 1), M, axis=0)         # (G M, K, N)
        e = (np.abs(R) ** 2).sum(axis=1)[:, None, None]
        return v, e / A, e / v + A * np.abs(np.log(np.pi * v))

    @given(_one_ap_blocks())
    @settings(max_examples=60, deadline=None)
    def test_shift_bounds_the_table_max(self, block):
        R, tau, g, lp, Ec, A = block
        K, N, G = g.shape
        M = len(R) // G
        eps = np.finfo(float).eps
        den = denoise_rows(R, tau, g, lp, Ec, A)
        ref = denoise_rows_reference(R, tau, g, lp, Ec, A)
        v, v_star, terms = self._table(R, tau, g, Ec, A)
        # max_i log p_i - s per (row, k), as the product rounds it: the log of the peak raw weight
        gap = np.log(den.weights.max(axis=3)).transpose(0, 2, 1).reshape(G * M, K)
        # log p and s each round twice and their difference once, within
        # eps of the largest term each; with one row or one sample numpy
        # calls GEMV or a dot, whose kernel may fuse the product into the
        # sum, within 3 eps of the terms and of |s| (module docstring)
        gemm = M > 1 and N > 1
        r = (3 if gemm else 6) * eps * terms.max(axis=2) + 2 * eps
        assert np.all(gap <= r)
        clipped = ((v_star <= v.min(axis=2, keepdims=True)) | (v_star >= v.max(axis=2, keepdims=True)))[..., 0]
        if gemm:
            # a clipped row's v* is an extreme sample's variance: s is that
            # sample's table entry, in the table's own expression, and its max
            np.testing.assert_array_equal(gap[clipped], 0.0)
        else:
            assert np.all(np.abs(gap[clipped]) <= r[clipped])
        # an interior row's shift exceeds its max by at most A (d - 1 + e^-d),
        # d the log-gap from v* to the next sample above
        inner = ~clipped
        above = np.where(v >= v_star, v, np.inf).min(axis=2)[inner]
        d = np.log(above / np.broadcast_to(v_star[..., 0], inner.shape)[inner])
        slack = A * (d - 1 + np.exp(-d))
        assert np.all(-gap[inner] <= slack + r[inner] + eps * np.abs(gap[inner]))
        # posteriors far out in the tails reach the subnormal range
        d_log_lik = _shift_rounding(den, ref, lp)
        _assert_one_ap_matches_reference(den, ref, atol=np.finfo(float).tiny, d_log_lik=d_log_lik)

    @pytest.mark.parametrize("A, log_span, x", [(2, 400.0, 400.0), (120, 12.0, 20.0)], ids=["span", "antennas"])
    def test_wide_groups_take_the_table_max(self, rng, A, log_span, x):
        # block 0's variances span about e^400 at A = 2, or e^12 at A = 120:
        # its A log(v_max / v_min) exceeds 700, and its interior rows, at
        # v* = x v_min, sit so far from both neighbouring samples that
        # exp(log p - s) would underflow at every sample.  Block 1 is an
        # ordinary block.  A wide group takes its exact table max as the
        # shift, so its raw weights peak at exactly 1
        K, N, M, tau, Ec = 2, 16, 6, np.array([1.0, 0.7]), 1.0
        g = np.empty((K, N, 2))
        g[..., 0] = np.where(np.arange(N) % 2, np.exp(log_span), 1.0)     # two distinct variances
        g[..., 1] = np.cumsum(rng.uniform(0.1, 1.0, size=(K, N)), axis=0)
        v = tau + Ec * g
        span = A * np.log(v.max(axis=1) / v.min(axis=1))
        assert np.all(span[:, 0] > amp_central._MAX_SHIFT_SLACK) and np.all(span[:, 1] < 100)
        # block 0's rows: v* = x v_min, clipped below v_min, clipped above v_max
        peak = np.concatenate([np.full(M - 2, x * v[0, 0, 0]), [0.5, 2 * np.exp(log_span)]])
        z = rng.normal(size=(2 * M, A)) + 1j * rng.normal(size=(2 * M, A))
        e = np.concatenate([A * peak, A * rng.uniform(v[..., 1].min(), v[..., 1].max(), size=M)])
        R = z * np.sqrt(e / (np.abs(z) ** 2).sum(axis=1))[:, None]
        lp = np.log(rng.dirichlet(np.ones(K + 1), size=M))
        den = denoise_rows(R, tau, g, lp, Ec, A)
        ref = denoise_rows_reference(R, tau, g, lp, Ec, A)
        np.testing.assert_array_equal(den.weights[0].max(axis=2), 1.0)
        d_log_lik = _shift_rounding(den, ref, lp)
        for name in ("x_hat", "posterior", "log_mc_lik", "H", "m2"):
            assert np.isfinite(getattr(den, name)).all(), name
        _assert_one_ap_matches_reference(den, ref, atol=np.finfo(float).tiny, d_log_lik=d_log_lik)


def _paper_shaped(rng):
    # one paper-decode zone call: M = 1024 rows on B = 40 APs of A = 4
    # antennas, K_max = 11, N = 100; 150 rows carry signal, the rest
    # put log-prior -800 on every k >= 1 and are dead
    K, N, M, B, A, Ec = 11, 100, 1024, 40, 4, 1.0
    g = np.cumsum(rng.uniform(0.0, 0.02, size=(K, N, B)), axis=0)
    tau = rng.uniform(0.5e-3, 2e-3, size=B)
    noise = rng.normal(size=(M, B * A)) + 1j * rng.normal(size=(M, B * A))
    R = noise * np.sqrt(np.repeat(tau, A) / 2)
    R[:150] *= rng.uniform(1.0, 6.0, size=(150, 1))
    lp = np.log(rng.dirichlet(np.ones(K + 1), size=M))
    lp[150:, 1:] = -800.0
    return R, tau, g, lp, Ec, A


class TestBatchedQ2:
    @staticmethod
    def _checked(monkeypatch):
        # every onsager call, checked against the per-output-AP loop
        weighed = []

        def checked(R, den, tau, Ec, A):
            Q = onsager(R, den, tau, Ec, A)
            np.testing.assert_array_equal(Q, onsager_loop_reference(R, den, tau, Ec, A))
            weighed.append(len(den.weighed))
            return Q

        monkeypatch.setattr(amp_central, "onsager", checked)
        return weighed

    @pytest.mark.parametrize("per_ap", [False, True], ids=["centralized", "stacked"])
    def test_desk_recursion_vs_per_output_ap_loop(self, monkeypatch, per_ap):
        cfg, cb, prior, mc, Y = _desk_at_10db()
        monkeypatch.setattr(amp_central, "TAU_TOL", 0.0)     # all T_AMP iterations
        weighed = self._checked(monkeypatch)
        amp_iterate(Y, cb, prior.log_pmf, mc, cfg, per_ap=per_ap)
        assert len(weighed) == (cfg.T_AMP - 1) * cfg.U     # the last iteration runs no onsager
        assert 0 < min(weighed) and max(weighed) <= (cfg.B if per_ap else 1) * cfg.M

    def test_paper_shaped_vs_per_output_ap_loop(self, rng):
        R, tau, g, lp, Ec, A = _paper_shaped(rng)
        den = denoise_rows(R, tau, g, lp, Ec, A)
        L, Bb = len(den.weighed), R.shape[1] // A
        assert L > 100
        # the product runs in more than one chunk of output APs
        assert amp_central._Q2_CHUNK_REALS < L * Bb * Bb * 2 * A
        np.testing.assert_array_equal(
            onsager(R, den, tau, Ec, A), onsager_loop_reference(R, den, tau, Ec, A)
        )

    def test_stacked_multi_ap_blocks_rejected(self, rng):
        # two blocks of three APs stacked along the rows: a block of several
        # APs runs alone in its call
        R, tau, g, Ec, A = TestOnsager._instance(rng)
        M, K = R.shape[0], g.shape[0]
        R2 = np.concatenate([R, 0.5 * R[::-1]])
        tau2, g2 = np.concatenate([tau, tau[::-1]]), np.concatenate([g, g[..., ::-1]], axis=2)
        lp = np.log(rng.dirichlet(np.ones(K + 1), size=M))
        with pytest.raises(ValueError, match="runs alone"):
            denoise_rows(R2, tau2, g2, lp, Ec, A)
        den = denoise_rows(R, tau, g, lp, Ec, A)
        with pytest.raises(ValueError, match="runs alone"):
            onsager(R2, den, tau2, Ec, A)

    def test_chunks_equal_one_chunk(self, rng, monkeypatch):
        R, tau, g, lp, Ec, A = _paper_shaped(rng)
        den = denoise_rows(R, tau, g, lp, Ec, A)
        L, Bb = len(den.weighed), R.shape[1] // A
        per_ap = L * Bb * 2 * A
        results = []
        for chunk in (Bb, 1, 7):                     # 7 leaves a last chunk of 5
            monkeypatch.setattr(amp_central, "_Q2_CHUNK_REALS", chunk * per_ap)
            results.append(onsager(R, den, tau, Ec, A))
        for Q in results[1:]:
            np.testing.assert_array_equal(Q, results[0])


def _tiny_system(U=2, M=4, B=2, A=1, Nc=64, N_MC=64, K_max=2, Ec=3.0,
                 sigma_w2=0.05, T_AMP=5, K=8):
    from tumaloc.config import SystemConfig

    side = 60.0
    cfg = SystemConfig(
        area_side=side,
        zone_grid=(1, U),
        ap_positions=tuple((side * (b + 0.5) / B, -40.0) for b in range(B)),
        A=A, M=M, Nc=Nc, Ns=100, Ec=Ec, sigma_w2=sigma_w2,
        d0=60.0, K=K, T_targets=4, N_MC=N_MC, T_AMP=T_AMP, K_max=K_max,
    )
    topo = build_topology(cfg)
    return cfg, topo


def _desk_at_10db(seed=3):
    """One desk round at 10 dB receive SNR: ``(cfg, codebook, prior, MC table, Y)``."""
    cfg0 = desk_preset()
    topo = build_topology(cfg0)
    cfg = cfg0.with_updates(sigma_w2=sigma_w2_for_snr_rx(cfg0, topo, 10.0))
    ctx = harness.prepare_context(cfg, need_prior=False)
    prior = build_prior(cfg, 0.5, np.full((cfg.U, cfg.M), 1.0 / (cfg.U * cfg.M)))
    rnd = harness.draw_run(ctx, seed, ()).round
    cb = airlink.gen_codebook(cfg, seed)
    Y = airlink.uplink(rnd, cb, topo, cfg, seed)
    return cfg, cb, prior, build_mc_table(cfg, topo, seed), Y


class TestAmpRun:
    def test_noise_only_with_k0_prior(self, monkeypatch):
        cfg, topo = _tiny_system()
        monkeypatch.setattr(amp_central, "TAU_TOL", 0.0)       # all T_AMP iterations
        pm = np.full((cfg.U, cfg.M), 1.0 / cfg.M)
        prior = build_prior(cfg, 1e-9, pm)      # essentially all mass at k=0
        cb = airlink.gen_codebook(cfg, seed=1)
        mc = build_mc_table(cfg, topo, seed=1)
        Y = synthesize_dense(cb, np.zeros((cfg.U, cfg.M, cfg.F), dtype=complex), cfg, seed=1)
        res = amp_run(Y, cb, prior, mc, cfg)
        assert res.empty_type
        assert np.all(res.k_per_zone == 0)
        np.testing.assert_array_equal(res.t_hat, 0.0)
        # one per-AP residual variance per iteration
        assert res.diagnostics["tau_trace"].shape == (cfg.T_AMP, cfg.B)

    def test_single_codeword_concentrates_and_matches_grid_posterior(self, monkeypatch):
        cfg, topo = _tiny_system(Ec=6.0, sigma_w2=1e-4, T_AMP=6, N_MC=20_000)
        pm = np.full((cfg.U, cfg.M), 1.0 / cfg.M)
        prior = build_prior(cfg, 0.08, pm)
        cb = airlink.gen_codebook(cfg, seed=3)
        mc = build_mc_table(cfg, topo, seed=3)
        pos = np.array([[20.0, 15.0]])
        h = airlink.sample_fading(pos, topo, cfg, seed=3)
        X = np.zeros((cfg.U, cfg.M, cfg.F), dtype=complex)
        X[0, 2] = h[0]
        Y = synthesize_dense(cb, X, cfg, seed=3)
        res = amp_run(Y, cb, prior, mc, cfg)
        assert res.k_per_zone[0, 2] == 1
        assert res.posteriors[0, 2, 1] > 0.9
        assert res.k_per_zone.sum() == 1
        # channel estimation error decreases and plateaus
        errs, _gaps = amp_traces(Y, cb, prior.log_pmf, mc, cfg, X, (1, cfg.T_AMP))
        assert errs[-1] < errs[0]
        # brute-force posterior from the final effective observation of the
        # true row, integrating over the real zone with the real LSFC: the
        # observation and tau that the decode's last denoiser call of zone 0 saw
        denoise, calls = amp_central.denoise_rows, []

        def kept(R, tau, g, log_prior, Ec, A, estimates=True):
            calls.append((R.copy(), tau.copy()))
            return denoise(R, tau, g, log_prior, Ec, A, estimates)

        monkeypatch.setattr(amp_central, "denoise_rows", kept)
        again = amp_run(Y, cb, prior, mc, cfg)
        np.testing.assert_array_equal(again.posteriors, res.posteriors)
        t = len(res.diagnostics["tau_trace"])
        assert len(calls) == t * cfg.U
        R_last, tau_final = calls[(t - 1) * cfg.U]
        r_final = R_last[2]
        x0, y0, x1, y1 = topo.zone_rects[0]
        prior_row = prior.pmf[0, 2]
        post_o, _ = grid_denoiser_oracle(
            r_final, tau_final, cfg.Ec, prior_row,
            np.array(cfg.ap_positions), ((x0, x1), (y0, y1)), cfg.d0, cfg.beta,
        )
        np.testing.assert_allclose(res.posteriors[0, 2], post_o, atol=0.02)

    def test_weighed_rows_vs_all_rows_reference(self, monkeypatch):
        # desk at 10 dB: most rows are ruled dead, their mass on k >= 1 far
        # below 1e-16 of the zone's peak, and skip the Onsager and residual
        # products.  The reference runs all T_AMP iterations, and so does the decoder
        cfg, cb, prior, mc, Y = _desk_at_10db()
        monkeypatch.setattr(amp_central, "TAU_TOL", 0.0)
        posts, _ll, diag = amp_iterate(Y, cb, prior.log_pmf, mc, cfg)
        want = amp_iterate_reference(Y, cb, prior.log_pmf, mc, cfg)[0]
        assert len(diag["weighed_rows"]) == cfg.T_AMP
        assert 0 < min(diag["weighed_rows"]) and max(diag["weighed_rows"]) < cfg.U * cfg.M
        np.testing.assert_allclose(posts, want, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(
            estimate_multiplicities(posts), estimate_multiplicities(want)
        )

    @pytest.mark.parametrize("per_ap", [False, True], ids=["centralized", "stacked"])
    def test_recursion_never_reads_the_weights(self, monkeypatch, per_ap):
        # the recursion takes M from m2 on either block shape: a sample_weights
        # that raises leaves every output as an unpatched run gives it
        cfg, cb, prior, mc, Y = _desk_at_10db()
        want = amp_iterate(Y, cb, prior.log_pmf, mc, cfg, per_ap=per_ap)

        def unread(_self):
            raise AssertionError("sample_weights read")

        monkeypatch.setattr(amp_central.ZoneDenoiseResult, "sample_weights", property(unread))
        got = amp_iterate(Y, cb, prior.log_pmf, mc, cfg, per_ap=per_ap)
        for a, b in zip(got[:2], want[:2]):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(got[2].pop("tau_trace"), want[2].pop("tau_trace"))
        assert got[2] == want[2]

    def test_decode_error_raised_on_nonfinite(self):
        cfg, topo = _tiny_system()
        pm = np.full((cfg.U, cfg.M), 1.0 / cfg.M)
        prior = build_prior(cfg, 0.2, pm)
        cb = airlink.gen_codebook(cfg, seed=1)
        mc = build_mc_table(cfg, topo, seed=1)
        Y = np.full((cfg.Nc, cfg.F), np.nan, dtype=complex)
        with pytest.raises(DecodeError) as err:
            amp_run(Y, cb, prior, mc, cfg)
        assert err.value.iteration == 1


class TestMatchedFilterPrecision:
    # the matched filter runs in the codebook's precision: the complex64
    # codebook and its exact complex128 upcast give the same decode up to
    # float32 rounding of R.  Measured posterior gaps: at most 1.1e-7 over
    # desk seeds 1-30 at 10 dB (both decoders), 8.8e-8 over paper-decode
    # seeds derive_run_seed(1, 0, r), r = 0..3; the bound is ten times that
    POST_GAP = 1e-6

    def _assert_same_decode(self, decode, cfg, cb, prior, mc, Y):
        assert cb.dtype == np.complex64
        single = decode(Y, cb, prior, mc, cfg)
        double = decode(Y, cb.astype(complex), prior, mc, cfg)
        np.testing.assert_array_equal(single.k_per_zone, double.k_per_zone)
        assert len(single.diagnostics["tau_trace"]) == len(double.diagnostics["tau_trace"])
        gap = np.abs(single.posteriors - double.posteriors).max()
        assert 0 < gap <= self.POST_GAP, gap

    @pytest.mark.parametrize("decode", [amp_run, amp_dist.distributed_decode], ids=["centralized", "distributed"])
    def test_desk_at_10db(self, decode):
        self._assert_same_decode(decode, *_desk_at_10db())

    def test_paper_decode(self):
        # the paper-decode benchmark's run at 10 dB, on the paper pins' prior
        cfg, seed = paper_preset(T_AMP=3, N_MC=100), harness.derive_run_seed(1, 0, 0)
        base = harness.prepare_context(cfg, need_prior=False)
        ctx = harness.PointContext(cfg, base.topology, base.quantizer, paper_prior())
        rnd = harness.draw_run(ctx, seed, ()).round
        cb = airlink.gen_codebook(cfg, seed)
        Y = airlink.uplink(rnd, cb, ctx.topology, cfg, seed)
        self._assert_same_decode(amp_run, cfg, cb, ctx.prior, build_mc_table(cfg, ctx.topology, seed), Y)


class TestStop:
    @staticmethod
    def _one_codeword(T_AMP):
        cfg, topo = _tiny_system(T_AMP=T_AMP)
        prior = build_prior(cfg, 0.2, np.full((cfg.U, cfg.M), 1.0 / cfg.M))
        cb = airlink.gen_codebook(cfg, seed=0)
        mc = build_mc_table(cfg, topo, seed=0)
        X = np.zeros((cfg.U, cfg.M, cfg.F), dtype=complex)
        X[0, 2] = airlink.sample_fading(np.array([[20.0, 15.0]]), topo, cfg, seed=0)[0]
        return cfg, prior, cb, mc, synthesize_dense(cb, X, cfg, seed=0)

    def test_stopped_run_equals_a_run_capped_at_its_iteration(self, monkeypatch):
        # the run stops after the first t >= 2 at which every AP's tau moved
        # by less than TAU_TOL, and its output is that of a run capped at t
        # with the rule off, bit for bit
        cfg, prior, cb, mc, Y = self._one_codeword(T_AMP=30)
        got = amp_iterate(Y, cb, prior.log_pmf, mc, cfg)
        t = len(got[2]["tau_trace"])
        tol = amp_central.TAU_TOL
        monkeypatch.setattr(amp_central, "TAU_TOL", 0.0)
        full = amp_iterate(Y, cb, prior.log_pmf, mc, cfg)[2]["tau_trace"]
        change = np.abs(np.diff(full, axis=0)) / full[:-1]     # row s - 2: iteration s against s - 1
        assert np.all(change[: t - 2].max(axis=1) >= tol)
        assert change[t - 2].max() < tol
        assert 2 < t < cfg.T_AMP
        want = amp_iterate(Y, cb, prior.log_pmf, mc, cfg.with_updates(T_AMP=t))
        for a, b in zip(got[:2], want[:2]):          # posteriors and log-likelihoods
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(got[2].pop("tau_trace"), want[2].pop("tau_trace"))
        assert got[2] == want[2]
        assert len(got[2]["weighed_rows"]) == t

    def test_zero_tolerance_runs_every_iteration(self, monkeypatch):
        cfg, prior, cb, mc, Y = self._one_codeword(T_AMP=12)
        assert len(amp_iterate(Y, cb, prior.log_pmf, mc, cfg)[2]["tau_trace"]) < cfg.T_AMP
        monkeypatch.setattr(amp_central, "TAU_TOL", 0.0)
        diag = amp_iterate(Y, cb, prior.log_pmf, mc, cfg)[2]
        assert diag["tau_trace"].shape == (cfg.T_AMP, cfg.B)
        assert len(diag["weighed_rows"]) == cfg.T_AMP


class TestLastIteration:
    @pytest.mark.parametrize("per_ap", [False, True], ids=["centralized", "stacked"])
    def test_last_iteration_stops_at_the_posteriors(self, monkeypatch, per_ap):
        # a decode of t iterations makes t U denoiser calls and (t - 1) U
        # onsager calls: its last U denoiser calls leave out the estimates,
        # H and m2, and nothing after them runs
        cfg, cb, prior, mc, Y = _desk_at_10db()
        denoise, ons = amp_central.denoise_rows, amp_central.onsager
        calls = {"estimates": [], "onsager": 0}

        def counted_denoise(*args, **kwargs):
            den = denoise(*args, **kwargs)
            calls["estimates"].append(den.x_hat is not None)
            assert (den.x_hat is None) == (den.H is None) == (den.m2 is None)
            return den

        def counted_onsager(*args, **kwargs):
            calls["onsager"] += 1
            return ons(*args, **kwargs)

        monkeypatch.setattr(amp_central, "denoise_rows", counted_denoise)
        monkeypatch.setattr(amp_central, "onsager", counted_onsager)
        t = len(amp_iterate(Y, cb, prior.log_pmf, mc, cfg, per_ap=per_ap)[2]["tau_trace"])
        assert 2 <= t < cfg.T_AMP
        assert calls["estimates"] == [True] * ((t - 1) * cfg.U) + [False] * cfg.U
        assert calls["onsager"] == (t - 1) * cfg.U

    @pytest.mark.parametrize("shape", ["multi_ap", "one_ap"])
    def test_denoiser_without_estimates_keeps_the_rest(self, rng, shape):
        # without estimates the denoiser returns what the benchmark's probes
        # and the recursion's last iteration read, bit for bit
        if shape == "multi_ap":
            R, tau, g, lp, Ec, A = TestRuledDeadRows._spanning(rng, 50, B=3)
        else:
            R, tau, g, lp, Ec, A = TestOneApSecondMoment._blocks(rng, 3)
        full = denoise_rows(R, tau, g, lp, Ec, A)
        last = denoise_rows(R, tau, g, lp, Ec, A, estimates=False)
        assert last.x_hat is None and last.H is None and last.m2 is None
        for name in ("posterior", "log_mc_lik", "degenerate", "weighed", "shrink", "sample_weights"):
            np.testing.assert_array_equal(getattr(last, name), getattr(full, name), err_msg=name)


class TestEstimators:
    def test_map_simple(self):
        post = np.array([[[0.1, 0.7, 0.2]]])
        assert estimate_multiplicities(post)[0, 0] == 1

    def test_tie_breaks_toward_smaller(self):
        post = np.array([[[0.5, 0.5]]])
        assert estimate_multiplicities(post)[0, 0] == 0

    def test_type_normalization(self):
        k = np.array([[1, 0], [1, 2]])
        t, empty = estimate_type(k)
        np.testing.assert_allclose(t, [0.5, 0.5])
        assert not empty

    def test_empty_sentinel(self):
        t, empty = estimate_type(np.zeros((3, 4), dtype=int))
        assert empty
        np.testing.assert_array_equal(t, 0.0)


class TestMcTable:
    def test_deterministic_and_positive(self, desk_cfg, desk_topology):
        a = build_mc_table(desk_cfg, desk_topology, seed=5)
        b = build_mc_table(desk_cfg, desk_topology, seed=5)
        np.testing.assert_array_equal(a, b)
        assert np.all(a > 0)
        assert a.shape == (desk_cfg.U, desk_cfg.K_max, desk_cfg.N_MC, desk_cfg.B)

    def test_cumulative_in_k(self, desk_cfg, desk_topology):
        t = build_mc_table(desk_cfg, desk_topology, seed=2)
        g = t[1]
        assert np.all(np.diff(g, axis=0) > 0)

    def test_samples_inside_zone_bounds(self, desk_cfg, desk_topology):
        # k=1 entries are single-position gammas: bounded per AP by the
        # gamma at the zone point closest to that AP
        t = build_mc_table(desk_cfg, desk_topology, seed=7)
        for u in range(desk_cfg.U):
            x0, y0, x1, y1 = desk_topology.zone_rects[u]
            aps = desk_topology.ap_positions
            closest = np.stack(
                [np.clip(aps[:, 0], x0, x1), np.clip(aps[:, 1], y0, y1)], axis=1
            )
            d = np.linalg.norm(closest - aps, axis=1)
            gmax = 1.0 / (1.0 + (d / desk_cfg.d0) ** desk_cfg.beta)
            assert np.all(t[u, 0] <= gmax[None, :] + 1e-12)
