import numpy as np
import pytest

from oracle_utils import (
    effective_channels_dense,
    gen_codebook_reference,
    raw_gaussian_codebook,
    synthesize_dense,
)
from tumaloc import airlink
from tumaloc.airlink import (
    TransmissionRound,
    effective_channels,
    gen_codebook,
    sample_fading,
    synthesize_rx,
    uplink,
)
from tumaloc.config import build_topology, desk_preset, lsfc_vector, paper_preset


class TestCodebook:
    def test_unit_column_norms(self, tiny_cfg):
        # single precision: the last rounding moves each real and imaginary
        # part by at most 2^-24 relative, from a column of unit norm up to
        # float64 roundings, so | ||c|| - 1 | <= 2^-24 (gen_codebook)
        for cfg in (tiny_cfg, desk_preset(), paper_preset()):
            cb = gen_codebook(cfg, seed=5)
            assert cb.shape == (cfg.Nc, cfg.U, cfg.M) and cb.dtype == np.complex64
            norms = np.linalg.norm(cb.astype(complex), axis=0)
            bound = 2.0**-24 + 4 * cfg.Nc * np.finfo(float).eps
            assert np.abs(norms - 1.0).max() <= bound, np.abs(norms - 1.0).max()

    def test_determinism(self, tiny_cfg):
        a = gen_codebook(tiny_cfg, seed=9)
        b = gen_codebook(tiny_cfg, seed=9)
        assert np.array_equal(a, b)
        c = gen_codebook(tiny_cfg, seed=10)
        assert not np.array_equal(a, c)

    def test_cross_column_coherence(self, desk_cfg):
        # sample-statistics oracle: inner products of distinct unit-norm
        # Gaussian columns have std ~ 1/sqrt(Nc)
        cfg = desk_cfg.with_updates(Nc=1000)
        cb = gen_codebook(cfg, seed=2)
        sub = cb.reshape(cfg.Nc, -1)[:, :128]
        gram = sub.conj().T @ sub
        off = gram[~np.eye(128, dtype=bool)]
        std = np.sqrt(np.mean(np.abs(off) ** 2))
        assert std == pytest.approx(1.0 / np.sqrt(cfg.Nc), rel=0.05)

    def test_raw_variant_column_variance(self, desk_cfg):
        cb = raw_gaussian_codebook(desk_cfg, seed=3)
        norms2 = np.linalg.norm(cb, axis=0) ** 2
        assert norms2.mean() == pytest.approx(1.0, rel=0.05)
        assert norms2.std() > 1e-3  # genuinely unnormalized

    @pytest.mark.parametrize("seed", [1, 7])
    @pytest.mark.parametrize(
        "make_cfg",
        [desk_preset, paper_preset, lambda: paper_preset(Nc=1900), lambda: paper_preset(Nc=100)],
        ids=["desk", "paper", "paper-Nc1900", "paper-Nc100"],
    )
    def test_bit_identical_to_whole_array_construction(self, make_cfg, seed):
        cfg = make_cfg()
        got = gen_codebook(cfg, seed)
        want = gen_codebook_reference(cfg, seed)
        assert got.shape == want.shape == (cfg.Nc, cfg.U, cfg.M)
        assert got.dtype == want.dtype == np.complex64
        assert np.array_equal(got.view(np.uint32), want.view(np.uint32))

    def test_block_partitioning(self, tiny_cfg):
        # zone u's codewords are columns u M .. (u+1) M - 1 of the flat (Nc, U M) matrix
        cb = gen_codebook(tiny_cfg, seed=1)
        flat = cb.reshape(tiny_cfg.Nc, tiny_cfg.U * tiny_cfg.M)
        for u in range(tiny_cfg.U):
            np.testing.assert_array_equal(cb[:, u], flat[:, u * tiny_cfg.M : (u + 1) * tiny_cfg.M])


class TestFading:
    def test_per_ap_variance_matches_lsfc(self, desk_cfg, desk_topology):
        rho = np.array([70.0, 55.0])
        n = 100_000
        h = sample_fading(np.tile(rho, (n, 1)), desk_topology, desk_cfg, seed=11)
        gamma = lsfc_vector(rho, desk_topology, desk_cfg)
        emp = (np.abs(h) ** 2).mean(axis=0).reshape(desk_cfg.B, desk_cfg.A).mean(axis=1)
        # 3 sigma of the chi-square sample-variance estimate
        tol = 3 * gamma / np.sqrt(n * desk_cfg.A)
        assert np.all(np.abs(emp - gamma) < tol)

    def test_independent_users(self, desk_cfg, desk_topology):
        pos = np.tile([50.0, 50.0], (2, 1))
        hs = []
        for seed in range(400):
            h = sample_fading(pos, desk_topology, desk_cfg, seed=seed)
            hs.append(h)
        hs = np.array(hs)  # (n, 2, F)
        corr = np.mean(hs[:, 0, :] * np.conj(hs[:, 1, :]))
        power = np.mean(np.abs(hs[:, 0, :]) ** 2)
        assert abs(corr) < 5 * power / np.sqrt(400 * desk_cfg.F)

    def test_zero_gamma_limit(self, desk_cfg, desk_topology):
        # synthetic far-field limit: gamma ~ (d/d0)^-beta tiny, so h ~ 0
        cfg = desk_cfg.with_updates(d0=1e-6)
        h = sample_fading(np.array([[100.0, 100.0]]), desk_topology, cfg, seed=0)
        assert np.max(np.abs(h)) < 1e-6


def _round(zones, messages, U, M, positions=None):
    """A round from its user table; positions default to the origin."""
    zones = np.asarray(zones, dtype=int)
    if positions is None:
        positions = np.zeros((len(zones), 2))
    return TransmissionRound(
        zones=zones, messages=np.asarray(messages, dtype=int),
        positions=np.asarray(positions, dtype=float), U=U, M=M,
    )


def _dense(rnd, fading):
    """``effective_channels`` scattered into the (U, M, F) array, zero on the rows not sent."""
    sent, X_sent = effective_channels(rnd, fading)
    X = np.zeros((rnd.U * rnd.M, X_sent.shape[1]), dtype=complex)
    X[sent] = X_sent
    return X.reshape(rnd.U, rnd.M, -1)


class TestEffectiveChannels:
    def test_zero_multiplicity_rows_exactly_zero(self):
        rnd = _round([0], [1], U=2, M=3)
        sent, X_sent = effective_channels(rnd, np.array([[1 + 1j, 2.0]]))
        np.testing.assert_array_equal(sent, [1])     # only the sent row is built
        assert X_sent.shape == (1, 2)
        X = _dense(rnd, np.array([[1 + 1j, 2.0]]))
        assert np.all(X[0, 0] == 0) and np.all(X[0, 2] == 0)
        assert np.all(X[1] == 0)

    def test_single_user_row(self):
        rnd = _round([0], [0], U=1, M=2)
        h = np.array([[3.0 - 1j, 0.5j]])
        X = _dense(rnd, h)
        np.testing.assert_array_equal(X[0, 0], h[0])

    def test_collision_sums_elementwise(self):
        rnd = _round([0, 0], [1, 1], U=1, M=2, positions=[np.zeros(2), np.ones(2)])
        h1 = np.array([1 + 2j, -1.0])
        h2 = np.array([0.5j, 4.0])
        X = _dense(rnd, np.stack([h1, h2]))
        np.testing.assert_allclose(X[0, 1], h1 + h2)

    def test_sent_rows_equal_the_dense_array(self, rng):
        # users of several zones, colliding in some rows and out of row
        # order: the sent rows in increasing flat index u M + m, each the
        # dense array's row bit for bit (users added in round order)
        U, M, F = 3, 5, 4
        zones = rng.integers(0, U, size=12)
        ms = rng.integers(0, M, size=12)
        rnd = _round(zones, ms, U, M, rng.uniform(0, 10, (12, 2)))
        h = rng.normal(size=(12, F)) + 1j * rng.normal(size=(12, F))
        sent, X_sent = effective_channels(rnd, h)
        dense = effective_channels_dense(rnd, h).reshape(U * M, F)
        np.testing.assert_array_equal(sent, np.flatnonzero(rnd.multiplicities.reshape(-1)))
        np.testing.assert_array_equal(X_sent, dense[sent])
        assert len(sent) < U * M and not dense[np.setdiff1d(np.arange(U * M), sent)].any()

    def test_permutation_invariance(self, rng):
        ms = rng.integers(0, 4, size=6)
        pos = rng.uniform(0, 10, (6, 2))
        h = rng.normal(size=(6, 5)) + 1j * rng.normal(size=(6, 5))
        zones = np.zeros(6, dtype=int)
        X1 = _dense(_round(zones, ms, 1, 4, pos), h)
        perm = rng.permutation(6)
        X2 = _dense(_round(zones, ms[perm], 1, 4, pos[perm]), h[perm])
        np.testing.assert_allclose(X1, X2, atol=1e-12)

    def test_multiplicity_bookkeeping(self, rng):
        ms = rng.integers(0, 6, size=9)
        rnd = _round(np.zeros(9, dtype=int), ms, 1, 6, rng.uniform(0, 10, (9, 2)))
        h = rng.normal(size=(9, 3)) + 1j * rng.normal(size=(9, 3))
        X = _dense(rnd, h)
        k = rnd.multiplicities[0]
        support = np.any(X[0] != 0, axis=1)
        np.testing.assert_array_equal(support, k > 0)
        assert rnd.K_a == 9
        assert rnd.true_type.sum() == pytest.approx(1.0)

    def test_misaligned_inputs_rejected(self):
        rnd = _round([0, 0], [0, 1], U=1, M=2)
        with pytest.raises(ValueError):
            effective_channels(rnd, np.ones((1, 4), dtype=complex))


class TestSynthesizeRx:
    def test_zero_energy_gives_pure_noise(self, tiny_cfg):
        cfg = tiny_cfg.with_updates(Ec=1e-300)
        cb = gen_codebook(cfg, seed=0)
        X = np.ones((cfg.U, cfg.M, cfg.F), dtype=complex)
        Y = synthesize_dense(cb, X, cfg, seed=0)
        emp = np.mean(np.abs(Y) ** 2)
        assert emp == pytest.approx(cfg.sigma_w2, rel=0.05)

    def test_noiseless_rank_one(self, tiny_cfg):
        cfg = tiny_cfg.with_updates(sigma_w2=1e-300, Ec=4.0)
        cb = gen_codebook(cfg, seed=1)
        X = np.zeros((cfg.U, cfg.M, cfg.F), dtype=complex)
        h = np.arange(1, cfg.F + 1) + 0.5j
        X[0, 3] = h
        Y = synthesize_dense(cb, X, cfg, seed=1)
        want = 2.0 * np.outer(cb[:, 0, 3], h)
        np.testing.assert_allclose(Y, want, atol=1e-10)
        assert np.linalg.matrix_rank(Y, tol=1e-8) == 1

    def test_energy_budget(self, tiny_cfg, rng):
        cfg = tiny_cfg
        X = rng.normal(size=(cfg.U, cfg.M, cfg.F)) + 1j * rng.normal(
            size=(cfg.U, cfg.M, cfg.F)
        )
        sig_energy = cfg.Ec * np.sum(np.abs(X) ** 2)
        noise_energy = cfg.Nc * cfg.F * cfg.sigma_w2
        vals = []
        for seed in range(30):
            cb = gen_codebook(cfg, seed=seed)
            Y = synthesize_dense(cb, X, cfg, seed=seed)
            vals.append(np.sum(np.abs(Y) ** 2))
        got = np.mean(vals)
        want = sig_energy + noise_energy
        assert got == pytest.approx(want, rel=0.1)

    def test_forward_model_linearity(self, tiny_cfg, rng):
        cfg = tiny_cfg.with_updates(sigma_w2=1e-300)
        cb = gen_codebook(cfg, seed=4)
        X = rng.normal(size=(cfg.U, cfg.M, cfg.F)) * (1 + 0j)
        Y1 = synthesize_dense(cb, X, cfg, seed=4)
        Y3 = synthesize_dense(cb, 3.0 * X, cfg, seed=4)
        np.testing.assert_allclose(Y3, 3.0 * Y1, rtol=1e-12, atol=1e-12)

    def test_sent_rows_vs_dense_product(self, tiny_cfg, rng):
        # three sent codewords, one with a channel that is purely imaginary
        # and one with a single nonzero entry: the noise is the documented
        # stream bit for bit, and the signal is sqrt(Ec) entries @ X up to
        # the summation order of the S sent terms and the two scalings:
        # |dY| <= 2 (S + 2) eps sqrt(Ec) |C| @ |X| + eps |Y|
        cfg = tiny_cfg.with_updates(Ec=2.5)
        Nc, F = cfg.Nc, cfg.F
        cb = gen_codebook(cfg, seed=5)
        X = np.zeros((cfg.U, cfg.M, F), dtype=complex)
        X[0, 1] = rng.normal(size=F) + 1j * rng.normal(size=F)
        X[2, 5] = 1j * rng.normal(size=F)
        X[3, 0, 1] = 0.5
        noise = airlink.substream(5, airlink.STREAM_NOISE)
        w = (noise.standard_normal((Nc, F)) + 1j * noise.standard_normal((Nc, F))) * np.sqrt(
            cfg.sigma_w2 / 2.0
        )
        np.testing.assert_array_equal(synthesize_rx(cb, np.zeros(0, dtype=int), np.zeros((0, F)), cfg, seed=5), w)
        Xf = X.reshape(cfg.U * cfg.M, F)
        C = cb.reshape(Nc, cfg.U * cfg.M)
        want = np.sqrt(cfg.Ec) * (C @ Xf) + w
        sent = np.array([0 * cfg.M + 1, 2 * cfg.M + 5, 3 * cfg.M + 0])
        got = synthesize_rx(cb, sent, Xf[sent], cfg, seed=5)
        eps = np.finfo(float).eps
        bound = 2 * (3 + 2) * eps * np.sqrt(cfg.Ec) * (np.abs(C) @ np.abs(Xf))
        assert np.all(np.abs(got - want) <= bound + eps * np.abs(want))

    def test_shape_mismatch_rejected(self, tiny_cfg):
        cfg = tiny_cfg
        cb = gen_codebook(cfg, seed=0)
        sent, X = np.array([0, 3]), np.zeros((2, cfg.F), dtype=complex)
        bad_cases = [
            (cb, sent, X[:1]),                                                 # one channel row for two codewords
            (cb, sent, np.zeros((2, 1, cfg.F), dtype=complex)),                # channels, not (rows, F)
            (gen_codebook(cfg.with_updates(Nc=cfg.Nc + 1), seed=0), sent, X),  # codebook, wrong Nc
            (cb.reshape(cfg.Nc, cfg.M, cfg.U), sent, X),                       # codebook, wrong (U, M)
        ]
        for codebook, rows, channels in bad_cases:
            with pytest.raises(ValueError):
                synthesize_rx(codebook, rows, channels, cfg, seed=0)


class TestUplink:
    def test_composes_fading_channels_and_synthesis(self, tiny_cfg):
        # users fade in zone order: zone 0's two users take the first two rows
        cfg = tiny_cfg
        topo = build_topology(cfg)
        pos = np.array([[10.0, 20.0], [15.0, 5.0], [30.0, 40.0]])
        rnd = _round([0, 0, 2], [1, 1, 5], cfg.U, cfg.M, pos)
        cb = gen_codebook(cfg, seed=3)
        Y = uplink(rnd, cb, topo, cfg, seed=3)
        sent, want_X = effective_channels(rnd, sample_fading(pos, topo, cfg, seed=3))
        np.testing.assert_array_equal(Y, synthesize_rx(cb, sent, want_X, cfg, seed=3))
        # the sent rows' product is the dense array's, bit for bit
        dense = effective_channels_dense(rnd, sample_fading(pos, topo, cfg, seed=3))
        np.testing.assert_array_equal(Y, synthesize_dense(cb, dense, cfg, seed=3))

    def test_empty_round_gives_noise_only(self, tiny_cfg):
        cfg = tiny_cfg
        rnd = _round([], [], cfg.U, cfg.M)
        cb = gen_codebook(cfg, seed=4)
        Y = uplink(rnd, cb, build_topology(cfg), cfg, seed=4)
        assert rnd.K_a == 0 and not rnd.multiplicities.any() and not rnd.true_type.any()
        X = np.zeros((cfg.U, cfg.M, cfg.F), dtype=complex)
        np.testing.assert_array_equal(Y, synthesize_dense(cb, X, cfg, seed=4))
        assert Y.shape == (cfg.Nc, cfg.F) and np.all(Y != 0)
