import json
import tracemalloc
from math import comb

import numpy as np
import pytest
from oracle_utils import (
    compute_msg_probs_reference,
    compute_p_closest,
    detection_integral_quad,
    multiplicity_pmf_full,
)

from tumaloc import priors
from tumaloc.config import SystemConfig, build_topology, desk_preset, paper_preset, zone_of_array
from tumaloc.priors import (
    _PD_BLOCK,
    _detection_integral,
    _falloff_radii,
    _sensor_rule,
    build_prior,
    compute_msg_probs,
    compute_p_active,
    load_or_build_prior,
    prior_cache_key,
)
from tumaloc.scene import _noncentrality_scale, build_quantizer, detection_prob_array, quantize_array
from tumaloc.specfun import binom_logpmf


def _one_zone_cfg(**kw):
    base = dict(
        area_side=50.0,
        zone_grid=(1, 1),
        ap_positions=((25.0, 25.0),),
        A=1,
        M=4,
        K=10,
        T_targets=2,
        K_max=4,
        Ns=10,
        N_MC=50,
    )
    base.update(kw)
    return SystemConfig(**base)


class TestPActive:
    def test_pd_zero_gives_zero(self):
        # gamma so large the false-alarm floor underflows to exactly 0: pd is
        # 1 on a disc of radius 4e-5 m and falls to 0 by about 1.15 times that.
        # For so short a range I = (pi / S^2) int_0^inf Q1(c0 / u, b) du over
        # u = d^2; with Q1 = P(|t + W| > b), t = c0 / u and W standard normal
        # in 2-D, that is (pi c0 / S^2) E[1 / (sqrt(b^2 - w2^2) - w1)]
        # = (pi c0 / (b S^2)) (1 + 3 / (2 b^2) + O(b^-4)).  The disc alone,
        # pi c0 / ((b + 9) S^2), would be about 12 % short.
        cfg = _one_zone_cfg(gamma_threshold=4000.0, P_n=1e6)
        topo = build_topology(cfg)
        b = np.sqrt(cfg.gamma_threshold)
        inner = np.pi * _noncentrality_scale(cfg) / (b * cfg.area_side**2) * (1 + 1.5 / b**2)
        want = 1.0 - (1.0 - inner) ** cfg.T_targets
        # 1 - I rounds to a multiple of 2^-53, 5e-5 of I here
        assert compute_p_active(cfg, topo, n_int=500) == pytest.approx(want, rel=2e-4)

    def test_pd_one_gives_one(self):
        cfg = _one_zone_cfg(P_n=1e-300)
        topo = build_topology(cfg)
        assert compute_p_active(cfg, topo, n_int=500) == pytest.approx(1.0)

    def test_factorized_vs_direct_mc_oracle(self):
        # T = 2 on a tiny area: compare against the direct 2-D MC of the
        # product integral, which does not use the i.i.d. factorization
        cfg = _one_zone_cfg(T_targets=2, Ns=40)
        topo = build_topology(cfg)
        got = compute_p_active(cfg, topo, n_int=60_000)
        rng = np.random.default_rng(99)
        n = 150_000
        s = rng.uniform(0, 50, size=(n, 2))
        p1 = rng.uniform(0, 50, size=(n, 2))
        p2 = rng.uniform(0, 50, size=(n, 2))

        def rowwise(a, b):
            from tumaloc.scene import _detection_noncentrality
            from tumaloc.specfun import marcum_q1

            d2 = ((a - b) ** 2).sum(axis=1)
            out = np.ones(n)
            nz = d2 > 0
            out[nz] = marcum_q1(
                _detection_noncentrality(d2[nz], cfg), np.sqrt(cfg.gamma_threshold)
            )
            return out

        miss = (1.0 - rowwise(s, p1)) * (1.0 - rowwise(s, p2))
        direct = 1.0 - miss.mean()
        se = miss.std() / np.sqrt(n)
        assert got == pytest.approx(direct, abs=max(5 * se, 0.01))

    def test_monotone_in_sensing_blocklength(self):
        cfg = desk_preset()
        topo = build_topology(cfg)
        lo = compute_p_active(cfg.with_updates(Ns=100), topo, n_int=20_000)
        hi = compute_p_active(cfg.with_updates(Ns=1000), topo, n_int=20_000)
        assert hi >= lo


class TestPClosest:
    def test_single_target_is_one(self):
        cfg = _one_zone_cfg(T_targets=1)
        assert compute_p_closest((10.0, 10.0), (20.0, 20.0), cfg, n_int=100, seed=0) == 1.0

    def test_coincident_target_is_one(self):
        cfg = _one_zone_cfg(T_targets=5)
        s = (10.0, 10.0)
        assert compute_p_closest(s, s, cfg, n_int=5000, seed=0) == pytest.approx(1.0)

    def test_t3_vs_direct_mc_oracle(self):
        cfg = _one_zone_cfg(T_targets=3, Ns=40)
        s = np.array([20.0, 25.0])
        p = np.array([28.0, 25.0])
        got = compute_p_closest(s, p, cfg, n_int=200_000, seed=2)
        rng = np.random.default_rng(123)
        n = 150_000
        d_sp = np.sum((s - p) ** 2)
        # direct MC over (p1', p2') of the two-competitor product
        vals = np.ones(n)
        for _ in range(2):
            q = rng.uniform(0, 50, size=(n, 2))
            pd = detection_prob_array(s[None, :], q, cfg)[0]
            closer = ((q - s) ** 2).sum(axis=1) < d_sp
            vals *= 1.0 - pd * closer
        direct = vals.mean()
        se = vals.std() / np.sqrt(n)
        assert got == pytest.approx(direct, abs=max(6 * se, 0.01))


class TestMsgProbs:
    def test_symmetric_zone_equal_cells(self):
        # single central AP, whole area is one zone, 2x2 grid: symmetry
        cfg = _one_zone_cfg(P_n=1e-300, T_targets=3)   # p_d ~ 1 everywhere
        topo = build_topology(cfg)
        quant = build_quantizer(2, cfg.area_side)
        probs = compute_msg_probs(cfg, topo, quant, n_int=8000)
        assert probs.shape == (1, 4)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(probs[0], 0.25, atol=0.03)

    def test_mass_concentrates_where_detectable(self):
        # detection radius ~ a few meters: a sensor in zone 0 (bottom-left
        # quarter) reports targets in its own quantizer cell
        cfg = SystemConfig(
            area_side=100.0,
            zone_grid=(2, 2),
            ap_positions=((50.0, 50.0),),
            A=1,
            M=4,
            K=10,
            T_targets=2,
            K_max=4,
            Ns=10,
            P_n=1e-10,
        )
        topo = build_topology(cfg)
        quant = build_quantizer(2, cfg.area_side)
        probs = compute_msg_probs(cfg, topo, quant, n_int=3000)
        assert probs[0, 0] > 0.9

    def test_direct_mc_oracle_zone0(self):
        # independent per-cell MC with per-pair closest integrals
        cfg = _one_zone_cfg(T_targets=3, Ns=60, M=4)
        topo = build_topology(cfg)
        quant = build_quantizer(2, cfg.area_side)
        got = compute_msg_probs(cfg, topo, quant, n_int=8000)[0]
        rng = np.random.default_rng(7)
        raw = np.zeros(4)
        n_pairs = 800
        for m in range(4):
            cx, cy = quant.grid_points[m]
            s = rng.uniform(0, 50, size=(n_pairs, 2))
            p = np.stack(
                [rng.uniform(cx - 12.5, cx + 12.5, n_pairs),
                 rng.uniform(cy - 12.5, cy + 12.5, n_pairs)],
                axis=1,
            )
            acc = 0.0
            for i in range(n_pairs):
                pd = detection_prob_array(s[i : i + 1], p[i : i + 1], cfg)[0, 0]
                pc = compute_p_closest(s[i], p[i], cfg, n_int=2000, seed=1000 + i)
                acc += pd * pc
            raw[m] = acc / n_pairs
        want = raw / raw.sum()
        np.testing.assert_allclose(got, want, atol=0.05)

    @pytest.mark.parametrize(
        "preset, zone, n_int",
        [(desk_preset, 1, 8000),      # the x-flip of zone 0
         (paper_preset, 7, 2000)],    # the y-flip of zone 1
    )
    def test_direct_mc_oracle_mirrored_zone(self, preset, zone, n_int):
        # a zone that compute_msg_probs fills from its representative, against
        # independent pairs with per-pair closest integrals, compared as the
        # table's mass on the cells whose centres lie in each zone.  A sensor
        # on each cell of a 20 x 20 split of the zone takes 16 targets uniform
        # on the disc of radius 60 m about it: pd is below 4e-7 past 60 m
        cfg = preset()
        topo = build_topology(cfg)
        quant = build_quantizer(cfg.M.bit_length() - 1, cfg.area_side)
        region = zone_of_array(quant.grid_points, topo)
        got = np.bincount(region, weights=compute_msg_probs(cfg, topo, quant, n_int=n_int)[zone],
                          minlength=cfg.U)
        rng = np.random.default_rng(7)
        x0, y0, x1, y1 = topo.zone_rects[zone]
        iy, ix = np.divmod(np.arange(400), 20)
        s = (np.stack([ix, iy], axis=1) + rng.uniform(size=(400, 2))) / 20
        s = np.repeat(np.array([x0, y0]) + s * np.array([x1 - x0, y1 - y0]), 16, axis=0)
        r = 60.0 * np.sqrt(rng.uniform(size=len(s)))
        angle = 2 * np.pi * rng.uniform(size=len(s))
        p = s + r[:, None] * np.stack([np.cos(angle), np.sin(angle)], axis=1)
        raw = np.zeros(cfg.U)
        for i in np.flatnonzero(np.all((p >= 0) & (p <= cfg.area_side), axis=1)):
            pd = detection_prob_array(s[i : i + 1], p[i : i + 1], cfg)[0, 0]
            pc = compute_p_closest(s[i], p[i], cfg, n_int=2000, seed=1000 + i)
            raw[region[quantize_array(quant, p[i : i + 1])[0]]] += pd * pc
        np.testing.assert_allclose(got, raw / raw.sum(), atol=0.05)


class TestMirrorOrbits:
    """Every zone's table is its orbit representative's with the cells mirrored, bit for bit."""

    @pytest.mark.parametrize(
        "make, n_int",
        [
            (desk_preset, 600),
            (paper_preset, 200),
            (lambda: paper_preset(M=2**9), 200),             # gx = 32, gy = 16
            (lambda: desk_preset(zone_grid=(2, 3)), 600),    # zones 0 and 1 drawn
            (_one_zone_cfg, 600),
        ],
    )
    def test_zone_is_mirrored_representative(self, make, n_int):
        cfg = make()
        topo = build_topology(cfg)
        quant = build_quantizer(cfg.M.bit_length() - 1, cfg.area_side)
        grid = compute_msg_probs(cfg, topo, quant, n_int=n_int).reshape(cfg.U, quant.gy, quant.gx)
        rows, cols = cfg.zone_grid
        for u in range(cfg.U):
            iy, ix = divmod(u, cols)
            ry, rx = min(iy, rows - 1 - iy), min(ix, cols - 1 - ix)
            want = grid[ry * cols + rx]
            if iy != ry:
                want = want[::-1]
            if ix != rx:
                want = want[:, ::-1]
            np.testing.assert_array_equal(grid[u], want)
        # the representatives are estimated, not copied from one another
        reps = {min(iy, rows - 1 - iy) * cols + min(ix, cols - 1 - ix)
                for iy in range(rows) for ix in range(cols)}
        assert len({grid[r].tobytes() for r in reps}) == len(reps)


class TestDetectionIntegral:
    """The single-target detection integral ``I(s)`` behind ``p_active``, by its radial rule."""

    @staticmethod
    def _sensors(side, seed):
        # uniform positions, then corners, points on each edge, points a few
        # mm to cm inside an edge or a corner, and the centre
        rng = np.random.default_rng(seed)
        u = rng.uniform(0, side, size=(40, 2))
        f = np.array([
            [0, 0], [1, 0], [0, 1], [1, 1],
            [0, 0.3], [1, 0.7], [0.4, 0], [0.55, 1],
            [1e-5, 2e-5], [1 - 3e-5, 0.2], [0.01, 0.6], [0.6, 1 - 1e-4],
            [0.5, 0.5], [0.25, 0.25], [0.1, 0.9], [0.05, 0.999],
        ])
        return np.concatenate([u, side * f])

    @pytest.mark.parametrize("preset", [desk_preset, paper_preset], ids=["desk", "paper"])
    def test_matches_quad_oracle(self, preset):
        cfg = preset()
        s = self._sensors(cfg.area_side, seed=11)
        want = [detection_integral_quad(p, cfg) for p in s]
        np.testing.assert_allclose(_detection_integral(s, cfg), want, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("preset", [desk_preset, paper_preset], ids=["desk", "paper"])
    def test_eight_symmetric_images_agree(self, preset):
        cfg = preset()
        S = cfg.area_side
        s = self._sensors(S, seed=12)
        x, y = s.T
        images = [(x, y), (S - x, y), (x, S - y), (S - x, S - y),
                  (y, x), (S - y, x), (y, S - x), (S - y, S - x)]
        got = np.stack([_detection_integral(np.stack(p, axis=1), cfg) for p in images])
        np.testing.assert_allclose(got, np.broadcast_to(got[0], got.shape), rtol=1e-14, atol=0)

    def test_batching_does_not_change_the_result(self, monkeypatch):
        cfg = desk_preset()
        s = self._sensors(cfg.area_side, seed=13)
        want = _detection_integral(s, cfg)
        # one sensor per batch, and batches that do not divide the sensors
        for block in (1, 5 * 260):
            monkeypatch.setattr(priors, "_PD_BLOCK", block)
            np.testing.assert_array_equal(_detection_integral(s, cfg), want)


class TestSensorRule:
    """``p_active``'s outer mean over sensor positions, by the Gauss-Legendre rule on the square's eighth."""

    @staticmethod
    def _equal_pieces(cfg, n_pieces=40, n_nodes=8):
        # the same mean by a composite rule on the quarter [0, S/2]^2 with
        # n_pieces equal pieces a side, which shares no breakpoint with the
        # rule; I(s) is taken on x >= y and mirrored to x < y
        half = cfg.area_side / 2
        t, w = np.polynomial.legendre.leggauss(n_nodes)
        edges = np.linspace(0.0, half, n_pieces + 1)
        x = (edges[:-1, None] + np.diff(edges)[:, None] * (t + 1) / 2).ravel()
        wx = (np.diff(edges)[:, None] * w / 2).ravel() / half
        X, Y = np.meshgrid(x, x, indexing="ij")
        lower = X >= Y
        mirrored = _detection_integral(np.stack([X[lower], Y[lower]], axis=1), cfg)
        inner = np.empty_like(X)
        inner[lower] = mirrored
        inner.T[lower] = mirrored
        return float(np.sum(np.outer(wx, wx) * (1.0 - (1.0 - inner) ** cfg.T_targets)))

    @pytest.mark.parametrize(
        "cfg",
        [desk_preset(), paper_preset(), _one_zone_cfg(), _one_zone_cfg(Ns=300)],
        ids=["desk", "paper", "one-zone", "one-zone-Ns300"],
    )
    def test_matches_equal_piece_rule(self, cfg):
        got = compute_p_active(cfg, build_topology(cfg))
        assert got == pytest.approx(self._equal_pieces(cfg), rel=0, abs=1e-10)

    def test_splits_at_far_side_of_falloff(self):
        # a fall-off radius in (S/2, S) puts a breakpoint at S - r on each axis
        cfg = _one_zone_cfg(Ns=300)
        r = _falloff_radii(cfg)
        far = cfg.area_side - r[(r > cfg.area_side / 2) & (r < cfg.area_side)]
        assert far.size == 2
        pieces = np.unique(_sensor_rule(cfg)[0]).reshape(-1, priors._SENSOR_NODES)
        # no piece has nodes on both sides of either
        for cut in far:
            assert np.all((pieces < cut).all(axis=1) | (pieces > cut).all(axis=1))


class TestBlockedIntegrals:
    """The blocked message-probability integral against its one-pass reference, bit for bit."""

    @staticmethod
    def _setup(preset, **kw):
        cfg = preset(**kw)
        return cfg, build_topology(cfg), build_quantizer(cfg.M.bit_length() - 1, cfg.area_side)

    @pytest.mark.parametrize(
        "preset, n_int, kw, partial",
        [
            (desk_preset, 1000, {}, True),                 # 125 sensors a zone
            (desk_preset, 600, {"T_targets": 1}, True),    # no closer competitor: J^0
            (paper_preset, 200, {}, False),                # 64 sensors in each of 9 zones, M = 1024
        ],
    )
    def test_msg_probs_match_reference(self, preset, n_int, kw, partial):
        cfg, topo, quant = self._setup(preset, **kw)
        n_sensors = max(64, n_int // 8)
        n_targets = max(4096, 4 * cfg.M, int(np.ceil(n_int * cfg.M / n_sensors)))
        # whether each zone ends on a batch smaller than the others
        assert (n_sensors % max(1, _PD_BLOCK // n_targets) != 0) == partial
        got = compute_msg_probs(cfg, topo, quant, n_int=n_int)
        np.testing.assert_array_equal(got, compute_msg_probs_reference(cfg, topo, quant, n_int=n_int))

    @pytest.mark.parametrize("n_int", [0, -5])
    def test_nonpositive_sample_count_rejected(self, n_int):
        cfg, topo, quant = self._setup(_one_zone_cfg)
        with pytest.raises(ValueError, match="n_int"):
            compute_msg_probs(cfg, topo, quant, n_int=n_int)
        with pytest.raises(ValueError, match="n_int"):
            compute_p_active(cfg, topo, n_int=n_int)


class TestBuildPrior:
    def test_single_binomial_collapse(self):
        # U=1, p_active=1, K=2, p(m|u)=0.5 -> Bin(2, 0.5)
        pmf = multiplicity_pmf_full(K=2, U=1, p_active=1.0, msg_prob=np.array([0.5]))
        np.testing.assert_allclose(pmf[0], [0.25, 0.5, 0.25], atol=1e-14)

    def test_inactive_point_mass(self):
        pmf = multiplicity_pmf_full(K=5, U=3, p_active=0.0, msg_prob=np.array([0.3]))
        np.testing.assert_allclose(pmf[0], [1, 0, 0, 0, 0, 0], atol=0)

    def test_exhaustive_enumeration_oracle(self, rng):
        # K=4, U=2: sum over all (Ka, Kau, k) triples with exact binomials
        K, U = 4, 2
        p_active = 0.63
        for _ in range(10):
            pm = float(rng.uniform(0, 1))
            want = np.zeros(K + 1)
            for Ka in range(K + 1):
                pKa = comb(K, Ka) * p_active**Ka * (1 - p_active) ** (K - Ka)
                for Kau in range(Ka + 1):
                    pKau = comb(Ka, Kau) * 0.5**Ka
                    for k in range(Kau + 1):
                        pk = comb(Kau, k) * pm**k * (1 - pm) ** (Kau - k)
                        want[k] += pk * pKau * pKa
            got = multiplicity_pmf_full(K, U, p_active, np.array([pm]))[0]
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_untruncated_sums_to_one(self, rng):
        pm = rng.uniform(0, 0.2, size=(3, 5))
        pmf = multiplicity_pmf_full(K=40, U=3, p_active=0.4, msg_prob=pm)
        np.testing.assert_allclose(pmf.sum(axis=-1), 1.0, atol=1e-10)

    def test_prior_mean_consistency(self, rng):
        # law of total expectation through the binomial chain
        K, U, pa = 30, 4, 0.37
        pm = rng.dirichlet(np.ones(6), size=U)        # rows sum to 1
        pmf = multiplicity_pmf_full(K, U, pa, pm)
        ks = np.arange(K + 1)
        total_mean = float((pmf * ks).sum())
        assert total_mean == pytest.approx(K * pa, rel=1e-9)

    def test_build_prior_truncates_without_renormalizing(self, rng):
        cfg = _one_zone_cfg(K=10, K_max=3)
        pm = np.full((1, cfg.M), 1.0 / cfg.M)
        prior = build_prior(cfg, 0.8, pm)
        assert prior.pmf.shape == (1, cfg.M, 4)
        full = multiplicity_pmf_full(cfg.K, cfg.U, 0.8, pm)
        np.testing.assert_array_equal(prior.pmf, full[..., :4])
        assert prior.pmf[0, 0].sum() < 1.0  # truncation leaves mass out


def _kept_oracle(cfg, p_active, pm):
    """The oracle's first K_max + 1 columns, one zone at a time to bound its memory."""
    return np.stack([multiplicity_pmf_full(cfg.K, cfg.U, p_active, row)[:, : cfg.K_max + 1]
                     for row in pm])


class TestBuildPriorKeptColumns:
    """``build_prior`` evaluates only k <= K_max and checks the row sums with the closed-form tail."""

    @pytest.mark.parametrize(
        "cfg",
        [desk_preset(), paper_preset(), paper_preset(M=4096)],
        ids=["desk", "paper", "M=4096"],
    )
    def test_bit_equal_to_full_oracle_on_preset_shapes(self, cfg, rng):
        pm = rng.dirichlet(np.ones(cfg.M), size=cfg.U)
        prior = build_prior(cfg, 0.57, pm)
        assert prior.pmf.shape == (cfg.U, cfg.M, cfg.K_max + 1)
        np.testing.assert_array_equal(prior.pmf, _kept_oracle(cfg, 0.57, pm))

    @pytest.mark.parametrize("p_active", [0.0, 0.8, 1.0])
    @pytest.mark.parametrize("K_max", [3, 10], ids=["K_max<K", "K_max=K"])
    def test_bit_equal_on_edge_cases(self, p_active, K_max):
        # exact 0 and 1 message probabilities put q on both ends of [0, 1]
        cfg = _one_zone_cfg(K=10, K_max=K_max, zone_grid=(2, 1))
        pm = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.5, 0.5, 0.0]])
        prior = build_prior(cfg, p_active, pm)
        np.testing.assert_array_equal(prior.pmf, _kept_oracle(cfg, p_active, pm))

    def test_scaled_kept_entry_fails_the_check(self, monkeypatch):
        cfg = _one_zone_cfg(K=10, K_max=3)
        pm = np.full((1, cfg.M), 1.0 / cfg.M)
        build_prior(cfg, 0.8, pm)                # unscaled: passes

        def scaled(k, n, p):
            out = binom_logpmf(k, n, p)
            # the k = 0 entry, 0.8**10 = 0.107, times 1 + 1e-9: its row sum moves by 1.07e-10
            out[0, 0, 0] += np.log1p(1e-9)
            return out

        monkeypatch.setattr(priors, "binom_logpmf", scaled)
        with pytest.raises(AssertionError, match="sum to 1"):
            build_prior(cfg, 0.8, pm)

    def test_dropped_tail_fails_the_check(self, monkeypatch):
        cfg = _one_zone_cfg(K=10, K_max=3)
        pm = np.full((1, cfg.M), 1.0 / cfg.M)
        monkeypatch.setattr(priors, "bdtrc", lambda k, n, p: np.zeros_like(p))
        with pytest.raises(AssertionError, match="sum to 1"):
            build_prior(cfg, 0.8, pm)

    def test_peak_memory_at_4096_messages(self, rng):
        # evaluating every k = 0..K took about 0.5 GB at this shape
        cfg = paper_preset(M=4096)
        pm = rng.dirichlet(np.ones(cfg.M), size=cfg.U)
        tracemalloc.start()
        try:
            build_prior(cfg, 0.57, pm)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20


class TestPriorCache:
    def test_roundtrip_and_key_stability(self, tmp_path):
        cfg = _one_zone_cfg(M=4, K=6, K_max=3, N_MC=20)
        topo = build_topology(cfg)
        quant = build_quantizer(2, cfg.area_side)
        first = load_or_build_prior(
            cfg, topo, quant, cache_dir=str(tmp_path), n_active=2000, n_cell=500
        )
        files = list(tmp_path.glob("prior_*.json"))
        assert len(files) == 1
        again = load_or_build_prior(
            cfg, topo, quant, cache_dir=str(tmp_path), n_active=2000, n_cell=500
        )
        np.testing.assert_array_equal(first.pmf, again.pmf)
        assert first.p_active == again.p_active

    @staticmethod
    def _assert_rebuilt(tmp_path, corrupt):
        """Overwrite the cache file with ``corrupt(text)``: the load rebuilds
        the prior and replaces the file with the one it first wrote."""
        cfg = _one_zone_cfg(M=4, K=6, K_max=3, N_MC=20)
        topo = build_topology(cfg)
        quant = build_quantizer(2, cfg.area_side)
        kw = dict(cache_dir=str(tmp_path), n_active=2000, n_cell=500)
        built = load_or_build_prior(cfg, topo, quant, **kw)
        (path,) = tmp_path.glob("prior_*.json")
        text = path.read_text()
        path.write_bytes(corrupt(text))
        again = load_or_build_prior(cfg, topo, quant, **kw)
        np.testing.assert_array_equal(again.pmf, built.pmf)
        assert again.p_active == built.p_active
        assert path.read_text() == text
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_truncated_file_is_rebuilt(self, tmp_path):
        # an interrupted write leaves a partial file
        self._assert_rebuilt(tmp_path, lambda text: text[: len(text) // 2].encode())

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda doc: b"\xff\xfe not utf-8",
            lambda doc: json.dumps([doc]).encode(),
            lambda doc: json.dumps({k: v for k, v in doc.items() if k != "msg_probs"}).encode(),
            lambda doc: json.dumps(doc | {"msg_probs": [row[:2] for row in doc["msg_probs"]]}).encode(),
            # entries all in [0, 1], but each zone row sums to less than 1
            lambda doc: json.dumps(doc | {"msg_probs": [[0.0] + row[1:] for row in doc["msg_probs"]]}).encode(),
        ],
        ids=["invalid-utf8", "json-array", "no-msg-probs", "msg-probs-shape", "msg-probs-row-sum"],
    )
    def test_malformed_file_is_rebuilt(self, tmp_path, corrupt):
        # files that parse, or not, but hold no well-formed prior for the key
        self._assert_rebuilt(tmp_path, lambda text: corrupt(json.loads(text)))

    def test_file_keeps_integrals_and_old_pmf_is_ignored(self, tmp_path):
        # the pmf is rebuilt on a hit; a file written with a pmf table still loads
        cfg = _one_zone_cfg(M=4, K=6, K_max=3, N_MC=20)
        topo = build_topology(cfg)
        quant = build_quantizer(2, cfg.area_side)
        kw = dict(cache_dir=str(tmp_path), n_active=2000, n_cell=500)
        built = load_or_build_prior(cfg, topo, quant, **kw)
        (path,) = tmp_path.glob("prior_*.json")
        doc = json.loads(path.read_text())
        assert set(doc) == {"key", "p_active", "msg_probs", "K_max"}
        path.write_text(json.dumps(doc | {"pmf": np.zeros_like(built.pmf).tolist()}))
        text = path.read_text()
        again = load_or_build_prior(cfg, topo, quant, **kw)
        np.testing.assert_array_equal(again.pmf, built.pmf)
        assert path.read_text() == text

    def test_key_changes_with_sensing_fields(self):
        cfg = _one_zone_cfg()
        k1 = prior_cache_key(cfg, 100)
        k2 = prior_cache_key(cfg.with_updates(Ns=999), 100)
        k3 = prior_cache_key(cfg.with_updates(Ec=2.0), 100)
        assert k1 != k2
        assert k1 == k3  # Ec is not sensing-relevant
