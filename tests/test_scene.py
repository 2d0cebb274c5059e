import warnings

import numpy as np
import pytest

from oracle_utils import detection_prob_array_reference, quantize
from tumaloc.airlink import substream
from tumaloc.config import ConfigError, SystemConfig, build_topology, desk_preset, paper_preset
from tumaloc.priors import _PD_BLOCK
from tumaloc.scene import (
    Scene,
    _detection_noncentrality,
    _noncentrality_scale,
    _pd_table,
    build_quantizer,
    detection_prob_array,
    messages_of,
    quantize_array,
    sample_scene,
    sense_all,
)
from tumaloc.specfun import marcum_q1


def _steep_cfg():
    """A link budget whose pd falls from 1 to 0 within 0.1 mm, where the quintic leaves [0, 1]."""
    return SystemConfig(area_side=50.0, zone_grid=(1, 1), ap_positions=((25.0, 25.0),),
                        A=1, M=4, K=10, T_targets=2, K_max=4, Ns=10, N_MC=50,
                        gamma_threshold=4000.0, P_n=1e6)


def _steep_radii():
    """One sensor at the origin and targets on 200 000 log-spaced radii along x."""
    r = np.geomspace(3e-5, 70.0, 200_000)
    return np.zeros((1, 2)), np.stack([r, np.zeros_like(r)], axis=1)


@pytest.fixture(scope="module")
def paper_cfg():
    return paper_preset()


@pytest.fixture(scope="module")
def paper_topo(paper_cfg):
    return build_topology(paper_cfg)


class TestSampleScene:
    def test_zero_sensors(self, paper_cfg, paper_topo):
        cfg = paper_cfg.with_updates(K=0, K_max=0)
        sc = sample_scene(cfg, paper_topo, seed=0)
        assert sc.sensors.shape == (0, 2)

    def test_deterministic_under_seed(self, paper_cfg, paper_topo):
        a = sample_scene(paper_cfg, paper_topo, seed=7)
        b = sample_scene(paper_cfg, paper_topo, seed=7)
        assert np.array_equal(a.targets, b.targets)
        assert np.array_equal(a.sensors, b.sensors)

    def test_per_zone_counts_multinomial(self, paper_cfg, paper_topo):
        counts = np.zeros(9)
        n_seeds = 200
        for seed in range(n_seeds):
            sc = sample_scene(paper_cfg, paper_topo, seed=seed)
            counts += np.bincount(sc.sensor_zones, minlength=9)
        n = n_seeds * paper_cfg.K
        sigma = np.sqrt(n * (1 / 9) * (8 / 9))
        assert np.all(np.abs(counts - n / 9) < 4 * sigma)


def _pd(sensor, target, cfg):
    """``detection_prob_array`` on the single pair (sensor, target)."""
    s = np.asarray(sensor, float).reshape(1, 2)
    p = np.asarray(target, float).reshape(1, 2)
    return float(detection_prob_array(s, p, cfg)[0, 0])


class TestDetectionProb:
    def test_far_limit_is_false_alarm_floor(self, paper_cfg):
        # p_fa = exp(-gamma / 2) = 1e-8 at gamma = 36.84
        p_far = _pd((0.0, 0.0), (0.0, 1e9), paper_cfg)
        p_fa = np.exp(-paper_cfg.gamma_threshold / 2)
        assert p_far == pytest.approx(p_fa, rel=1e-3)
        assert p_fa == pytest.approx(1e-8, rel=2e-3)

    def test_coincident_limit_is_one(self, paper_cfg):
        assert _pd((5.0, 5.0), (5.0, 5.0), paper_cfg) == 1.0
        assert _pd((5.0, 5.0), (5.0, 5.0 + 1e-9), paper_cfg) == pytest.approx(1.0)

    def test_paper_constants_at_30m_vs_marcum_oracle(self, paper_cfg):
        # direct re-evaluation through the Marcum-Q implementation validated
        # against quadrature in test_specfun
        d = 30.0
        lam = 299_792_458.0 / paper_cfg.f_c
        a = np.sqrt(
            2 * paper_cfg.Ns * paper_cfg.P_s * paper_cfg.S_rcs * lam**2
            / ((4 * np.pi) ** 3 * paper_cfg.P_n * d**4)
        )
        want = marcum_q1(a, np.sqrt(paper_cfg.gamma_threshold))
        got = _pd((0.0, 0.0), (0.0, d), paper_cfg)
        assert got == pytest.approx(want, rel=1e-12)
        assert 0 < got < 1

    def test_monotone_in_distance(self, paper_cfg):
        # slack for the last bits of ncx2.sf and of the interpolant
        ds = np.linspace(5.0, 60.0, 40)
        vals = [_pd((0.0, 0.0), (0.0, d), paper_cfg) for d in ds]
        assert np.all(np.diff(vals) <= 2e-14)

    def test_array_matches_scalar(self, paper_cfg, rng):
        s = rng.uniform(0, 300, size=(6, 2))
        p = rng.uniform(0, 300, size=(4, 2))
        table = detection_prob_array(s, p, paper_cfg)
        for i in range(6):
            for j in range(4):
                assert table[i, j] == pytest.approx(
                    _pd(s[i], p[j], paper_cfg), rel=1e-12
                )


class TestDetectionTable:
    """The tabulated kernel against the ``marcum_q1`` values it interpolates.

    In the style of criterion 1: at least 10^5 distances log-spaced in d^2
    from 1e-2 m^2 to beyond the area's squared diagonal, plus every
    cell midpoint of the table.
    """

    @pytest.mark.parametrize("preset", [desk_preset, paper_preset])
    def test_matches_series_over_the_area(self, preset):
        cfg = preset()
        b = np.sqrt(cfg.gamma_threshold)
        d2_max = 2.0 * cfg.area_side**2
        u_lo, inv_h, coef = _pd_table(_noncentrality_scale(cfg), b, d2_max)
        spread = np.exp(np.linspace(np.log(1e-2), np.log(4.0 * d2_max), 100_000))
        mids = np.exp(u_lo + (np.arange(coef.shape[1]) + 0.5) / inv_h)
        d = np.sqrt(np.concatenate([[0.0], spread, mids]))
        targets = np.stack([np.zeros_like(d), d], axis=1)
        got = detection_prob_array(np.zeros((1, 2)), targets, cfg)[0]
        d2 = (targets**2).sum(axis=1)
        want = np.ones_like(d2)
        want[1:] = marcum_q1(_detection_noncentrality(d2[1:], cfg), b)
        assert got[0] == 1.0
        assert np.abs(got - want).max() <= 1e-13
        above = d2 > d2_max
        assert above.any()
        np.testing.assert_array_equal(got[above], want[above])

    def test_empty_range_link_budget(self, paper_cfg, rng):
        # a - b >= 9 over the whole area, so Q1 is 1 in double: no table,
        # every pair through marcum_q1's shortcut, and pd = 1
        cfg = paper_cfg.with_updates(P_n=1e-300)
        b = np.sqrt(cfg.gamma_threshold)
        assert _pd_table(_noncentrality_scale(cfg), b, 2.0 * cfg.area_side**2) is None
        s = rng.uniform(0, 300, size=(20, 2))
        p = np.vstack([s[:3], rng.uniform(0, 300, size=(30, 2))])
        np.testing.assert_array_equal(detection_prob_array(s, p, cfg), 1.0)

    def test_stays_in_unit_interval_below_the_floor(self):
        # gamma so large that Q1 underflows to 0 within 0.1 mm: the quintic
        # undershot 0 just past there (down to -6e-199) and overshot 1 by
        # up to 9e-16 near the table's start
        cfg = _steep_cfg()
        got = detection_prob_array(*_steep_radii(), cfg)[0]
        assert got.min() == 0.0
        assert got.max() == 1.0


class TestBlockEvaluation:
    """The one-pass kernel against the whole-array reference, bit for bit."""

    @staticmethod
    def _points(cfg, K, T, seed):
        rng = np.random.default_rng(seed)
        side = cfg.area_side
        return rng.uniform(0, side, size=(K, 2)), rng.uniform(0, side, size=(T, 2))

    @pytest.mark.parametrize("preset", [desk_preset, paper_preset])
    @pytest.mark.parametrize(
        "K, T",
        # (2000, 2000) and the last three exceed the prior integrals' batch
        # of _PD_BLOCK pairs; the kernel takes each in one pass
        [(1, 4096), (200, 50), (2000, 2000), (37, 1111), (1, _PD_BLOCK + 1), (3, _PD_BLOCK // 3 + 5)],
    )
    def test_matches_whole_array_reference(self, preset, K, T):
        cfg = preset()
        s, p = self._points(cfg, K, T, seed=K * 7919 + T)
        got = detection_prob_array(s, p, cfg)
        assert got.shape == (K, T)
        np.testing.assert_array_equal(got, detection_prob_array_reference(s, p, cfg))

    @pytest.mark.parametrize("preset", [desk_preset, paper_preset])
    def test_coincident_and_below_table_pairs(self, preset):
        # targets on sensor 0 (d^2 = 0) and around the table's lower end
        # (d^2 below it is 1 without marcum_q1), spread over the array,
        # and sensor 1 and a target at opposite corners: d^2 = d2_max, the
        # table's top node, where the cell index must stay on the last cell
        cfg = preset()
        side = cfg.area_side
        u_lo, _, _ = _pd_table(_noncentrality_scale(cfg), np.sqrt(cfg.gamma_threshold), 2.0 * side**2)
        r_lo = np.exp(0.5 * u_lo)
        s, p = self._points(cfg, 2, 3 * _PD_BLOCK // 2 + 7, seed=3)
        radii = r_lo * np.array([0.0, 1e-6, 0.01, 0.5, 0.999, 1.0, 1.001, 2.0])
        for at in (0, _PD_BLOCK // 2 - 4, _PD_BLOCK - 3, p.shape[0] - radii.size):
            p[at : at + radii.size] = s[0] + np.stack([radii, np.zeros_like(radii)], axis=1)
        s[1] = 0.0
        p[radii.size + 1] = side
        d2 = ((s[:, None] - p[None]) ** 2).sum(-1)
        assert (d2 == 0).sum() >= 4
        assert ((d2 > 0) & (d2 < np.exp(u_lo))).sum() >= 4 * 5
        got = detection_prob_array(s, p, cfg)
        np.testing.assert_array_equal(got, detection_prob_array_reference(s, p, cfg))
        assert np.all(got[d2 == 0] == 1.0)

    def test_clipped_link_budget(self):
        # the quintic undershoots 0 and overshoots 1 on this budget; kernel
        # and reference clip it alike, on the radial sweep and on pairs
        # spread over the area
        cfg = _steep_cfg()
        for s, p in (_steep_radii(), self._points(cfg, 40, 900, seed=8)):
            np.testing.assert_array_equal(
                detection_prob_array(s, p, cfg), detection_prob_array_reference(s, p, cfg)
            )

    def test_table_less_link_budget(self, paper_cfg):
        cfg = paper_cfg.with_updates(P_n=1e-300)
        assert _pd_table(_noncentrality_scale(cfg), np.sqrt(cfg.gamma_threshold), 2.0 * cfg.area_side**2) is None
        s, p = self._points(cfg, 30, 1200, seed=4)
        p[:5] = s[:5]
        np.testing.assert_array_equal(
            detection_prob_array(s, p, cfg), detection_prob_array_reference(s, p, cfg)
        )

    @pytest.mark.parametrize("K, T", [(0, 50), (200, 0), (0, 0)])
    def test_no_pairs(self, paper_cfg, K, T):
        s, p = self._points(paper_cfg, K, T, seed=5)
        got = detection_prob_array(s, p, paper_cfg)
        assert got.shape == (K, T)
        np.testing.assert_array_equal(got, detection_prob_array_reference(s, p, paper_cfg))

    @pytest.mark.parametrize("P_n", [None, 1e-300])
    def test_nan_coordinate_raises(self, paper_cfg, P_n):
        # a NaN distance is neither in the table nor below it; with or
        # without a table it must reach marcum_q1 and fail there
        cfg = paper_cfg if P_n is None else paper_cfg.with_updates(P_n=P_n)
        s, p = self._points(cfg, 3, 40, seed=6)
        p[17, 1] = np.nan
        with pytest.raises(ValueError):
            detection_prob_array(s, p, cfg)

    @pytest.mark.parametrize("dtype", [np.int64, np.float32])
    def test_coordinate_dtype(self, paper_cfg, dtype):
        # integer and float32 coordinates give the float64 result of the
        # values they hold
        s, p = self._points(paper_cfg, 20, 300, seed=7)
        s, p = s.astype(dtype), p.astype(dtype)
        got = detection_prob_array(s, p, paper_cfg)
        assert got.dtype == np.float64
        np.testing.assert_array_equal(
            got, detection_prob_array(s.astype(float), p.astype(float), paper_cfg)
        )

    @pytest.mark.parametrize("preset", [desk_preset, paper_preset])
    def test_no_floating_point_warnings(self, preset):
        # log(0) and the NaN-to-int cast stay inside the kernel's errstate
        cfg = preset()
        d2_max = 2.0 * cfg.area_side**2
        u_lo, inv_h, coef = _pd_table(_noncentrality_scale(cfg), np.sqrt(cfg.gamma_threshold), d2_max)
        u_top = u_lo + coef.shape[1] / inv_h
        d2 = np.array([0.0, np.exp(u_lo - 1.0), np.exp(0.5 * (u_lo + u_top)), np.exp(u_top + 1.0)])
        targets = np.stack([np.zeros_like(d2), np.sqrt(d2)], axis=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = detection_prob_array(np.zeros((1, 2)), targets, cfg)[0]
            targets[2, 0] = np.nan
            with pytest.raises(ValueError):
                detection_prob_array(np.zeros((1, 2)), targets, cfg)
        assert got[0] == got[1] == 1.0
        assert 0.0 < got[3] < got[2] < 1.0


class TestSenseAll:
    def test_all_detect_when_colocated(self, paper_cfg, paper_topo):
        # one target on top of every sensor: p_d = 1 there, so all active
        cfg = paper_cfg.with_updates(K=5, T_targets=5, K_max=5)
        sc = sample_scene(cfg, paper_topo, seed=1)
        sc = Scene(
            targets=sc.sensors.copy(),
            sensors=sc.sensors,
            sensor_zones=sc.sensor_zones,
        )
        sensed = sense_all(sc, cfg, substream(1, 99))
        assert sensed.active_mask.sum() == 5
        # replay the Bernoulli draws of the same substream
        hits = substream(1, 99).uniform(size=(5, 5)) < detection_prob_array(
            sc.sensors, sc.targets, cfg
        )
        d2 = ((sc.sensors[:, None] - sc.targets[None]) ** 2).sum(-1)
        for k in range(5):
            assert hits[k, sensed.reported[k]]
            dets = np.nonzero(hits[k])[0]
            assert d2[k, sensed.reported[k]] == d2[k, dets].min()
            assert sensed.reported[k] == k

    def test_reports_match_per_sensor_loop(self, paper_cfg, paper_topo):
        # reference: each sensor's nearest hit found by a loop over sensors,
        # on the Bernoulli draws replayed from the same substream
        for seed in range(20):
            sc = sample_scene(paper_cfg, paper_topo, seed)
            sensed = sense_all(sc, paper_cfg, substream(seed, 99))
            pd = detection_prob_array(sc.sensors, sc.targets, paper_cfg)
            hits = substream(seed, 99).uniform(size=(sc.K, sc.T)) < pd
            d2 = ((sc.sensors[:, None] - sc.targets[None]) ** 2).sum(-1)
            want = np.full(sc.K, -1)
            for k in range(sc.K):
                idx = np.nonzero(hits[k])[0]
                if idx.size:
                    want[k] = idx[np.argmin(d2[k, idx])]
            np.testing.assert_array_equal(sensed.reported, want)

    def test_activation_rate_at_false_alarm_floor(self, paper_cfg, paper_topo):
        # targets effectively infinitely far: activation ~ 1-(1-p_fa)^T ~ T 1e-8
        cfg = paper_cfg.with_updates(P_n=1e6)  # kills the SNR, pd -> p_fa
        sc = sample_scene(cfg, paper_topo, seed=3)
        pd = detection_prob_array(sc.sensors, sc.targets, cfg)
        assert np.all(np.abs(pd - 1e-8) < 2e-10)
        sensed = sense_all(sc, cfg, substream(3, 99))
        assert not sensed.active_mask.any()  # 200 * 50 * 1e-8 ~ 1e-4 chance of any hit

    def test_empty_targets(self, paper_cfg, paper_topo):
        cfg = paper_cfg.with_updates(T_targets=0)
        sc = sample_scene(cfg, paper_topo, seed=0)
        sensed = sense_all(sc, cfg, substream(0, 99))
        assert not sensed.active_mask.any()


class TestQuantizer:
    def test_two_bit_grid(self):
        q = build_quantizer(2, 300.0)
        want = {(75.0, 75.0), (225.0, 75.0), (75.0, 225.0), (225.0, 225.0)}
        assert set(map(tuple, q.grid_points)) == want
        assert quantize(q, (10.0, 10.0)) == 0
        np.testing.assert_allclose(q.grid_points[0], [75.0, 75.0])

    def test_grid_point_is_fixed_point(self):
        q = build_quantizer(6, 300.0)
        for m in (0, 17, 63):
            assert quantize(q, q.grid_points[m]) == m

    def test_six_bit_spacing_matches_gospa_cutoff(self):
        # adjacent-center spacing 300 / sqrt(2^6) = 37.5 m
        q = build_quantizer(6, 300.0)
        assert q.grid_points[1][0] - q.grid_points[0][0] == pytest.approx(37.5)

    def test_odd_bits_rectangular(self):
        q = build_quantizer(5, 300.0)
        assert (q.gx, q.gy) == (8, 4)
        assert q.M == 32

    def test_bits_out_of_range(self):
        with pytest.raises(ConfigError):
            build_quantizer(1, 300.0)
        with pytest.raises(ConfigError):
            build_quantizer(13, 300.0)

    def test_array_matches_scalar(self, rng):
        q = build_quantizer(7, 300.0)
        pts = rng.uniform(0, 300, size=(500, 2))
        idx = quantize_array(q, pts)
        scalar = [quantize(q, p) for p in pts]
        np.testing.assert_array_equal(idx, scalar)


class TestMessagesOf:
    def _sensed_scene(self, cfg, topo, seed):
        sc = sample_scene(cfg, topo, seed)
        return sense_all(sc, cfg, substream(seed, 99))

    def test_no_active_sensors_empty_round(self, paper_cfg, paper_topo):
        cfg = paper_cfg.with_updates(P_n=1e6)
        sensed = self._sensed_scene(cfg, paper_topo, 0)
        rnd = messages_of(sensed, build_quantizer(10, 300.0), cfg.U)
        assert rnd.K_a == 0
        assert np.all(rnd.multiplicities == 0)

    def test_collision_same_zone_same_target(self, paper_cfg, paper_topo):
        cfg = paper_cfg.with_updates(K=2, T_targets=1, K_max=2)
        sensors = np.array([[10.0, 10.0], [20.0, 20.0]])
        sc = Scene(
            targets=np.array([[15.0, 15.0]]),
            sensors=sensors,
            sensor_zones=np.array([0, 0]),
            reported=np.array([0, 0]),
        )
        rnd = messages_of(sc, build_quantizer(10, 300.0), cfg.U)
        k = rnd.multiplicities
        assert k.sum() == 2
        assert k.max() == 2  # same zone, same quantized target: multiplicity 2

    def test_positions_are_sensor_positions(self, paper_cfg, paper_topo):
        sensed = self._sensed_scene(paper_cfg, paper_topo, 12)
        rnd = messages_of(sensed, build_quantizer(10, 300.0), paper_cfg.U)
        act = sensed.active_mask
        got = set(map(tuple, rnd.positions))
        want = set(map(tuple, sensed.sensors[act]))
        assert got == want

    @pytest.mark.parametrize("repeat", [1, 10])
    def test_zone_order_keeps_sensor_order(self, repeat):
        # zones [1, 0, 1, 0] (tiled): zone 0's sensors first, each zone in
        # sensor order; the tiled case defeats sorts that are stable only on
        # short inputs
        n = 4 * repeat
        q = build_quantizer(2, 300.0)
        targets = np.array([[75.0, 75.0], [225.0, 75.0], [75.0, 225.0], [225.0, 225.0]])
        sc = Scene(
            targets=targets,
            sensors=np.stack([np.arange(n) + 1.0, np.full(n, 7.0)], axis=1),
            sensor_zones=np.tile([1, 0, 1, 0], repeat),
            reported=np.arange(n) % 4,
        )
        rnd = messages_of(sc, q, 2)
        order = np.concatenate([np.arange(1, n, 2), np.arange(0, n, 2)])
        np.testing.assert_array_equal(rnd.zones, np.repeat([0, 1], n // 2))
        np.testing.assert_array_equal(rnd.positions, sc.sensors[order])
        np.testing.assert_array_equal(rnd.messages, order % 4)
        assert (rnd.U, rnd.M, rnd.K_a) == (2, 4, n)
