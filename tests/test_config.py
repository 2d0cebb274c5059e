import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle_utils import config_to_dict, lsfc, snr_conversions, zone_of
from tumaloc.cli import main as cli_main
from tumaloc.config import (
    ConfigError,
    SystemConfig,
    build_topology,
    desk_preset,
    load_config,
    lsfc_vector,
    paper_preset,
    sigma_w2_for_snr_rx,
    zone_of_array,
)


@pytest.fixture(scope="module")
def paper_cfg():
    return paper_preset()


@pytest.fixture(scope="module")
def paper_topo(paper_cfg):
    return build_topology(paper_cfg)


class TestBuildTopology:
    def test_canonical_layout_counts(self, paper_cfg, paper_topo):
        assert paper_topo.ap_positions.shape == (40, 2)
        assert paper_cfg.B == 40
        assert paper_topo.zone_rects.shape == (9, 4)
        # 16 corner-lattice APs plus 24 edge midpoints
        on_lattice = sum(
            1
            for p in paper_topo.ap_positions
            if p[0] % 100 == 0 and p[1] % 100 == 0
        )
        assert on_lattice == 16

    def test_zone_side_100m(self, paper_topo):
        x0, y0, x1, y1 = paper_topo.zone_rects[0]
        assert (x1 - x0, y1 - y0) == (100.0, 100.0)
        assert paper_topo.zone_centroids[0] == pytest.approx([50.0, 50.0])

    def test_centroid_nearest_ap_is_50m(self, paper_topo):
        assert paper_topo.centroid_nearest_ap_distance() == pytest.approx(50.0)

    def test_explicit_list_passthrough(self):
        cfg = SystemConfig(ap_positions=((10.0, 20.0),), A=1, K_max=5, K=10)
        topo = build_topology(cfg)
        assert cfg.B == 1
        np.testing.assert_allclose(topo.ap_positions, [[10.0, 20.0]])

    def test_zones_tile_without_overlap(self, paper_topo):
        # rect areas add up to the square; marginals cover the full side
        x0, y0, x1, y1 = paper_topo.zone_rects.T
        assert np.sum((x1 - x0) * (y1 - y0)) == pytest.approx(300.0**2)
        assert sorted(set(zip(x0, y0))) == sorted(
            (i * 100.0, j * 100.0) for j in range(3) for i in range(3)
        )

    def test_positions_alone_set_the_layout(self):
        # no other key: the listed APs replace the canonical grid
        aps = ((1.0, 2.0), (30.0, 40.0), (250.0, 5.0))
        cfg = SystemConfig(ap_positions=aps)
        assert cfg.B == 3 and cfg.F == 3 * cfg.A
        np.testing.assert_array_equal(build_topology(cfg).ap_positions, aps)

    def test_empty_position_list_rejected(self):
        with pytest.raises(ConfigError):
            SystemConfig(ap_positions=())


class TestLsfc:
    def test_zero_distance(self, paper_cfg, paper_topo):
        ap = paper_topo.ap_positions[3]
        assert lsfc(ap, ap, paper_cfg) == pytest.approx(1.0)

    def test_cutoff_distance_half(self, paper_cfg):
        rho = (0.0, paper_cfg.d0)
        assert lsfc(rho, (0.0, 0.0), paper_cfg) == pytest.approx(0.5, rel=1e-12)

    def test_frozen_50m_value(self, paper_cfg):
        # direct evaluation oracle: 1 / (1 + (50 / 13.57)^3.67)
        assert lsfc((50.0, 0.0), (0.0, 0.0), paper_cfg) == pytest.approx(
            0.00827445928096452, rel=1e-12
        )

    def test_monotone_along_ray(self, paper_cfg):
        ap = (100.0, 100.0)
        ds = np.linspace(0.0, 120.0, 60)
        vals = [lsfc((100.0 + d, 100.0), ap, paper_cfg) for d in ds]
        assert np.all(np.diff(vals) < 0)

    def test_vector_consistency(self, paper_cfg, paper_topo, rng):
        for _ in range(20):
            rho = rng.uniform(0, 300, size=2)
            vec = lsfc_vector(rho, paper_topo, paper_cfg)
            assert vec.shape == (40,)
            for b in (0, 7, 39):
                assert vec[b] == lsfc(rho, paper_topo.ap_positions[b], paper_cfg)

    def test_vector_symmetry_and_max_at_nearest(self, paper_cfg, paper_topo):
        centroid = paper_topo.zone_centroids[0]
        vec = lsfc_vector(centroid, paper_topo, paper_cfg)
        d = np.linalg.norm(paper_topo.ap_positions - centroid, axis=1)
        near = np.argsort(d)[:4]
        # the four nearest APs are equidistant and carry the max entries
        assert np.allclose(d[near], 50.0)
        assert set(np.argsort(vec)[-4:]) == set(near)

    def test_single_ap_at_rho(self, paper_cfg):
        cfg = paper_cfg.with_updates(ap_positions=((5.0, 5.0),))
        topo = build_topology(cfg)
        np.testing.assert_allclose(lsfc_vector((5.0, 5.0), topo, cfg), [1.0])


class TestZoneOf:
    def test_corner_and_center(self, paper_topo):
        assert zone_of((0.0, 0.0), paper_topo) == 0
        assert zone_of((150.0, 150.0), paper_topo) == 4

    def test_half_open_boundary(self, paper_topo):
        assert zone_of((100.0, 50.0), paper_topo) == 1
        assert zone_of((99.999999, 50.0), paper_topo) == 0

    def test_outer_edge_belongs_to_last_zone(self, paper_topo):
        assert zone_of((300.0, 300.0), paper_topo) == 8

    def test_outside_rejected(self, paper_topo):
        with pytest.raises(ValueError):
            zone_of((301.0, 0.0), paper_topo)

    @given(st.floats(0, 300), st.floats(0, 300))
    @settings(max_examples=300, deadline=None)
    def test_total_on_area(self, x, y):
        topo = build_topology(paper_preset())
        assert 0 <= zone_of((x, y), topo) < 9

    def test_uniform_counts_multinomial(self, paper_topo, rng):
        n = 100_000
        pts = rng.uniform(0, 300, size=(n, 2))
        idx = zone_of_array(pts, paper_topo)
        counts = np.bincount(idx, minlength=9)
        expect = n / 9
        sigma = np.sqrt(n * (1 / 9) * (8 / 9))
        assert np.all(np.abs(counts - expect) < 3 * sigma + 1)
        scalar = [zone_of(p, paper_topo) for p in pts[:200]]
        np.testing.assert_array_equal(scalar, idx[:200])


class TestSnr:
    def test_unit_snr_tx(self, paper_cfg, paper_topo):
        cfg = paper_cfg.with_updates(Ec=1.0, sigma_w2=1.0 / paper_cfg.Nc)
        assert snr_conversions(cfg, paper_topo)["snr_tx"] == pytest.approx(1.0)

    def test_cutoff_attenuation_half(self, paper_cfg):
        # single zone with its only AP at distance d0 from the centroid:
        # varsigma = d0 forces SNR_rx = SNR_tx / 2
        cfg = paper_cfg.with_updates(
            area_side=100.0,
            zone_grid=(1, 1),
            ap_positions=((50.0 - paper_cfg.d0, 50.0),),
            A=1,
        )
        topo = build_topology(cfg)
        out = snr_conversions(cfg, topo)
        assert out["varsigma"] == pytest.approx(cfg.d0)
        assert out["snr_rx"] == pytest.approx(out["snr_tx"] / 2.0, rel=1e-12)

    def test_frozen_attenuation_and_inverse(self, paper_cfg, paper_topo):
        # 1 + (50 / 13.57)^3.67, direct evaluation oracle
        out = snr_conversions(paper_cfg, paper_topo)
        assert out["snr_tx"] / out["snr_rx"] == pytest.approx(120.85381848461208, rel=1e-12)
        cfg10 = paper_cfg.with_updates(
            sigma_w2=sigma_w2_for_snr_rx(paper_cfg, paper_topo, 10.0)
        )
        got = snr_conversions(cfg10, paper_topo)["snr_rx"]
        assert 10 * np.log10(got) == pytest.approx(10.0, abs=1e-9)
        assert snr_conversions(cfg10, paper_topo)["snr_tx"] == pytest.approx(
            1208.5381848461207, rel=1e-12
        )


class TestConfigIO:
    def test_roundtrip(self, tmp_path, paper_cfg):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config_to_dict(paper_cfg)))
        loaded = load_config(path)
        assert loaded == paper_cfg

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"area_side": 100.0, "bogus": 1}))
        with pytest.raises(ConfigError):
            load_config(path)

    def test_layout_key_rejected(self, tmp_path):
        # the layout is the position list alone; a file naming a layout is stale
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"ap_layout": "explicit-list", "ap_positions": [[1.0, 2.0]]}))
        with pytest.raises(ConfigError, match="ap_layout"):
            load_config(path)
        assert cli_main(["run", "--config", str(path), "--decoder", "perfect"]) == 2

    def test_master_seed_key_rejected(self, tmp_path, capsys):
        # the prior is the same for every seed; a run seed is the spec's or --seed
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"preset": "desk", "master_seed": 0}))
        with pytest.raises(ConfigError, match="master_seed"):
            load_config(path)
        out = str(tmp_path / "out")
        assert cli_main(["run", "--config", str(path), "--decoder", "perfect", "--out", out]) == 2
        assert "master_seed" in capsys.readouterr().err

    def test_preset_with_overrides(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"preset": "desk", "K": 17}))
        cfg = load_config(path)
        assert cfg.K == 17
        assert cfg.zone_grid == (2, 2)

    def test_invariants_enforced(self):
        for bad in (
            {"K_max": 500, "K": 100},
            {"Ec": 0.0},
            {"beta": 1.5},
            {"M": 1},
            {"M": 2},
            {"M": 100},
            {"M": 2**13},
            {"Ns": 0},
            {"Nc": 0},
            {"N_MC": 0},
            {"T_AMP": 0},
            {"K_max": 0},
            {"K": -1, "K_max": 0},
            {"T_targets": -1},
            {"P_n": 0.0},
            {"P_s": 0.0},
            {"f_c": 0.0},
            {"S_rcs": -1.0},
            {"gamma_threshold": -1.0},
            {"c_gospa": 0.0},
            {"p_order": 0.5},
        ):
            with pytest.raises(ConfigError):
                SystemConfig(**bad)
        # K_max = 0 goes with K = 0 only
        assert SystemConfig(K=0, K_max=0).K_max == 0

    def test_desk_preset_shape(self):
        cfg = desk_preset()
        assert cfg.B == 12
        assert cfg.U == 4
        assert cfg.F == 24
        assert cfg.M == 64


# known keys whose values break a type or a range, and the removed
# master_seed; none may reach a run
MALFORMED = [
    {"Ns": 0},
    {"Ns": -5},
    {"N_MC": 0},
    {"K_max": 0},
    {"T_AMP": 0},
    {"master_seed": -3},
    {"A": 2.5},
    {"A": True},
    {"zone_grid": 3},
    {"zone_grid": [2]},
    {"ap_positions": [[0, 0], [1]]},
    {"area_side": float("nan")},
    {"M": 100},
]


@pytest.mark.parametrize("bad", MALFORMED, ids=lambda bad: json.dumps(bad))
def test_malformed_config_exit_2(tmp_path, capsys, bad):
    # through a config file, and inside a sweep spec's config
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"preset": "desk", **bad}))
    with pytest.raises(ConfigError):
        load_config(cfg_path)
    out = str(tmp_path / "out")
    assert cli_main(["run", "--config", str(cfg_path), "--decoder", "perfect", "--out", out]) == 2
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(
        json.dumps({"preset": "desk", "config": bad, "decoders": ["perfect"], "out_dir": out})
    )
    assert cli_main(["sweep", "--spec", str(spec_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all(line.startswith("error: ") for line in err)
    assert not (tmp_path / "out").exists()
