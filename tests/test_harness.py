import csv
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from tumaloc import airlink, amp_central, amp_dist, harness
from tumaloc.amp_central import amp_iterate
from tumaloc.cli import main as cli_main
from tumaloc.config import ConfigError, build_topology, desk_preset, load_config
from tumaloc.harness import (
    ExperimentSpec,
    aggregate_records,
    derive_run_seed,
    multiplicity_histogram,
    prepare_context,
    run_single,
    run_sweep,
    spec_from_json,
)

CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json"))


@pytest.fixture(scope="session")
def tiny_ctx(tiny_cfg, tmp_path_factory):
    cache = tmp_path_factory.mktemp("prior_cache")
    return prepare_context(tiny_cfg, cache_dir=str(cache))


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_run_seed(1, 2, 3) == derive_run_seed(1, 2, 3)

    def test_distinct_across_axes(self):
        seeds = {
            derive_run_seed(m, p, r)
            for m in (0, 1)
            for p in range(4)
            for r in range(4)
        }
        assert len(seeds) == 32

    def test_64_bit_range(self):
        s = derive_run_seed(2**63, 10**6, 999)
        assert 0 <= s < 2**64


class TestRunSingle:
    def test_perfect_tv_zero(self, tiny_ctx):
        rec = run_single(tiny_ctx, "perfect", seed=3)
        if rec["status"] == "ok":
            assert rec["tv"] == 0.0
            assert rec["w_p"] >= 0.0
            assert rec["gospa"] >= rec["w_p"]

    def test_perfect_w_independent_of_snr(self, tiny_ctx):
        base = tiny_ctx.cfg
        recs = []
        for sigma in (base.sigma_w2, base.sigma_w2 * 100):
            ctx = harness.PointContext(
                cfg=base.with_updates(sigma_w2=sigma),
                topology=tiny_ctx.topology,
                quantizer=tiny_ctx.quantizer,
                prior=tiny_ctx.prior,
            )
            recs.append(run_single(ctx, "perfect", seed=9))
        assert recs[0]["w_p"] == recs[1]["w_p"]
        assert recs[0]["T_d"] == recs[1]["T_d"]

    def test_centralized_smoke(self, tiny_ctx):
        rec = run_single(tiny_ctx, "centralized", seed=5)
        assert rec["decoder"] == "centralized"
        assert rec["status"] in ("ok", "empty-type", "no-active-sensors")
        if rec["status"] == "ok":
            assert 0.0 <= rec["tv"] <= 1.0

    def test_noise_only_degenerate(self, tiny_ctx):
        # vanishing transmit energy: decoder sees noise, k0-favoring prior
        # wins everywhere, run records the empty-type status
        cfg = tiny_ctx.cfg.with_updates(Ec=1e-12)
        ctx = harness.PointContext(
            cfg=cfg,
            topology=tiny_ctx.topology,
            quantizer=tiny_ctx.quantizer,
            prior=tiny_ctx.prior,
        )
        rec = run_single(ctx, "centralized", seed=2)
        assert rec["status"] in ("empty-type", "no-active-sensors")
        assert rec["tv"] is None

    @pytest.mark.parametrize("decoder", ["centralized", "distributed"])
    def test_decode_iters_counts_the_iterations_run(self, tiny_ctx, monkeypatch, decoder):
        # a cap the rule stops before: the record holds the iterations run
        cfg = tiny_ctx.cfg.with_updates(T_AMP=30)
        ctx = harness.PointContext(cfg, tiny_ctx.topology, tiny_ctx.quantizer, tiny_ctx.prior)
        runs = []

        def counted(*args, **kwargs):
            out = amp_iterate(*args, **kwargs)
            runs.append(len(out[2]["tau_trace"]))
            return out

        monkeypatch.setattr(amp_central, "amp_iterate", counted)
        monkeypatch.setattr(amp_dist, "amp_iterate", counted)
        rec = run_single(ctx, decoder, seed=5)
        assert rec["status"] == "ok"
        assert rec["decode_iters"] == runs[0] < cfg.T_AMP and len(runs) == 1

    def test_unknown_decoder_rejected(self, tiny_ctx):
        with pytest.raises(ConfigError):
            run_single(tiny_ctx, "telepathy", seed=0)

    def test_deterministic_records(self, tiny_ctx):
        a = run_single(tiny_ctx, "centralized", seed=11)
        b = run_single(tiny_ctx, "centralized", seed=11)
        for k in ("tv", "w_p", "gospa", "K_a", "T_d", "status"):
            assert a[k] == b[k]


class TestSweep:
    def _spec(self, tiny_cfg, out, **kw):
        args = dict(
            base=tiny_cfg,
            axis="none",
            decoders=("perfect",),
            runs=3,
            master_seed=7,
            out_dir=str(out),
        )
        args.update(kw)
        return ExperimentSpec(**args)

    def test_single_point_one_record(self, tiny_cfg, tmp_path):
        spec = self._spec(tiny_cfg, tmp_path, runs=1)
        res = run_sweep(spec)
        assert len(res["records"]) == 1
        assert (tmp_path / "runs.jsonl").exists()
        assert (tmp_path / "summary.csv").exists()

    def test_ns_axis_preserves_total_blocklength(self, tiny_cfg, tmp_path):
        spec = self._spec(
            tiny_cfg.with_updates(Ns=100, Nc=100), tmp_path, axis="ns", values=(40, 100)
        )
        for v in spec.point_values():
            cfg = spec.point_config(v)
            assert cfg.Ns + cfg.Nc == 200

    def test_ns_axis_rejects_no_comm_budget(self, tiny_cfg, tmp_path):
        spec = self._spec(
            tiny_cfg.with_updates(Ns=100, Nc=100), tmp_path, axis="ns", values=(200,)
        )
        with pytest.raises(ConfigError):
            spec.point_config(200)

    def test_bits_axis_sets_message_count(self, tiny_cfg, tmp_path):
        spec = self._spec(tiny_cfg, tmp_path, axis="bits", values=(2, 4))
        assert spec.point_config(4).M == 16

    def test_snr_axis_sets_noise(self, tiny_cfg, tmp_path):
        from oracle_utils import snr_conversions

        spec = self._spec(tiny_cfg, tmp_path, axis="snr_rx", values=(-10.0, 0.0))
        cfg = spec.point_config(-10.0)
        topo = build_topology(cfg)
        got = 10 * np.log10(snr_conversions(cfg, topo)["snr_rx"])
        assert got == pytest.approx(-10.0, abs=1e-9)

    def test_reproducible_modulo_timestamps(self, tiny_cfg, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run_sweep(self._spec(tiny_cfg, out1))
        run_sweep(self._spec(tiny_cfg, out2))

        def stripped(path):
            rows = []
            for line in open(path / "runs.jsonl"):
                d = json.loads(line)
                d.pop("timestamp")
                d.pop("wall_time_s")
                rows.append(json.dumps(d, sort_keys=True))
            return rows

        assert stripped(out1) == stripped(out2)

    def test_records_stream_before_a_failure(self, tiny_cfg, tmp_path, monkeypatch):
        # each record reaches runs.jsonl as its run returns, so a run that
        # raises leaves the records before it on disk
        real = harness.run_single
        seeds = []

        def second_run_fails(ctx, decoder, seed, draws=None):
            seeds.append(seed)
            if len(seeds) == 2:
                raise RuntimeError("forced failure of the second run")
            return real(ctx, decoder, seed, draws)

        monkeypatch.setattr(harness, "run_single", second_run_fails)
        with pytest.raises(RuntimeError, match="second run"):
            run_sweep(self._spec(tiny_cfg, tmp_path))
        lines = (tmp_path / "runs.jsonl").read_text().splitlines()
        assert len(lines) == 1
        got = json.loads(lines[0])
        want = real(prepare_context(tiny_cfg, need_prior=False), "perfect", seeds[0])
        want.pop("wall_time_s")
        assert got["run"] == 0
        assert {k: got[k] for k in want} == want

    def test_thread_pool_matches_one_worker(self, tiny_cfg, tmp_path):
        # the runs of a point are independent: two workers write the same
        # records, in the same order, as one
        def records(out, workers):
            spec = self._spec(
                tiny_cfg, out, decoders=("centralized", "distributed"), runs=3,
                prior_cache=str(tmp_path / "cache"),
            )
            run_sweep(spec, workers=workers)
            rows = []
            for line in open(out / "runs.jsonl"):
                d = json.loads(line)
                d.pop("timestamp")
                d.pop("wall_time_s")
                rows.append(json.dumps(d))
            return rows

        serial = records(tmp_path / "serial", 1)
        assert len(serial) == 6
        assert records(tmp_path / "pooled", 2) == serial

    def test_shared_draws_give_standalone_records(self, tiny_cfg, tmp_path):
        # both decoders decode one draw per (point, run); each record is a
        # standalone run_single of its (decoder, seed), and the file keeps
        # (point, decoder, run) order: the first decoder's records as runs
        # return, the second's after the point's last run
        spec = self._spec(
            tiny_cfg, tmp_path / "sweep", axis="snr_rx", values=(-10.0, 10.0),
            decoders=("centralized", "distributed"), runs=3, prior_cache=str(tmp_path / "cache"),
        )
        streamed = []
        res = run_sweep(spec, progress=lambda rec: streamed.append(dict(rec)))
        lines = [json.loads(l) for l in (tmp_path / "sweep" / "runs.jsonl").read_text().splitlines()]
        order = [(r["point_index"], r["decoder"], r["run"]) for r in lines]
        assert order == [(p, d, r) for p in (0, 1) for d in spec.decoders for r in range(3)]
        assert streamed == res["records"] == lines
        assert any(r["status"] == "ok" for r in lines)
        for p_idx, value in enumerate(spec.values):
            ctx = prepare_context(spec.point_config(value), cache_dir=spec.prior_cache)
            for rec in (r for r in lines if r["point_index"] == p_idx):
                want = run_single(ctx, rec["decoder"], derive_run_seed(7, p_idx, rec["run"]))
                want.pop("wall_time_s")
                got = {k: v for k, v in rec.items() if k not in ("timestamp", "wall_time_s")}
                assert got == {**want, "point": value, "point_index": p_idx, "run": rec["run"]}

    def test_one_codebook_per_sweep_point(self, tiny_cfg, tmp_path, monkeypatch):
        # a decoding point draws its codebook once, from seed 0, whatever its
        # number of runs or threads, and both decoders of every run decode on it
        drawn = []
        real = airlink.gen_codebook

        def counted(cfg, seed):
            drawn.append(seed)
            return real(cfg, seed)

        monkeypatch.setattr(airlink, "gen_codebook", counted)
        for runs, workers in ((2, 1), (5, 1), (5, 3)):
            drawn.clear()
            spec = self._spec(
                tiny_cfg, tmp_path, axis="snr_rx", values=(-10.0, 10.0),
                decoders=("centralized", "distributed"), runs=runs,
                prior_cache=str(tmp_path / "cache"),
            )
            recs = run_sweep(spec, workers=workers)["records"]
            decoded = {r["point_index"] for r in recs if r["K_a"] > 0}
            assert len(decoded) == 2 and drawn == [0, 0], (runs, workers)

    def test_perfect_runs_draw_no_codebook(self, tiny_cfg, tmp_path, monkeypatch):
        # a perfect-only sweep and the histogram never read the codebook
        def no_codebook(cfg, seed):
            raise AssertionError("a codebook was drawn")

        monkeypatch.setattr(airlink, "gen_codebook", no_codebook)
        recs = run_sweep(self._spec(tiny_cfg, tmp_path, runs=3))["records"]
        assert any(r["status"] == "ok" for r in recs)
        assert multiplicity_histogram(tiny_cfg, runs=3, seed=7)["pooled_codewords"] > 0

    def test_codebook_is_read_only(self, tiny_ctx):
        ctx = harness.PointContext(tiny_ctx.cfg, tiny_ctx.topology, tiny_ctx.quantizer, tiny_ctx.prior)
        with pytest.raises(dataclasses.FrozenInstanceError):
            ctx.codebook = airlink.gen_codebook(ctx.cfg, 1)
        cb = ctx.codebook
        assert ctx.codebook is cb
        np.testing.assert_array_equal(cb, airlink.gen_codebook(ctx.cfg, 0))
        with pytest.raises(dataclasses.FrozenInstanceError):
            ctx.codebook = cb.copy()
        with pytest.raises(ValueError):
            cb[0, 0, 0] = 0.0

    def test_aggregation_recomputable_from_jsonl(self, tiny_cfg, tmp_path):
        spec = self._spec(tiny_cfg, tmp_path, runs=4)
        res = run_sweep(spec)
        records = [json.loads(l) for l in open(tmp_path / "runs.jsonl")]
        table = aggregate_records(records)
        for want, got in zip(res["summary"], table):
            for key, val in want.items():
                if isinstance(val, float):
                    assert got[key] == pytest.approx(val, abs=1e-12)
                else:
                    assert got[key] == val
        with open(tmp_path / "summary.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(res["summary"])
        ok = [r for r in records if r["status"] == "ok"]
        if ok:
            want_mean = float(np.mean([r["gospa"] for r in ok]))
            assert float(rows[0]["gospa_mean"]) == pytest.approx(want_mean, abs=1e-12)

    def test_transport_lp_failure_recorded_not_raised(self, tiny_cfg, tmp_path, monkeypatch):
        def failing_lp(*_args, **_kw):
            raise RuntimeError("transport LP failed: forced")

        monkeypatch.setattr(harness.metrics, "wasserstein_p", failing_lp)
        res = run_sweep(self._spec(tiny_cfg, tmp_path, runs=4))
        assert len(res["records"]) == 4
        lp_err = [r for r in res["records"] if r["status"] == "lp-error"]
        assert lp_err
        assert all(r["status"] in ("lp-error", "no-active-sensors") for r in res["records"])
        for rec in lp_err:
            assert rec["tv"] == 0.0
            assert rec["p_md"] is not None and rec["T_d"] is not None
            assert rec["w_p"] is None and rec["gospa"] is None

    def test_unknown_axis_rejected(self, tiny_cfg, tmp_path):
        with pytest.raises(ConfigError):
            self._spec(tiny_cfg, tmp_path, axis="humidity")

    def test_spec_from_json(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            json.dumps(
                {
                    "preset": "desk",
                    "config": {"K": 20},
                    "axis": "snr_rx",
                    "values": [0.0],
                    "decoders": ["perfect"],
                    "runs": 2,
                    "master_seed": 5,
                    "out_dir": str(tmp_path / "out"),
                }
            )
        )
        spec = spec_from_json(spec_path)
        assert spec.base.K == 20
        assert spec.axis == "snr_rx"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"preset": "desk", "bogus": 1}))
        with pytest.raises(ConfigError):
            spec_from_json(bad)


class TestSpecLoader:
    # a spec's preset and config object go through the config-file loader

    def test_unknown_config_key_rejected(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(
            {"preset": "desk", "config": {"bogus": 1}, "out_dir": str(tmp_path / "out")}
        ))
        with pytest.raises(ConfigError, match="bogus"):
            spec_from_json(path)
        assert cli_main(["sweep", "--spec", str(path)]) == 2

    def test_position_lists_match_config_file(self, tmp_path):
        config = {"zone_grid": [3, 3], "ap_positions": [[0, 0], [200, 200]], "K": 30}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"preset": "desk", "config": config}))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"preset": "desk", **config}))
        got = spec_from_json(spec_path).base
        want = load_config(cfg_path)
        assert got == want
        assert hash(got) == hash(want)
        assert got.zone_grid == (3, 3) and got.B == 2

    @pytest.mark.parametrize(
        "removed, key",
        [
            ({"preset": "paper", "total_blocklength": 2000}, "total_blocklength"),
            ({"config_file": "cfg.json"}, "config_file"),
            ({"config": {"master_seed": 1}}, "master_seed"),
        ],
        ids=["total_blocklength", "config_file", "config.master_seed"],
    )
    def test_removed_keys_rejected(self, tmp_path, monkeypatch, capsys, removed, key):
        # the blocklength total is the base config's; a config comes in the
        # spec; the prior's Monte Carlo takes no seed from the config
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps({"preset": "paper"}))
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"axis": "ns", "values": [10], **removed}))
        with pytest.raises(ConfigError, match=key):
            spec_from_json(path)
        assert cli_main(["sweep", "--spec", str(path)]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize(
        "bad",
        [
            {"runs": "3"},
            {"runs": True},
            {"runs": 0},
            {"master_seed": 1.5},
            {"axis": "bits", "values": ["x"]},
            {"axis": "ns", "values": [100.5]},
            {"axis": "snr_rx", "values": ["0"]},
            {"axis": "snr_rx", "values": 0.0},
            {"decoders": ["nope"]},
            {"decoders": "centralized"},
            {"decoders": [1]},
            {"out_dir": 5},
            {"prior_cache": ["cache"]},
            {"master_seed": -1},
            {"config": {"A": 2.5}},
            {"config": {"zone_grid": 3}},
            {"config": {"zone_grid": [2, "2"]}},
            {"config": {"sigma_w2": "1e-6"}},
            {"config": []},
            {"preset": ["desk"]},
        ],
        ids=lambda bad: json.dumps(bad),
    )
    def test_mistyped_sweep_keys_exit_2(self, tmp_path, bad):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"preset": "desk", "out_dir": str(tmp_path / "out"), **bad}))
        with pytest.raises(ConfigError):
            spec_from_json(path)
        assert cli_main(["sweep", "--spec", str(path)]) == 2

    @pytest.mark.parametrize(
        "bad",
        [
            {"axis": "ns", "values": [100, 1300]},     # Ns + Nc = 1300 on the desk preset
            {"axis": "bits", "values": [6, 13]},
            {"axis": "snr_rx", "values": []},
            {"values": [-20, 0]},                      # no axis to sweep them on
            {"decoders": []},
        ],
        ids=lambda bad: json.dumps(bad),
    )
    def test_bad_sweep_fails_before_any_run(self, tmp_path, capsys, bad):
        # the earlier sweep's files stay as they were
        out = tmp_path / "out"
        out.mkdir()
        for name in ("runs.jsonl", "summary.csv"):
            (out / name).write_text("earlier sweep\n")
        path = tmp_path / "spec.json"
        spec = {"preset": "desk", "decoders": ["perfect"], "out_dir": str(out), **bad}
        path.write_text(json.dumps(spec))
        assert cli_main(["sweep", "--spec", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        for name in ("runs.jsonl", "summary.csv"):
            assert (out / name).read_text() == "earlier sweep\n"

    @pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
    def test_shipped_spec_loads(self, path):
        spec = spec_from_json(path)
        cfgs = [spec.point_config(v) for v in spec.point_values()]
        assert len(cfgs) == len(spec.values)
        if spec.axis == "ns":
            # the paper's blocklength sweeps keep Ns + Nc fixed at 2000
            assert [c.Ns for c in cfgs] == list(spec.values)
            assert all(c.Ns + c.Nc == 2000 for c in cfgs)


class TestHistogram:
    def test_single_sensor_all_mass_at_one(self, tiny_cfg):
        cfg = tiny_cfg.with_updates(K=1, K_max=1)
        res = multiplicity_histogram(cfg, runs=40, seed=3)
        hist = res["hist"]
        if res["pooled_codewords"]:
            assert hist[1] == pytest.approx(1.0)
            assert res["collision_fraction"] == 0.0

    def test_deterministic(self, tiny_cfg):
        a = multiplicity_histogram(tiny_cfg, runs=10, seed=4)
        b = multiplicity_histogram(tiny_cfg, runs=10, seed=4)
        np.testing.assert_array_equal(a["hist"], b["hist"])
        assert a["collision_fraction"] == b["collision_fraction"]


class TestCli:
    def test_run_perfect(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = cli_main(
            ["run", "--preset", "desk", "--decoder", "perfect", "--seed", "4",
             "--out", str(out)]
        )
        assert code == 0
        rec = json.loads((out / "runs.jsonl").read_text())
        assert rec["decoder"] == "perfect"
        assert (out / "summary.csv").exists()

    def test_run_records_are_run_single(self, tmp_path, capsys):
        # a one-point sweep: run r of --seed S is run_single at derive_run_seed(S, 0, r)
        out = tmp_path / "run"
        code = cli_main(
            ["run", "--preset", "desk", "--decoder", "perfect", "--seed", "4",
             "--runs", "2", "--out", str(out)]
        )
        assert code == 0
        recs = [json.loads(l) for l in (out / "runs.jsonl").read_text().splitlines()]
        printed = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert printed == recs
        ctx = prepare_context(desk_preset(), need_prior=False)
        assert [r["run"] for r in recs] == [0, 1]
        for r, rec in enumerate(recs):
            want = run_single(ctx, "perfect", derive_run_seed(4, 0, r))
            want.pop("wall_time_s")
            assert {k: rec[k] for k in want} == want

    def test_run_is_the_one_point_sweep_on_one_prior(self, tmp_path, capsys):
        # --seed is the sweep's master seed and nothing else: decoded runs equal
        # the one-point sweep's, and runs at several seeds share one prior file
        cache = str(tmp_path / "cache")
        out = tmp_path / "run"
        code = cli_main(
            ["run", "--preset", "desk", "--decoder", "centralized", "--seed", "1",
             "--runs", "11", "--cache", cache, "--out", str(out)]
        )
        assert code == 0
        spec = ExperimentSpec(base=desk_preset(), runs=11, master_seed=1,
                              out_dir=str(tmp_path / "sweep"), prior_cache=cache)
        skip = ("timestamp", "wall_time_s")
        got = [{k: v for k, v in json.loads(l).items() if k not in skip}
               for l in (out / "runs.jsonl").read_text().splitlines()]
        want = [{k: v for k, v in rec.items() if k not in skip} for rec in run_sweep(spec)["records"]]
        assert sum(r["decode_iters"] is not None for r in want) > 0
        assert got == want
        code = cli_main(
            ["run", "--preset", "desk", "--decoder", "centralized", "--seed", "2",
             "--cache", cache, "--out", str(tmp_path / "run2")]
        )
        assert code == 0
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(
            {"preset": "desk", "runs": 1, "master_seed": 3, "prior_cache": cache,
             "out_dir": str(tmp_path / "sweep3")}
        ))
        assert cli_main(["sweep", "--spec", str(spec_path)]) == 0
        assert len(list(Path(cache).iterdir())) == 1

    def test_run_without_runs_exit_code(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = cli_main(["run", "--decoder", "perfect", "--runs", "0", "--out", str(out)])
        assert code == 2
        assert "runs must be >= 1" in capsys.readouterr().err

    def test_hist_command(self, tmp_path, capsys):
        code = cli_main(["hist", "--preset", "desk", "--runs", "5", "--seed", "1"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert "collision_fraction" in doc

    @pytest.mark.parametrize("runs", ["0", "-4"])
    def test_hist_without_runs_exit_code(self, capsys, runs):
        code = cli_main(["hist", "--preset", "desk", "--runs", runs])
        assert code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: runs must be >= 1, got {runs}\n"

    @pytest.mark.parametrize("command", ["run", "hist"])
    def test_negative_seed_exit_code(self, tmp_path, capsys, command):
        argv = [command, "--preset", "desk", "--seed", "-1", "--runs", "1"]
        if command == "run":
            argv += ["--decoder", "perfect", "--out", str(tmp_path / "run")]
        assert cli_main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and "seed must be non-negative" in err

    @pytest.mark.parametrize("workers", ["0", "-5"])
    def test_sweep_without_workers_exit_code(self, tmp_path, capsys, workers):
        # refused before the output directory is made
        out = tmp_path / "out"
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"preset": "desk", "decoders": ["perfect"], "out_dir": str(out)}))
        assert cli_main(["sweep", "--spec", str(spec_path), "--workers", workers]) == 2
        out_text, err = capsys.readouterr()
        assert out_text == ""
        assert err == f"error: workers must be >= 1, got {workers}\n"
        assert not out.exists()

    def test_bad_config_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"nonsense": True}))
        assert cli_main(["run", "--config", str(bad), "--decoder", "perfect"]) == 2

    def test_run_multiple(self, tmp_path):
        out = tmp_path / "run"
        code = cli_main(
            ["run", "--preset", "desk", "--decoder", "perfect", "--runs", "3",
             "--seed", "8", "--out", str(out)]
        )
        assert code == 0
        lines = (out / "runs.jsonl").read_text().strip().splitlines()
        assert len(lines) == 3
        assert {json.loads(l)["run"] for l in lines} == {0, 1, 2}

    def test_sweep_command(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            json.dumps(
                {
                    "preset": "desk",
                    "axis": "none",
                    "decoders": ["perfect"],
                    "runs": 2,
                    "master_seed": 3,
                    "out_dir": str(tmp_path / "out"),
                }
            )
        )
        assert cli_main(["sweep", "--spec", str(spec_path)]) == 0
        assert (tmp_path / "out" / "summary.csv").exists()
