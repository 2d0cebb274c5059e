"""Experiment orchestration: single runs, sweeps, seed management, persistence.

A single run walks the whole pipeline: sample scene -> probabilistic sensing
-> quantize reports into messages -> (perfect-communication oracle: hand the
true type to the receiver; otherwise synthesize the (Nc, F) received signal
on the point's codebook with ``airlink.uplink``, draw the MC table and
decode) -> metrics.  A sweep draws each run once, :func:`draw_run`, and
hands the draws to every decoder it compares.  Sweeps vary received SNR,
the split of the base config's ``Ns + Nc`` between sensing and
communication, or quantizer resolution; records are written as JSON lines,
the first decoder's as each run returns, aggregates as CSV.  A spec file's
``preset`` and ``config`` are read as a config file is.

Seeds: every run gets a 64-bit seed from a splitmix-style mix of
(master seed, sweep point index, run index); the run's scene, sensing,
fading, noise and MC table derive from documented sub-streams of that run
seed (see airlink).  The codebook and the prior take no seed: both are
system knowledge, the same for every run and every master seed.  The
codebook is ``airlink.gen_codebook(cfg, 0)``, drawn once per
:class:`PointContext` at its first decode (:attr:`PointContext.codebook`);
the prior draws from a fixed stream (see priors).
"""

from __future__ import annotations

import csv
import functools
import json
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from . import airlink, amp_central, amp_dist, metrics, priors, scene as scene_mod
from .config import (
    ConfigError,
    SystemConfig,
    Topology,
    _fields_from_json,
    build_topology,
    config_from_dict,
    sigma_w2_for_snr_rx,
)
from .scene import Quantizer, build_quantizer

__all__ = [
    "ExperimentSpec",
    "PointContext",
    "RunDraws",
    "derive_run_seed",
    "draw_run",
    "prepare_context",
    "run_single",
    "run_sweep",
    "multiplicity_histogram",
    "DECODERS",
]

DECODERS = ("centralized", "distributed", "perfect")

_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_run_seed(master_seed: int, point_index: int, run_index: int) -> int:
    """Documented 64-bit mix; each (point, run) is independently reproducible."""
    x = master_seed & _MASK64
    for word in (point_index, run_index, 0):    # the 0 word is part of the documented mix
        x = _splitmix64(x ^ _splitmix64(word & _MASK64))
    return x


@dataclass(frozen=True)
class PointContext:
    """Immutable per-sweep-point state shared by all runs at that point."""

    cfg: SystemConfig
    topology: Topology
    quantizer: Quantizer
    prior: priors.MultiplicityPrior | None

    @functools.cached_property
    def codebook(self) -> np.ndarray:
        """The point's read-only (Nc, U, M) codebook, ``airlink.gen_codebook(cfg, 0)``.

        In TUMA the codebook is fixed and shared by the users and the
        receiver, so every run at the point transmits on it.  It is drawn
        on first read and kept on the context, so a context that only runs
        the perfect decoder never draws it; assigning to it raises, as for
        any field of the frozen context.
        """
        codebook = airlink.gen_codebook(self.cfg, 0)
        codebook.flags.writeable = False
        return codebook


def prepare_context(
    cfg: SystemConfig, cache_dir: str | None = None, need_prior: bool = True
) -> PointContext:
    topo = build_topology(cfg)
    quant = build_quantizer(cfg.M.bit_length() - 1, cfg.area_side)    # M is 2**bits
    prior = (
        priors.load_or_build_prior(cfg, topo, quant, cache_dir=cache_dir)
        if need_prior
        else None
    )
    return PointContext(cfg=cfg, topology=topo, quantizer=quant, prior=prior)


@dataclass(frozen=True)
class RunDraws:
    """Everything a run draws from its seed; every decoder of a sweep run reads the same.

    The uplink, received signal ``Y`` and MC table ``mc``, is drawn only
    when some decoder decodes and a sensor is active, else None; ``Y`` is
    sent on the context's :attr:`PointContext.codebook`, which no run
    draws.  The arrays are read-only, so that no decoder changes what the
    next one reads.
    """

    scene: scene_mod.Scene
    round: airlink.TransmissionRound
    Y: np.ndarray | None = None
    mc: np.ndarray | None = None


def draw_run(ctx: PointContext, seed: int, decoders: tuple[str, ...]) -> RunDraws:
    """Draw the scene, the round and, if one of ``decoders`` decodes, the uplink of run ``seed``.

    The uplink is sent on ``ctx.codebook``, so the first such draw on a
    context draws the codebook too; the scene, fading, noise and MC table
    are sub-streams of ``seed``.
    """
    cfg = ctx.cfg
    sc = scene_mod.sample_scene(cfg, ctx.topology, seed)
    sc = scene_mod.sense_all(sc, cfg, airlink.substream(seed, airlink.STREAM_SCENE, 1))
    round_ = scene_mod.messages_of(sc, ctx.quantizer, cfg.U)
    if round_.K_a == 0 or all(d == "perfect" for d in decoders):
        return RunDraws(sc, round_)
    Y = airlink.uplink(round_, ctx.codebook, ctx.topology, cfg, seed)
    mc = amp_central.build_mc_table(cfg, ctx.topology, seed)
    for a in (Y, mc):
        a.flags.writeable = False
    return RunDraws(sc, round_, Y, mc)


def run_single(ctx: PointContext, decoder: str, seed: int, draws: RunDraws | None = None) -> dict:
    """One end-to-end run; returns a JSON-serializable record.

    ``draws`` are the run's :func:`draw_run` draws, shared with the other
    decoders of a sweep run; without them the run draws its own, with the
    same helper, and ``wall_time_s`` includes them, with the codebook's
    draw on a context's first decode.  Decode and transport-LP failures
    and degenerate outcomes are recorded in ``status`` rather than raised;
    sensing-side metrics are filled in whenever the scene has at least one
    active sensor.
    """
    if decoder not in DECODERS:
        raise ConfigError(f"unknown decoder {decoder!r}")
    t0 = time.perf_counter()
    if draws is None:
        draws = draw_run(ctx, seed, (decoder,))
    round_ = draws.round
    rec = {
        "seed": seed,
        "decoder": decoder,
        "K_a": round_.K_a,
        "status": "ok",
        "tv": None,
        "w_p": None,
        "p_md": None,
        "T_d": None,
        "gospa": None,
        "decode_iters": None,
    }
    if round_.K_a == 0:
        rec["status"] = "no-active-sensors"
    else:
        _fill_metrics(ctx, decoder, draws, rec)
    rec["wall_time_s"] = time.perf_counter() - t0
    return rec


def _fill_metrics(ctx: PointContext, decoder: str, draws: RunDraws, rec: dict) -> None:
    """Fill ``rec`` with the metrics of a run with at least one active sensor."""
    cfg = ctx.cfg
    sc, round_ = draws.scene, draws.round
    omega, T_d = metrics.target_type(sc)
    rec["T_d"] = T_d
    rec["p_md"] = metrics.misdetection(T_d, sc.T)
    t_true = round_.true_type

    if decoder == "perfect":
        t_hat = t_true
    else:
        if ctx.prior is None:
            raise ConfigError("decoder runs need a prepared prior (need_prior=True)")
        args = (draws.Y, ctx.codebook, ctx.prior, draws.mc, cfg)
        try:
            if decoder == "centralized":
                result = amp_central.amp_run(*args)
            else:
                result = amp_dist.distributed_decode(*args)
        except amp_central.DecodeError as exc:
            rec["status"] = f"decode-error:{exc.iteration}"
            return
        if result.empty_type:
            rec["status"] = "empty-type"
            return
        t_hat = result.t_hat
        rec["decode_iters"] = len(result.diagnostics["tau_trace"])

    rec["tv"] = metrics.tv_distance(t_true, t_hat)
    mu = metrics.WeightedPointSet(sc.targets, omega)
    mu_hat = metrics.WeightedPointSet(ctx.quantizer.grid_points, t_hat)
    try:
        w_val = metrics.wasserstein_p(mu, mu_hat, cfg.p_order)
    except RuntimeError:
        # transport LP failed: keep the sensing and type metrics of the run
        rec["status"] = "lp-error"
        return
    rec["w_p"] = w_val
    rec["gospa"] = metrics.gospa_like(w_val, T_d, sc.T, cfg.c_gospa, cfg.p_order)


@dataclass(frozen=True)
class ExperimentSpec:
    """Sweep description: base config, axis, decoders, runs, seeds, output."""

    base: SystemConfig
    axis: str = "none"                 # none | snr_rx | ns | bits
    values: tuple[float, ...] = ()     # integers on the ns and bits axes
    decoders: tuple[str, ...] = ("centralized",)
    runs: int = 1
    master_seed: int = 0
    out_dir: str = "results"
    prior_cache: str | None = None

    def __post_init__(self):
        if self.axis not in ("none", "snr_rx", "ns", "bits"):
            raise ConfigError(f"unknown sweep axis {self.axis!r}")
        if (self.axis != "none") != bool(self.values):
            raise ConfigError("values must be non-empty on a swept axis and empty on axis none")
        if self.runs < 1:
            raise ConfigError("runs must be >= 1")
        if self.master_seed < 0:
            raise ConfigError(f"master_seed must be non-negative, got {self.master_seed}")
        if not self.decoders or not set(self.decoders) <= set(DECODERS):
            raise ConfigError(f"decoders must be one or more of {DECODERS}, got {self.decoders}")

    def point_values(self) -> tuple:
        return (None,) if self.axis == "none" else tuple(self.values)

    def point_config(self, value) -> SystemConfig:
        cfg = self.base
        if self.axis == "none":
            return cfg
        if self.axis == "snr_rx":
            updates = {"sigma_w2": sigma_w2_for_snr_rx(cfg, build_topology(cfg), float(value))}
        elif self.axis == "ns":
            updates = {"Ns": int(value), "Nc": cfg.Ns + cfg.Nc - int(value)}
        else:
            updates = {"M": 2 ** int(value)}
        try:
            return cfg.with_updates(**updates)
        except ConfigError as exc:
            raise ConfigError(f"sweep point {self.axis}={value}: {exc}") from None


def spec_from_json(path) -> ExperimentSpec:
    """Load a sweep spec; its ``preset`` and ``config`` go through ``config_from_dict``."""
    with open(path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict) or not isinstance(raw.get("config", {}), dict):
        raise ConfigError("a sweep spec and its config must be JSON objects")
    config = raw.pop("config", {})
    if "preset" in raw:
        config = {**config, "preset": raw.pop("preset")}
    # the one rule a field's type cannot state: ns and bits points are integers
    values = tuple[int, ...] if raw.get("axis") in ("ns", "bits") else tuple[float, ...]
    kwargs = _fields_from_json(ExperimentSpec, raw, "sweep-spec", skip=("base",), values=values)
    return ExperimentSpec(base=config_from_dict(config), **kwargs)


def run_sweep(spec: ExperimentSpec, progress=None, workers: int = 1) -> dict:
    """Execute the sweep; returns the aggregate table and writes output files.

    Files: ``runs.jsonl`` (one record per run and decoder, timestamps in a
    separate field) and ``summary.csv`` (one row per sweep point per
    decoder, means and standard errors over non-degenerate runs).  Each
    (point, run) is drawn once, by :func:`draw_run`, and every decoder of
    the spec decodes those draws through :func:`run_single`, so the
    decoders see the same scene, received signal and MC table, and each
    record equals a standalone ``run_single`` of its (decoder, seed); its
    ``wall_time_s`` leaves out the shared draws.  Every run of a point
    transmits on the point's one codebook (:attr:`PointContext.codebook`),
    drawn at the point's first decode and not at all by a perfect-only
    sweep.  ``workers > 1`` runs each point's runs on one thread pool kept
    for the sweep, ``workers == 1`` in the calling thread.  Records are
    written in (point, decoder, run) order: the first decoder's as each run
    returns, the other decoders' once the point's last run has returned.
    Every point's config is built first, so a bad point fails before any
    file is touched.
    """
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    configs = [spec.point_config(value) for value in spec.point_values()]
    os.makedirs(spec.out_dir, exist_ok=True)
    jsonl_path = os.path.join(spec.out_dir, "runs.jsonl")
    csv_path = os.path.join(spec.out_dir, "summary.csv")
    need_prior = any(d != "perfect" for d in spec.decoders)
    records = []
    try:
        jsonl = open(jsonl_path, "w", buffering=1)   # line-buffered: one write per record
    except OSError as exc:
        raise ConfigError(f"cannot write {jsonl_path}: {exc}") from exc
    pool = ThreadPoolExecutor(max_workers=workers) if workers > 1 else nullcontext()

    def write(rec: dict) -> None:
        rec["timestamp"] = time.time()
        records.append(rec)
        jsonl.write(json.dumps(rec) + "\n")
        if progress is not None:
            progress(rec)

    def decode_all(ctx: PointContext, seed: int) -> list[dict]:
        draws = draw_run(ctx, seed, spec.decoders)
        return [run_single(ctx, decoder, seed, draws) for decoder in spec.decoders]

    with jsonl, pool:
        run_map = pool.map if workers > 1 else map
        for p_idx, (value, cfg) in enumerate(zip(spec.point_values(), configs)):
            ctx = prepare_context(cfg, cache_dir=spec.prior_cache, need_prior=need_prior)
            if workers > 1 and need_prior:
                ctx.codebook    # drawn here, so that no two threads draw it at once
            seeds = [derive_run_seed(spec.master_seed, p_idx, r_idx) for r_idx in range(spec.runs)]
            later = []      # per run, the records of the decoders after the first
            for r_idx, recs in enumerate(run_map(functools.partial(decode_all, ctx), seeds)):
                for rec in recs:
                    rec.update({"point": value, "point_index": p_idx, "run": r_idx})
                write(recs[0])
                later.append(recs[1:])
            for d_idx in range(len(spec.decoders) - 1):
                for recs in later:
                    write(recs[d_idx])
    table = aggregate_records(records)
    _write_summary_csv(csv_path, table)
    return {"records": records, "summary": table, "jsonl": jsonl_path, "csv": csv_path}


_METRIC_KEYS = ("tv", "w_p", "p_md", "gospa")


def aggregate_records(records: list[dict]) -> list[dict]:
    """Per (point, decoder) means/standard errors over non-degenerate runs."""
    groups: dict = {}
    for rec in records:
        groups.setdefault((rec["point_index"], rec["point"], rec["decoder"]), []).append(rec)
    table = []
    for (p_idx, value, decoder), recs in sorted(groups.items(), key=lambda kv: (kv[0][0], kv[0][2])):
        row = {
            "point_index": p_idx,
            "point": value,
            "decoder": decoder,
            "runs": len(recs),
            "degenerate": sum(1 for r in recs if r["status"] != "ok"),
        }
        for key in _METRIC_KEYS:
            vals = [r[key] for r in recs if r["status"] == "ok" and r[key] is not None]
            row[f"{key}_mean"] = float(np.mean(vals)) if vals else None
            row[f"{key}_se"] = (
                float(np.std(vals, ddof=1) / math.sqrt(len(vals))) if len(vals) > 1 else None
            )
        table.append(row)
    return table


def _write_summary_csv(path: str, table: list[dict]) -> None:
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(table[0].keys()))
            writer.writeheader()
            writer.writerows(table)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def multiplicity_histogram(cfg: SystemConfig, runs: int, seed: int) -> dict:
    """Pooled histogram of nonzero per-(zone, message) multiplicities.

    Also reports the fraction of transmissions whose codeword was sent by
    more than one sensor (the collision fraction).  Round ``r`` is the
    :func:`draw_run` round of ``derive_run_seed(seed, 0, r)``, as run r of a
    one-point sweep with master seed ``seed``.  ``runs`` must be >= 1 and
    ``seed`` non-negative.
    """
    if runs < 1:
        raise ConfigError(f"runs must be >= 1, got {runs}")
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    ctx = prepare_context(cfg, need_prior=False)
    nonzero = [np.zeros(0, dtype=int)]
    for r_idx in range(runs):
        k = draw_run(ctx, derive_run_seed(seed, 0, r_idx), ()).round.multiplicities
        nonzero.append(k[k > 0])
    nz = np.concatenate(nonzero)
    n_all = len(nz)
    total = int(nz.sum())
    collided = int(nz[nz >= 2].sum())
    hist = np.bincount(nz, minlength=1) / max(n_all, 1)
    return {
        "hist": hist,                       # hist[k] = P(multiplicity == k | nonzero)
        "collision_fraction": collided / total if total else 0.0,
        "pooled_codewords": n_all,
        "runs": runs,
    }
