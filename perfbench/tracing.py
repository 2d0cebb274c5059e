"""Outside-in tracing of the tumaloc layers.

The tracer wraps a fixed list of public functions per package module and
installs each wrapper under every name the package's modules look it up by
(``tumaloc.scene.marcum_q1`` as well as ``tumaloc.specfun.marcum_q1``, or
``tumaloc.amp_dist.denoise_rows`` as well as
``tumaloc.amp_central.denoise_rows``).  Nothing inside ``src/`` changes.

Each call becomes a span ``(name, start, end, parent, phase)`` kept in
memory; spans are written out once, at the end.  A probe attached to a
function computes counters from its arguments and result after the span has
closed; its cost is recorded as a ``trace.probe`` span beside the call, so it
lands in no layer's self time.

Per-layer values are normalized to one set-up plus one round: for every
quantity, the set-up phase total is divided by the number of set-ups and the
run phase total by the number of traced rounds, and the two are added.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict

import numpy as np

# Functions timed per module.  A function's self time includes the helpers
# it calls that are not listed here (``transport_plan`` inside
# ``wasserstein_p``, ``residual_covariance`` inside ``amp_run``).  ``config``
# is left out because its cost is negligible; its helpers fold into their
# callers.  ``cli`` is off the measured path.
LAYER_FUNCTIONS = {
    "harness": ("prepare_context", "run_single", "run_sweep", "multiplicity_histogram"),
    "priors": ("load_or_build_prior", "compute_p_active", "compute_msg_probs", "build_prior"),
    "specfun": ("marcum_q1",),
    "scene": ("sample_scene", "sense_all", "messages_of", "detection_prob_array", "quantize_array"),
    "airlink": ("gen_codebook", "sample_fading", "effective_channels", "synthesize_rx"),
    "amp_central": ("build_mc_table", "amp_run", "denoise_rows", "onsager"),
    "amp_dist": ("distributed_decode", "local_amp_run", "aggregate_posteriors"),
    "metrics": ("wasserstein_p",),
}
PACKAGE_MODULES = tuple(LAYER_FUNCTIONS) + ("config", "cli")

_TINY = np.finfo(float).tiny


class _Args:
    """Call arguments addressable by position or by keyword."""

    def __init__(self, args, kwargs):
        self.args, self.kwargs = args, kwargs

    def get(self, pos: int, name: str):
        return self.args[pos] if pos < len(self.args) else self.kwargs[name]


class Tracer:
    """Span recorder; :meth:`install` and :meth:`uninstall` bracket a traced section."""

    def __init__(self):
        self.spans: list = []
        self.phase = "setup"
        self.counters = {"setup": defaultdict(float), "run": defaultdict(float)}
        self.ess_last: list = []        # ESS shares, last AMP iteration, MAP k >= 1 rows
        self._ess_pending: list = []    # per denoise call of the decode in progress
        self._stack: list = []
        self._patches: list = []

    # -- installation ---------------------------------------------------
    def install(self) -> None:
        mods = {m: importlib.import_module(f"tumaloc.{m}") for m in PACKAGE_MODULES}
        wrappers = {}
        for mod_name, fnames in LAYER_FUNCTIONS.items():
            for fname in fnames:
                fn = getattr(mods[mod_name], fname)
                probe = getattr(self, f"_probe_{mod_name}_{fname}", None)
                wrappers[id(fn)] = (fn, self._wrap(f"{mod_name}.{fname}", fn, probe))
        for mod in mods.values():
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    self._patches.append((mod, attr, val))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for mod, attr, val in reversed(self._patches):
            setattr(mod, attr, val)
        self._patches.clear()

    def _wrap(self, name, fn, probe):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.phase)
            if probe is not None:
                p0 = clock()
                probe(self.counters[self.phase], _Args(args, kwargs), result)
                spans.append(("trace.probe", p0, clock(), parent, self.phase))
            return result

        return traced

    # -- probes: counters measured where the work happens -----------------
    @staticmethod
    def _probe_specfun_marcum_q1(c, args, _res):
        c["marcum_q1_elems"] += np.broadcast(np.asarray(args.get(0, "a")), np.asarray(args.get(1, "b"))).size

    @staticmethod
    def _probe_scene_detection_prob_array(c, args, _res):
        c["detection_pairs"] += len(args.get(0, "sensors")) * len(args.get(1, "targets"))

    @staticmethod
    def _probe_harness_run_single(c, _args, rec):
        c[f"status.{rec['status']}"] += 1

    def _probe_amp_central_denoise_rows(self, c, _args, den):
        c["denoise_rows_calls"] += 1
        c["degenerate_rows"] += int(den.degenerate.sum())
        k_map = den.posterior.argmax(axis=1)
        rows = np.nonzero(k_map >= 1)[0]
        w = den.sample_weights[rows, k_map[rows] - 1, :]
        self._ess_pending.append(1.0 / (w * w).sum(axis=1) / w.shape[1] if rows.size else np.zeros(0))

    @staticmethod
    def _probe_amp_central_onsager(c, args, _q):
        R, den = args.get(0, "R"), args.get(1, "den")
        M = R.shape[0]
        K, N, B = den.shrink.shape
        omega = den.posterior[:, 1:, None] * den.sample_weights
        c["onsager_calls"] += 1
        c["onsager_gflop"] += 2.0 * M * K * N * B * B / 1e9
        c["weights_entries"] += omega.size
        c["weights_subnormal"] += int(np.count_nonzero((omega != 0) & (np.abs(omega) < _TINY)))

    def _take_last_iteration_ess(self, cfg):
        # a decode makes T_AMP * U denoise calls; the last U are its last iteration
        if self.phase == "run":
            self.ess_last.extend(self._ess_pending[-cfg.U:])
        self._ess_pending.clear()

    def _probe_amp_central_amp_run(self, c, args, _res):
        self._take_last_iteration_ess(args.get(4, "cfg"))

    def _probe_amp_dist_local_amp_run(self, c, args, _res):
        c["local_amp_run_calls"] += 1
        self._take_last_iteration_ess(args.get(5, "cfg"))

    @staticmethod
    def _probe_amp_dist_distributed_decode(c, _args, res):
        c["fronthaul_reals"] += res.diagnostics["fronthaul_reals_total"]

    @staticmethod
    def _probe_metrics_wasserstein_p(c, args, _res):
        c["wasserstein_calls"] += 1
        mu, mu_hat = args.get(0, "mu"), args.get(1, "mu_hat")
        c["lp_vars"] += int((mu.weights > 0).sum()) * int((mu_hat.weights > 0).sum())

    # -- reduction --------------------------------------------------------
    def self_times(self):
        """Self time per (phase, span name): duration minus direct children."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _phase in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {"setup": defaultdict(float), "run": defaultdict(float)}
        for i, (name, t0, t1, _parent, phase) in enumerate(self.spans):
            out[phase][name] += t1 - t0 - child[i]
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, t0, t1, parent, phase in self.spans:
                fh.write(json.dumps({"name": name, "start": t0, "end": t1,
                                     "parent": parent, "phase": phase}) + "\n")


def layer_metrics(tracer: Tracer, n_setups: int, n_rounds: int, setup_wall: float,
                  traced_wall: float, untraced_wall: float) -> dict:
    """Per-layer metrics for one set-up plus one round (see module docstring)."""
    selfs = tracer.self_times()

    def per_unit(table, key):
        return table["setup"].get(key, 0.0) / n_setups + table["run"].get(key, 0.0) / n_rounds

    def s(name):
        return per_unit(selfs, name)

    def n(key):
        return per_unit(tracer.counters, key)

    def ratio(num, den):
        return num / den if den > 0 else 0.0

    ess = np.concatenate(tracer.ess_last) if tracer.ess_last else np.zeros(0)

    m = {
        "harness.prepare_context_s": s("harness.prepare_context"),
        "harness.run_single_self_s": s("harness.run_single"),
        "harness.run_sweep_self_s": s("harness.run_sweep"),
        "harness.runs_ok": n("status.ok"),
        "harness.runs_empty_type": n("status.empty-type"),
        "harness.runs_no_active": n("status.no-active-sensors"),
        "priors.compute_p_active_s": s("priors.compute_p_active"),
        "priors.compute_msg_probs_s": s("priors.compute_msg_probs"),
        "priors.build_prior_s": s("priors.build_prior"),
        "specfun.marcum_q1_s": s("specfun.marcum_q1"),
        "specfun.marcum_q1_elems": n("marcum_q1_elems"),
        "specfun.marcum_q1_melems_per_s": ratio(n("marcum_q1_elems") / 1e6, s("specfun.marcum_q1")),
        "scene.detection_prob_array_s": s("scene.detection_prob_array"),
        "scene.detection_pairs": n("detection_pairs"),
        "scene.sample_scene_s": s("scene.sample_scene"),
        "scene.sense_all_s": s("scene.sense_all"),
        "scene.messages_of_s": s("scene.messages_of"),
        "airlink.gen_codebook_s": s("airlink.gen_codebook"),
        "airlink.sample_fading_s": s("airlink.sample_fading"),
        "airlink.effective_channels_s": s("airlink.effective_channels"),
        "airlink.synthesize_rx_s": s("airlink.synthesize_rx"),
        "amp_central.build_mc_table_s": s("amp_central.build_mc_table"),
        "amp_central.amp_run_self_s": s("amp_central.amp_run"),
        "amp_central.denoise_rows_s": s("amp_central.denoise_rows"),
        "amp_central.denoise_rows_calls": n("denoise_rows_calls"),
        "amp_central.onsager_s": s("amp_central.onsager"),
        "amp_central.onsager_calls": n("onsager_calls"),
        "amp_central.onsager_gflop": n("onsager_gflop"),
        "amp_central.onsager_gflop_per_s": ratio(n("onsager_gflop"), s("amp_central.onsager")),
        "amp_central.weights_subnormal_share": ratio(n("weights_subnormal"), n("weights_entries")),
        "amp_central.ess_share_median": float(np.median(ess)) if ess.size else 0.0,
        "amp_central.degenerate_rows": n("degenerate_rows"),
        "amp_dist.distributed_decode_s": s("amp_dist.distributed_decode"),
        "amp_dist.local_amp_run_s": s("amp_dist.local_amp_run"),
        "amp_dist.local_amp_run_calls": n("local_amp_run_calls"),
        "amp_dist.aggregate_posteriors_s": s("amp_dist.aggregate_posteriors"),
        "amp_dist.fronthaul_reals": n("fronthaul_reals"),
        "metrics.wasserstein_p_s": s("metrics.wasserstein_p"),
        "metrics.wasserstein_calls": n("wasserstein_calls"),
        "metrics.lp_vars": n("lp_vars"),
    }
    layer_total = 0.0
    for mod, fnames in LAYER_FUNCTIONS.items():
        total = sum(s(f"{mod}.{f}") for f in fnames)
        m[f"{mod}.self_s"] = total
        layer_total += total
    wall = setup_wall / n_setups + traced_wall / n_rounds
    m["trace.spans"] = (
        sum(1 for sp in tracer.spans if sp[4] == "setup") / n_setups
        + sum(1 for sp in tracer.spans if sp[4] == "run") / n_rounds
    )
    m["trace.probe_s"] = s("trace.probe")
    m["trace.overhead_s"] = (traced_wall - untraced_wall) / n_rounds
    m["trace.overhead_share"] = ratio(traced_wall - untraced_wall, untraced_wall)
    m["trace.unattributed_s"] = wall - layer_total - m["trace.probe_s"]
    m["trace.unattributed_share"] = ratio(m["trace.unattributed_s"], wall)
    return m
