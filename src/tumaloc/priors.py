"""Sensing-driven prior on per-zone message multiplicities.

The chain: a sensor is active iff it detects at least one target; actives
split uniformly across zones; an active sensor in zone u picks message m
with a probability obtained by integrating detection-and-closest events
over the quantizer cell of m.  Marginalizing the binomial chain gives
``p(k_{u,m} = k)`` in closed form, by binomial thinning.  The prior keeps
k = 0..K_max and is evaluated only there; the mass beyond K_max enters its
normalization check as the closed-form binomial tail.

The two spatial integrals (activation, message selection) have no closed
form and are estimated once per configuration by Monte Carlo, then cached
to a JSON file keyed by a hash of the sensing-relevant config fields.
Because targets are i.i.d. uniform, the T-dimensional integrals factorize
exactly into powers of 2-D integrals; only those 2-D integrals are sampled.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass

import numpy as np
from scipy.special import bdtrc

from .airlink import STREAM_PRIORS, substream
from .config import SystemConfig, Topology
from .scene import Quantizer, _detection_prob_d2, _pair_d2, quantize_array
from .specfun import binom_logpmf

__all__ = [
    "MultiplicityPrior",
    "compute_p_active",
    "compute_msg_probs",
    "build_prior",
    "prior_cache_key",
    "load_or_build_prior",
]

DEFAULT_N_ACTIVE = 20_000
DEFAULT_N_CELL = 2_000

# (sensor, target) pairs per batch of the two integrals.  The batches bound
# their working arrays, and the detection kernel's, to a few MB whatever the
# sample counts; they do not change the results.
_PD_BLOCK = 2**15


@dataclass(frozen=True)
class MultiplicityPrior:
    """Per-(zone, message) pmf over multiplicities k = 0..K_max.

    ``pmf`` is the untruncated distribution cut at ``K_max`` without
    renormalization; the decoder's Bayes ratio self-normalizes.
    """

    pmf: np.ndarray            # (U, M, K_max + 1)
    p_active: float
    msg_probs: np.ndarray      # (U, M) conditional message probabilities
    K_max: int

    @property
    def log_pmf(self) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return np.log(self.pmf)


def compute_p_active(cfg: SystemConfig, topology: Topology, n_int: int = DEFAULT_N_ACTIVE) -> float:
    """Average sensor activation probability.

    ``p_active(s) = 1 - I(s)^T`` with ``I(s)`` the mean single-target miss
    probability at sensor position s; both integrals by MC over uniform
    samples.  The i.i.d.-target factorization replaces the T-dimensional
    integral exactly.

    The chunking fixes the random stream: ``n_inner`` targets per sensor
    and chunks of ``chunk`` sensor samples, each chunk drawing its sensors
    and then one target cloud.  Within a chunk the (sensor, target) pairs
    go through the one-pass detection kernel in batches of whole sensor
    rows, about ``_PD_BLOCK`` pairs each, which bound its working arrays;
    that batching does not touch the stream, and each row's mean is summed
    as over the whole chunk, so the result does not depend on it.
    """
    if n_int < 1:
        raise ValueError("n_int must be positive")
    rng = substream(cfg.master_seed, STREAM_PRIORS, 0)
    side = cfg.area_side
    # Outer MC over sensor positions; the inner single-target miss integral
    # I(s) uses a fresh target cloud per chunk of sensor samples.
    n_inner = min(2000, max(200, n_int // 10))
    chunk = max(1, int(4e6) // n_inner)
    rows = max(1, _PD_BLOCK // n_inner)
    acc = 0.0
    done = 0
    while done < n_int:
        n_s = min(chunk, n_int - done)
        sensors = rng.uniform(0, side, size=(n_s, 2))
        targets = rng.uniform(0, side, size=(n_inner, 2))
        mean_pd = np.empty(n_s)
        for lo in range(0, n_s, rows):
            d2 = _pair_d2(sensors[lo : lo + rows, None], targets[None])
            mean_pd[lo : lo + rows] = _detection_prob_d2(d2, cfg).mean(axis=1)
        miss = 1.0 - mean_pd                # I(s) per sensor sample
        acc += float(np.sum(1.0 - miss**cfg.T_targets))
        done += n_s
    return acc / n_int


def compute_msg_probs(
    cfg: SystemConfig,
    topology: Topology,
    quantizer: Quantizer,
    n_int: int = DEFAULT_N_CELL,
) -> np.ndarray:
    """Conditional message probabilities p(m | active sensor in zone u), shape (U, M).

    Raw cell masses are MC estimates of the detect-and-closest integral over
    (sensor in zone, target in cell); they are normalized per zone so the
    binomial message-selection model is a proper distribution.

    Sampling is pooled: each sensor draw is paired with a shared cloud of
    target samples that serves simultaneously as the message-cell candidates
    and, radially sorted, as the closest-competitor integral, so every cell
    receives ``n_int`` effective samples at far lower cost than independent
    per-cell integration.

    The stream is fixed by the sample counts alone: per zone, the sensor
    positions, then one target cloud per sensor in sensor order.  Sensors
    are handled in batches of about ``_PD_BLOCK`` pairs, which bound the
    working arrays of the one-pass detection kernel and of the sums.  A
    batch's clouds come from one draw of the same stream; the sort, the
    prefix sums and the cell sums run along each sensor's row and the rows
    are added into the zone in sensor order, so the batching does not
    change the result.
    """
    if n_int < 1:
        raise ValueError("n_int must be positive")
    rng = substream(cfg.master_seed, STREAM_PRIORS, 2)
    U, M = topology.U, quantizer.M
    # the outer sensor average dominates the variance: spend ~n_int/8 draws
    # on it, and size each draw's target cloud so every cell still sees at
    # least n_int effective samples in total
    n_sensors = max(64, n_int // 8)
    n_targets = max(4096, 4 * M, int(np.ceil(n_int * M / n_sensors)))
    batch = max(1, _PD_BLOCK // n_targets)
    raw = np.zeros((U, M))
    Tm1 = cfg.T_targets - 1
    for u in range(U):
        x0, y0, x1, y1 = topology.zone_rects[u]
        svals = np.stack(
            [rng.uniform(x0, x1, n_sensors), rng.uniform(y0, y1, n_sensors)], axis=1
        )
        for lo in range(0, n_sensors, batch):
            s = svals[lo : lo + batch]
            nb = s.shape[0]
            # one target cloud per sensor, drawn as one sensor at a time would
            clouds = rng.uniform(0, cfg.area_side, size=(nb, n_targets, 2))
            d2 = _pair_d2(s[:, None], clouds)
            order = np.argsort(d2, axis=1)
            pd = np.take_along_axis(_detection_prob_d2(d2, cfg), order, axis=1)
            # J at the radius of each sample: competitors strictly closer
            J = np.ones_like(pd)
            J[:, 1:] -= np.cumsum(pd, axis=1)[:, :-1] / n_targets
            weights = pd * J**Tm1 if Tm1 > 0 else pd
            cells = quantize_array(quantizer, clouds.reshape(-1, 2)).reshape(nb, n_targets)
            cells = np.take_along_axis(cells, order, axis=1)
            cells += M * np.arange(nb)[:, None]
            counts = np.bincount(cells.ravel(), weights=weights.ravel(), minlength=nb * M)
            counts /= n_targets
            # sensor by sensor, so the sums round as one sensor at a time would
            for row in counts.reshape(nb, M):
                raw[u] += row
        raw[u] /= n_sensors
    totals = raw.sum(axis=1, keepdims=True)
    if np.any(totals <= 0):
        raise ValueError("message-probability integration produced an all-zero zone")
    return raw / totals


def build_prior(cfg: SystemConfig, p_active: float, msg_probs: np.ndarray) -> MultiplicityPrior:
    """Assemble the truncated multiplicity prior from the integral tables.

    The chain ``p(k) = sum_{Ka} sum_{Kau} Bin(k; Kau, pm) Bin(Kau; Ka, 1/U)
    Bin(Ka; K, p_active)`` is three successive binomial thinnings of the K
    sensors, so it equals ``Bin(k; K, q)`` with ``q = p_active pm / U``.  Only
    the kept columns k = 0..K_max are evaluated, with log-domain binomials;
    the check that each row sums to 1 adds the closed-form tail
    ``P(k > K_max) = bdtrc(K_max, K, q)``.
    """
    msg_probs = np.asarray(msg_probs, dtype=float)
    q = p_active * msg_probs[..., None] / cfg.U
    pmf = np.exp(binom_logpmf(np.arange(cfg.K_max + 1), cfg.K, q))
    sums = pmf.sum(axis=-1) + bdtrc(cfg.K_max, cfg.K, q[..., 0])
    if np.any(np.abs(sums - 1.0) > 1e-10):
        raise AssertionError("untruncated prior does not sum to 1")
    return MultiplicityPrior(pmf=pmf, p_active=float(p_active), msg_probs=msg_probs,
                             K_max=cfg.K_max)


_SENSING_FIELDS = (
    "area_side",
    "zone_grid",
    "K",
    "T_targets",
    "Ns",
    "M",
    "K_max",
    "S_rcs",
    "f_c",
    "P_n",
    "P_s",
    "gamma_threshold",
)

CACHE_VERSION = 4


def prior_cache_key(cfg: SystemConfig, n_active: int, n_cell: int) -> str:
    blob = json.dumps(
        {f: getattr(cfg, f) for f in _SENSING_FIELDS}
        | {"n_active": n_active, "n_cell": n_cell, "seed": cfg.master_seed, "v": CACHE_VERSION},
        sort_keys=True,
        default=list,
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _cached_prior(doc, key: str, cfg: SystemConfig) -> MultiplicityPrior | None:
    """The prior held by a parsed cache document, or None unless it is well formed.

    Well formed: an object with this ``key``, ``K_max`` equal to the
    configuration's, ``p_active`` a number in [0, 1], and a (U, M)
    ``msg_probs`` table in [0, 1] whose zone rows sum to 1 within
    :func:`build_prior`'s 1e-10.  The pmf is rebuilt by :func:`build_prior`;
    a ``pmf`` entry in an older file is ignored.
    """
    if not isinstance(doc, dict) or doc.get("key") != key or doc.get("K_max") != cfg.K_max:
        return None
    p_active = doc.get("p_active")
    if type(p_active) not in (int, float) or not 0.0 <= p_active <= 1.0:
        return None
    try:
        msg_probs = np.array(doc.get("msg_probs"), dtype=float)
    except (TypeError, ValueError):             # ragged or non-numeric lists
        return None
    if msg_probs.shape != (cfg.U, cfg.M) or not ((msg_probs >= 0) & (msg_probs <= 1)).all():
        return None
    if np.any(np.abs(msg_probs.sum(axis=1) - 1.0) > 1e-10):
        return None
    return build_prior(cfg, p_active, msg_probs)


def load_or_build_prior(
    cfg: SystemConfig,
    topology: Topology,
    quantizer: Quantizer,
    cache_dir: str | None = None,
    n_active: int = DEFAULT_N_ACTIVE,
    n_cell: int = DEFAULT_N_CELL,
) -> MultiplicityPrior:
    """Build the prior, reusing the cache file when the config hash matches.

    A cache file that does not parse, holds another key or does not hold a
    well-formed prior for this configuration is rebuilt and overwritten.
    The file is written to a temporary name in the cache directory and then
    moved into place, so an interrupted write never leaves a partial cache
    file.
    """
    key = prior_cache_key(cfg, n_active, n_cell)
    path = None
    if cache_dir is not None:
        os.makedirs(cache_dir, exist_ok=True)
        path = os.path.join(cache_dir, f"prior_{key}.json")
        try:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
        except (FileNotFoundError, ValueError):   # JSON and UTF-8 decode errors alike
            doc = None
        cached = _cached_prior(doc, key, cfg)
        if cached is not None:
            return cached
    p_active = compute_p_active(cfg, topology, n_active)
    msg_probs = compute_msg_probs(cfg, topology, quantizer, n_cell)
    prior = build_prior(cfg, p_active, msg_probs)
    if path is not None:
        doc = {
            "key": key,
            "p_active": prior.p_active,
            "msg_probs": prior.msg_probs.tolist(),
            "K_max": prior.K_max,
        }
        fd, tmp = tempfile.mkstemp(dir=cache_dir, prefix=".prior_", suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(doc, fh)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    return prior
