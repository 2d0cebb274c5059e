"""Sensing-driven prior on per-zone message multiplicities.

The chain: a sensor is active iff it detects at least one target; actives
split uniformly across zones; an active sensor in zone u picks message m
with a probability obtained by integrating detection-and-closest events
over the quantizer cell of m.  Marginalizing the binomial chain gives
``p(k_{u,m} = k)`` in closed form, by binomial thinning.  The prior keeps
k = 0..K_max and is evaluated only there; the mass beyond K_max enters its
normalization check as the closed-form binomial tail.

The two spatial integrals (activation, message selection) have no closed
form.  They are computed once per configuration and cached to a JSON file
keyed by a hash of the sensing-relevant config fields.  Because targets are
i.i.d. uniform, the T-dimensional integrals factorize exactly into powers
of 2-D integrals.  The activation integral is deterministic: its outer
mean over sensor positions is a Gauss-Legendre rule on the square's
symmetric eighth, and its inner single-target detection integral a radial
quadrature, exact to about 1e-10, so that raising it to the T-th power adds
no bias.  The message-selection integral is Monte Carlo in both the
sensor and the target position, for one zone per orbit of the square's
axis mirrors; the other zones are exact mirror images of their
representative's table.  It draws from one fixed stream,
``substream(0, STREAM_PRIORS, 2)``, so the prior depends only on the
configuration and the sample count: it is system knowledge, the same for
every run seed.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass

import numpy as np
from scipy.special import bdtrc, roots_legendre

from .airlink import STREAM_PRIORS, substream
from .config import SystemConfig, Topology
from .scene import Quantizer, _detection_prob_d2, _noncentrality_scale, _pair_d2, quantize_array
from .specfun import _MARCUM_ONE_GAP, binom_logpmf

__all__ = [
    "MultiplicityPrior",
    "compute_p_active",
    "compute_msg_probs",
    "build_prior",
    "prior_cache_key",
    "load_or_build_prior",
]

# the activation sample count callers still pass; compute_p_active ignores it
DEFAULT_N_ACTIVE = 20_000
DEFAULT_N_CELL = 2_000

# Detection-probability evaluations per batch of the two integrals:
# (sensor, target) pairs of the message-selection integral, (sensor, radial
# node) pairs of the activation integral.  The batches bound their working
# arrays, and the detection kernel's, to a few MB whatever the sample
# counts; they do not change the results.
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


# Gauss-Legendre nodes per piece of the radial activation integral, and the
# detection probabilities at whose radii its pieces are split besides the
# table start: pd's shoulder, its midpoint and its fall-off towards the
# false-alarm floor.  With these the per-sensor integral is within 1e-10 of
# an adaptive quadrature at the desk and paper link budgets; the worst
# sensors sit a few cm from an edge, where a corner distance falls just past
# the other edge's distance and its square-root branch point.
_RADIAL_NODES = 20
_PD_SPLIT_LEVELS = (0.999, 0.5, 1e-3, 1e-6)

# Gauss-Legendre nodes per piece and axis of the outer sensor rule
# (:func:`_sensor_rule`): 1176 sensors on the desk and paper link budgets,
# within 1.2e-12 of a 51 360-node rule of equal pieces.
_SENSOR_NODES = 8


def _radial_rule() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [0, 1] of Gauss-Legendre in t after ``x = (1 - cos(pi t)) / 2``.

    The map's Jacobian vanishes at both ends of a piece, which takes out the
    square-root behaviour of the inside angle at an edge or corner distance.
    """
    t, w = roots_legendre(_RADIAL_NODES)
    t = 0.5 * (t + 1.0)
    return 0.5 * (1.0 - np.cos(np.pi * t)), 0.25 * np.pi * np.sin(np.pi * t) * w


def _falloff_radii(cfg: SystemConfig) -> np.ndarray:
    """The radius below which pd is 1, and where pd falls through each split level.

    The crossings are read off pd on a geometric grid of radii up to the
    area's diagonal, and a level that pd stays above there has none.  They
    only place piece boundaries, so the grid's resolution does not bound
    the integral's accuracy.
    """
    b = float(np.sqrt(cfg.gamma_threshold))
    r0 = float(np.sqrt(_noncentrality_scale(cfg) / (b + _MARCUM_ONE_GAP)))
    diag = np.sqrt(2.0) * cfg.area_side
    if not r0 < diag:
        return np.array([r0])
    r = np.geomspace(r0, diag, 4097)
    pd = _detection_prob_d2(r * r, cfg)
    # pd falls with r: the first grid radius below each level
    at = np.searchsorted(-pd, -np.asarray(_PD_SPLIT_LEVELS))
    return np.concatenate([[r0], r[at[at < r.size]]])


def _detection_integral(sensors: np.ndarray, cfg: SystemConfig) -> np.ndarray:
    """Probability ``I(s)`` that one uniform target is detected from each sensor position s.

    ``I(s) = (1/S^2) int_0^R pd(r^2) r theta_s(r) dr`` over the distance r
    to the target, with R the distance to the farthest corner and
    ``theta_s(r)`` the angle of the radius-r circle about s inside the
    square: ``2 pi - 2 sum_i alpha_i + sum_corners max(0, alpha_i + alpha_j - pi/2)``
    with ``alpha_i = arccos(min(1, d_i / r))`` over the four edge distances
    ``d_i`` and the corners' two edges i, j.  ``[0, R]`` is split at the
    edge and corner distances and at :func:`_falloff_radii`, and each piece
    takes :func:`_radial_rule`.  Sensors go in batches of about
    ``_PD_BLOCK`` nodes; each sensor's sum runs over its own nodes only, so
    the batching does not change the result.
    """
    side = cfg.area_side
    x, wx = _radial_rule()
    falloff = _falloff_radii(cfg)
    n_pieces = 8 + falloff.size
    batch = max(1, _PD_BLOCK // (n_pieces * x.size))
    out = np.empty(len(sensors))
    for lo in range(0, len(sensors), batch):
        s = sensors[lo : lo + batch]
        # distances to the left, bottom, right and top edges, and to the
        # corner each edge shares with the next one
        d = np.concatenate([s, side - s], axis=1)
        corner = np.hypot(d, np.roll(d, -1, axis=1))
        R = corner.max(axis=1, keepdims=True)
        ends = np.concatenate([np.zeros_like(R), d, corner,
                               np.broadcast_to(falloff, (len(s), falloff.size))], axis=1)
        ends = np.sort(np.minimum(ends, R), axis=1)
        width = np.diff(ends, axis=1)[..., None]
        r = ends[:, :-1, None] + width * x                     # (sensors, pieces, nodes)
        # corner i, shared by edges i and i + 1, adds its overlap on the
        # pieces past its distance: theta = 2 pi - (pi/2) (corners passed)
        # - sum_i (2 - corners of edge i passed) alpha_i there
        passed = ends[:, :-1, None] >= corner[:, None, :]      # (sensors, pieces, corners)
        theta = np.repeat(2.0 * np.pi - 0.5 * np.pi * passed.sum(axis=2), x.size).reshape(r.shape)
        weight = 2 - passed - np.roll(passed, 1, axis=2)
        for i in range(4):
            # r = 0 gives d / r = inf or nan, and fmin takes either to 1
            with np.errstate(divide="ignore", invalid="ignore"):
                alpha = np.divide(d[:, i, None, None], r)
            np.fmin(alpha, 1.0, out=alpha)
            np.arccos(alpha, out=alpha)
            alpha *= weight[:, :, i, None]
            theta -= alpha
        f = _detection_prob_d2(r * r, cfg)
        f *= r
        f *= theta
        f *= width * wx
        out[lo : lo + len(s)] = f.sum(axis=(1, 2))
    return out / side**2


def _sensor_rule(cfg: SystemConfig) -> tuple[np.ndarray, np.ndarray]:
    """Sensor nodes on the square's eighth ``0 <= y <= x <= S/2`` and weights summing to 1.

    The mean over the square of a function with its 8-fold symmetry is its
    mean over the quarter ``[0, S/2]^2``, taken here by a tensor
    Gauss-Legendre rule.  Each axis is split at the fall-off radii r and at
    ``S - r`` (where an edge distance passes through pd's fall-off, so that
    ``I(s)`` bends) that fall inside ``(0, S/2)``, with ``_SENSOR_NODES``
    nodes a piece; both axes share the nodes, so the rule is symmetric in
    x and y and each off-diagonal node stands for its mirror image too.
    """
    half = 0.5 * cfg.area_side
    r = _falloff_radii(cfg)
    cuts = np.concatenate([r, cfg.area_side - r])
    cuts = np.unique(np.concatenate([[0.0, half], cuts[(cuts > 0) & (cuts < half)]]))
    t, w = roots_legendre(_SENSOR_NODES)
    width = np.diff(cuts)[:, None]
    x = (cuts[:-1, None] + 0.5 * width * (t + 1.0)).ravel()
    wx = (0.5 * width * w).ravel() / half
    i, j = np.tril_indices(x.size)          # x[i] >= x[j]
    weights = wx[i] * wx[j]
    weights[i != j] *= 2.0
    return np.stack([x[i], x[j]], axis=1), weights


def compute_p_active(cfg: SystemConfig, topology: Topology, n_int: int = DEFAULT_N_ACTIVE) -> float:
    """Average sensor activation probability.

    ``p_active = E_s[1 - (1 - I(s))^T]`` with ``I(s)`` the probability that
    one uniform target is detected from sensor position s; the i.i.d.-target
    factorization replaces the T-dimensional integral exactly.  The outer
    mean over sensor positions is a Gauss-Legendre rule on the square's
    symmetric eighth (:func:`_sensor_rule`), the inner ``I(s)`` a radial
    quadrature (:func:`_detection_integral`); the result is deterministic.
    ``n_int`` is checked to be positive but has no effect: the rule fixes
    its own node count.
    """
    if n_int < 1:
        raise ValueError("n_int must be positive")
    sensors, weights = _sensor_rule(cfg)
    miss = 1.0 - _detection_integral(sensors, cfg)
    return float(np.sum(weights * (1.0 - miss**cfg.T_targets)))


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

    Only one zone per orbit of the square's axis mirrors {identity, x-flip,
    y-flip, both} is integrated: the representatives are the zones
    ``(iy, ix)`` with ``iy <= (rows - 1) / 2`` and ``ix <= (cols - 1) / 2``.
    Zone ``(iy, ix)`` takes the table of ``(min(iy, rows - 1 - iy),
    min(ix, cols - 1 - ix))`` with the cell grid reversed along each axis
    on which the two differ.  This is exact for the integral, not an
    approximation: targets are uniform on the square, pd depends on
    distance alone and zones and cells are uniform grids, so the reflection
    ``x -> S - x`` maps the target law onto itself, zone column ix onto
    ``cols - 1 - ix`` and cell column cx onto ``gx - 1 - cx``, and keeps
    every distance; likewise in y.  The x <-> y swap is not used: it holds
    only when ``gx == gy`` and ``rows == cols``, and odd bit counts have
    ``gx = 2 gy``.  A mirrored zone copies its representative's normalized
    row, so the mirror identity holds to the bit, whatever order a row sum
    takes.

    The draws come from the fixed stream ``substream(0, STREAM_PRIORS, 2)``
    in an order fixed by the sample counts alone: per representative, in
    increasing zone index, the sensor positions, then one target cloud per
    sensor in sensor order.  Sensors are handled in batches of about
    ``_PD_BLOCK`` pairs, which bound the working arrays of the one-pass
    detection kernel and of the sums.  A batch's clouds come from one draw
    of the same stream; the sort, the prefix sums and the cell sums run
    along each sensor's row and the rows are added into the zone in sensor
    order, so the batching does not change the result.
    """
    if n_int < 1:
        raise ValueError("n_int must be positive")
    rng = substream(0, STREAM_PRIORS, 2)
    M = quantizer.M
    rows, cols = topology.zone_grid
    iy, ix = np.divmod(np.arange(topology.U), cols)
    ry, rx = np.minimum(iy, rows - 1 - iy), np.minimum(ix, cols - 1 - ix)
    reps, rep_of = np.unique(ry * cols + rx, return_inverse=True)
    # the outer sensor average dominates the variance: spend ~n_int/8 draws
    # on it, and size each draw's target cloud so every cell still sees at
    # least n_int effective samples in total
    n_sensors = max(64, n_int // 8)
    n_targets = max(4096, 4 * M, int(np.ceil(n_int * M / n_sensors)))
    batch = max(1, _PD_BLOCK // n_targets)
    raw = np.zeros((reps.size, M))
    Tm1 = cfg.T_targets - 1
    for r, u in enumerate(reps):
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
                raw[r] += row
        raw[r] /= n_sensors
    totals = raw.sum(axis=1, keepdims=True)
    if np.any(totals <= 0):
        raise ValueError("message-probability integration produced an all-zero zone")
    # cell (cy, cx) of a zone is cell (cy, cx) of its representative, each
    # index reversed along the axes the zone is flipped in
    cy, cx = np.divmod(np.arange(M), quantizer.gx)
    src = (np.where((iy != ry)[:, None], quantizer.gy - 1 - cy, cy) * quantizer.gx
           + np.where((ix != rx)[:, None], quantizer.gx - 1 - cx, cx))
    return (raw / totals)[rep_of[:, None], src]


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

CACHE_VERSION = 7


def prior_cache_key(cfg: SystemConfig, n_cell: int) -> str:
    """Hash of what the cached integrals depend on: the sensing fields, and
    the sample count of the Monte Carlo ``msg_probs``."""
    blob = json.dumps(
        {f: getattr(cfg, f) for f in _SENSING_FIELDS}
        | {"n_cell": n_cell, "v": CACHE_VERSION},
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

    ``n_cell`` is :func:`compute_msg_probs`' sample count.  ``n_active``
    goes to :func:`compute_p_active`, where it has no effect, and is not
    part of the cache key.

    A cache file that does not parse, holds another key or does not hold a
    well-formed prior for this configuration is rebuilt and overwritten.
    The file is written to a temporary name in the cache directory and then
    moved into place, so an interrupted write never leaves a partial cache
    file.
    """
    key = prior_cache_key(cfg, n_cell)
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
