"""Multi-target localization front end.

Targets and sensors are placed uniformly over the coverage area.  Each
(sensor, target) pair is detected independently with a Marcum-Q detection
probability driven by the two-way radar link budget; an active sensor
reports the nearest detected target, quantizes its position on a regular
grid and transmits the grid index as its message.  A sensed scene keeps
only these reports (one masked argmin over all pairs), not the detections
behind them.  Detected targets are localized perfectly; false alarms are
not generated.

The detection probability depends on a pair only through ``d^2``.  It is
evaluated by ``marcum_q1`` at the nodes of a uniform grid in
``u = log d^2`` and read off a quintic Hermite interpolant (``marcum_q1``
values, exact slopes and curvatures) for every pair; one table is built per
link budget and kept in a small cache.  The grid runs from where ``Q1`` is
1 in double (``a = b + 9``) up to the area's squared diagonal; ``d^2``
below it, ``d^2 = 0`` included, gives 1, and ``d^2`` beyond it goes through
``marcum_q1`` directly.

The lookup makes one pass of each step (log, one clip for the
out-of-table mask, cell index, Horner) over the array of squared distances
it is given and writes the probabilities over it; the entries beyond the
table's top go through one ``marcum_q1`` call.  Every entry is computed on
its own, so the values do not depend on the array's size; the prior
integrals bound that size by batching their pairs.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import ive

from .airlink import STREAM_SCENE, TransmissionRound, substream
from .config import ConfigError, SystemConfig, Topology, zone_of_array
from .specfun import _MARCUM_ONE_GAP, marcum_q1

__all__ = [
    "Scene",
    "Quantizer",
    "sample_scene",
    "detection_prob_array",
    "sense_all",
    "build_quantizer",
    "messages_of",
]


@dataclass(frozen=True)
class Scene:
    """Target and sensor placement plus (after sensing) each sensor's report."""

    targets: np.ndarray                 # (T, 2)
    sensors: np.ndarray                 # (K, 2)
    sensor_zones: np.ndarray            # (K,) int
    reported: np.ndarray | None = None  # (K,) int; -1 when inactive

    @property
    def K(self) -> int:
        return self.sensors.shape[0]

    @property
    def T(self) -> int:
        return self.targets.shape[0]

    @property
    def active_mask(self) -> np.ndarray:
        if self.reported is None:
            raise ValueError("scene has not been sensed yet")
        return self.reported >= 0


@dataclass(frozen=True)
class Quantizer:
    """Regular grid of cell centers tiling the area; messages are grid indices."""

    grid_points: np.ndarray   # (M, 2), index m = iy * gx + ix
    gx: int
    gy: int
    area_side: float

    @property
    def M(self) -> int:
        return self.gx * self.gy

    @property
    def cell_size(self) -> tuple[float, float]:
        return self.area_side / self.gx, self.area_side / self.gy


def sample_scene(cfg: SystemConfig, topology: Topology, seed: int) -> Scene:
    """Place targets and sensors i.i.d. uniformly; no detections yet."""
    rng = substream(seed, STREAM_SCENE)
    targets = rng.uniform(0.0, cfg.area_side, size=(cfg.T_targets, 2))
    sensors = rng.uniform(0.0, cfg.area_side, size=(cfg.K, 2))
    zones = zone_of_array(sensors, topology) if cfg.K else np.zeros(0, dtype=int)
    return Scene(targets=targets, sensors=sensors, sensor_zones=zones)


def _detection_noncentrality(dist2: np.ndarray, cfg: SystemConfig) -> np.ndarray:
    """First Marcum-Q argument: sqrt(2 Ns Ps S lambda^2 / ((4 pi)^3 Pn d^4))."""
    with np.errstate(divide="ignore"):
        a = _noncentrality_scale(cfg) / dist2
    return a


def _noncentrality_scale(cfg: SystemConfig) -> float:
    """``c0`` with first Marcum-Q argument ``a = c0 / d^2``."""
    lam = cfg.wavelength
    num = 2.0 * cfg.Ns * cfg.P_s * cfg.S_rcs * lam**2
    den = (4.0 * np.pi) ** 3 * cfg.P_n
    return float(np.sqrt(num / den))


# Node spacing of the detection-probability table in u = log d^2.  Changing
# the link budget only shifts the function of u, so the spacing sets the
# accuracy: at 2^-9 the interpolant matches ``marcum_q1`` to about 1e-14,
# with about 3000 nodes and 0.15 MB per table at the paper and desk link
# budgets.
_PD_TABLE_STEP = 2.0**-9


@functools.lru_cache(maxsize=8)
def _pd_table(c0: float, b: float, d2_max: float):
    """Quintic Hermite coefficients of ``Q1(c0 / d^2, b)`` on a uniform grid in ``log d^2``.

    The grid runs from ``a = b + _MARCUM_ONE_GAP``, where ``Q1`` is 1 in
    double, up to ``d2_max``.  Node values are ``marcum_q1``'s; node slopes
    and curvatures are exact.  Returns
    ``(u_lo, 1 / h, coef)``, with ``coef[:, i]`` the power-basis
    coefficients of cell ``i`` in the local coordinate
    ``t = (u - u_lo) / h - i``, or ``None`` when the range is empty.
    """
    u_lo = np.log(c0 / (b + _MARCUM_ONE_GAP))
    u_hi = np.log(d2_max)
    if not u_lo < u_hi:
        return None
    n = int(np.ceil((u_hi - u_lo) / _PD_TABLE_STEP)) + 1
    # the spacing exactly as the lookup uses it; u[1] - u[0] would drift the
    # cell index by its rounding
    h = (u_hi - u_lo) / (n - 1)
    a = c0 * np.exp(-(u_lo + h * np.arange(n)))
    y = marcum_q1(a, b)
    # with g = ab exp(-(a - b)^2 / 2) and i_k = ive(k, ab):
    # dQ1/du = -g i1 and d2Q1/du2 = a g (b i0 - a i1), in the cell coordinate
    g = a * b * np.exp(-0.5 * (a - b) ** 2)
    i1 = ive(1, a * b)
    m = -h * g * i1
    k = h * h * a * g * (b * ive(0, a * b) - a * i1)
    # the quintic matching value, slope and curvature at both cell ends
    A = np.diff(y) - m[:-1] - 0.5 * k[:-1]
    B = np.diff(m) - k[:-1]
    C = np.diff(k)
    coef = np.stack([
        y[:-1], m[:-1], 0.5 * k[:-1],
        10.0 * A - 4.0 * B + 0.5 * C, -15.0 * A + 7.0 * B - C, 6.0 * A - 3.0 * B + 0.5 * C,
    ])
    coef.flags.writeable = False
    return float(u_lo), 1.0 / h, coef


def _pair_d2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared distances ``|a - b|^2`` of broadcast point arrays (last axis x, y)."""
    # dx^2 + dy^2 without a (..., 2) temporary; the same sum as over the last axis
    d2 = a[..., 0] - b[..., 0]
    dy = a[..., 1] - b[..., 1]
    d2 *= d2
    dy *= dy
    d2 += dy
    return d2


def _detection_prob_d2(d2: np.ndarray, cfg: SystemConfig) -> np.ndarray:
    """Detection probabilities at the squared distances ``d2`` (any shape), written over ``d2``.

    One pass of each step over the array: the table's quintic for the
    entries in it, clipped to [0, 1], 1 below it, and one ``marcum_q1``
    call on the entries beyond its top.
    """
    b = float(np.sqrt(cfg.gamma_threshold))
    table = _pd_table(_noncentrality_scale(cfg), b, 2.0 * cfg.area_side**2)
    if table is None:
        far = d2 != 0
        far_d2 = d2[far]
        d2.fill(1.0)
    else:
        u_lo, inv_h, coef = table
        n_cells = coef.shape[1]
        # log(0) is -inf; NaN distances cast to garbage cells here, are
        # gathered with the entries beyond the top and fail in marcum_q1 below
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.log(d2)
            t -= u_lo
            t *= inv_h
            tc = np.clip(t, 0.0, n_cells)
            cell = tc.astype(np.intp)
        # the entries in the table are those the clip leaves alone
        direct = tc != t
        far = direct & ~(t < 0)
        far_d2 = d2[far]
        np.minimum(cell, n_cells - 1, out=cell)
        tc -= cell
        pd = d2                 # the probabilities go over the squared distances
        np.take(coef[-1], cell, out=pd, mode="clip")
        for c in coef[-2::-1]:
            pd *= tc
            pd += np.take(c, cell, out=t, mode="clip")
        # the quintic rounds an ulp above 1 near the table's start, and
        # undershoots 0 where Q1 underflows to 0 (no false-alarm floor in double)
        np.clip(pd, 0.0, 1.0, out=pd)
        pd[direct] = 1.0
    if far_d2.size:
        d2[far] = marcum_q1(_detection_noncentrality(far_d2, cfg), b)
    return d2


def detection_prob_array(sensors: np.ndarray, targets: np.ndarray, cfg: SystemConfig) -> np.ndarray:
    """Detection probabilities for all (sensor, target) pairs, shape (K, T)."""
    sensors = np.asarray(sensors, dtype=float)
    targets = np.asarray(targets, dtype=float)
    return _detection_prob_d2(_pair_d2(sensors[:, None], targets[None]), cfg)


def sense_all(scene: Scene, cfg: SystemConfig, rng: np.random.Generator) -> Scene:
    """Draw independent Bernoulli detections; each sensor reports its nearest detected target."""
    K, T = scene.K, scene.T
    reported = np.full(K, -1, dtype=int)
    if K and T:
        pd = detection_prob_array(scene.sensors, scene.targets, cfg)
        hits = rng.uniform(size=(K, T)) < pd
        d2 = _pair_d2(scene.sensors[:, None], scene.targets[None])
        active = hits.any(axis=1)
        reported[active] = np.where(hits, d2, np.inf).argmin(axis=1)[active]
    return replace(scene, reported=reported)


def build_quantizer(bits: int, area_side: float) -> Quantizer:
    """Uniform grid with ``2**bits`` cells over the square area.

    Even bit counts give a square grid; odd counts use the minimal
    rectangular extension ``2^ceil(bits/2) x 2^floor(bits/2)``.
    """
    if not 2 <= bits <= 12:
        raise ConfigError(f"quantizer bits must be in 2..12, got {bits}")
    gx = 2 ** ((bits + 1) // 2)
    gy = 2 ** (bits // 2)
    cx = area_side / gx
    cy = area_side / gy
    xs = (np.arange(gx) + 0.5) * cx
    ys = (np.arange(gy) + 0.5) * cy
    gpts = np.stack(
        [np.tile(xs, gy), np.repeat(ys, gx)], axis=1
    )  # index m = iy * gx + ix
    return Quantizer(grid_points=gpts, gx=gx, gy=gy, area_side=area_side)


def quantize_array(q: Quantizer, points: np.ndarray) -> np.ndarray:
    """Vectorized nearest-center map; exact for in-area points on a regular grid."""
    cx, cy = q.cell_size
    ix = np.clip(np.floor(points[:, 0] / cx).astype(int), 0, q.gx - 1)
    iy = np.clip(np.floor(points[:, 1] / cy).astype(int), 0, q.gy - 1)
    return iy * q.gx + ix


def messages_of(scene: Scene, quantizer: Quantizer, U: int) -> TransmissionRound:
    """Turn sensed reports into the round's user table, in zone order.

    The sort is stable, so users keep sensor order within each zone.
    """
    if scene.reported is None:
        raise ValueError("messages_of: run sense_all first")
    act = np.flatnonzero(scene.active_mask)
    act = act[np.argsort(scene.sensor_zones[act], kind="stable")]
    return TransmissionRound(
        zones=scene.sensor_zones[act],
        messages=quantize_array(quantizer, scene.targets[scene.reported[act]]),
        positions=scene.sensors[act],
        U=U,
        M=quantizer.M,
    )
