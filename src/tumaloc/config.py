"""Network topology, zone partitioning, large-scale fading and the master configuration.

The coverage area is a square tiled by a ``rows x cols`` grid of square
zones.  The access-point layout is ``ap_positions``: ``None`` is the
canonical layout, one AP on every zone-lattice corner and one on every
lattice edge midpoint (40 APs for the 3x3 grid); a tuple of points is any
other deployment, with one AP per point.

All types here are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

import json
import math
import typing
from dataclasses import dataclass, fields, replace

import numpy as np

__all__ = [
    "SystemConfig",
    "Topology",
    "ConfigError",
    "build_topology",
    "lsfc_vector",
    "sigma_w2_for_snr_rx",
    "desk_preset",
    "paper_preset",
    "config_from_dict",
    "load_config",
]

SPEED_OF_LIGHT = 299_792_458.0


class ConfigError(ValueError):
    """Invalid or inconsistent configuration."""


@dataclass(frozen=True)
class SystemConfig:
    """All physical and system parameters shared by every module.

    Powers are in watts, energies in joules (normalized so that unit
    codeword energy corresponds to 1 mW per symbol at the reference
    communication blocklength), distances in meters.
    """

    area_side: float = 300.0
    zone_grid: tuple[int, int] = (3, 3)
    ap_positions: tuple[tuple[float, float], ...] | None = None   # None: canonical grid
    A: int = 4                      # antennas per AP
    M: int = 1024                   # messages per zone
    Nc: int = 1000                  # communication blocklength (symbols)
    Ns: int = 1000                  # sensing blocklength (symbols)
    Ec: float = 1.0                 # per-codeword transmit energy
    sigma_w2: float = 8.27e-7       # noise variance per complex symbol
    beta: float = 3.67              # path-loss exponent
    d0: float = 13.57               # 3 dB cutoff distance
    K: int = 200                    # total sensors
    T_targets: int = 50
    N_MC: int = 500                 # Monte-Carlo samples per (zone, multiplicity)
    T_AMP: int = 10                 # cap on AMP iterations
    K_max: int = 11                 # maximum multiplicity hypothesis
    c_gospa: float = 37.5
    p_order: float = 2.0
    S_rcs: float = 10.0             # radar cross-section, m^2
    f_c: float = 28e9               # carrier frequency, Hz
    P_n: float = 1e-13              # thermal noise power, W
    P_s: float = 1e-3               # per-symbol sensing power, W
    gamma_threshold: float = 36.84  # detection threshold (p_fa = e^{-gamma/2})

    def __post_init__(self):
        rows, cols = self.zone_grid
        if rows < 1 or cols < 1:
            raise ConfigError("zone_grid must have positive dimensions")
        if self.ap_positions is not None and len(self.ap_positions) == 0:
            raise ConfigError("ap_positions must hold at least one AP (None for the grid)")
        if self.A < 1 or self.B < 1:
            raise ConfigError("need at least one AP antenna")
        if not 4 <= self.M <= 4096 or self.M & (self.M - 1):
            raise ConfigError(f"M must be a power of two in 4..4096 (2..12 bits), got {self.M}")
        if self.Nc < 1 or self.Ns < 1 or self.N_MC < 1 or self.T_AMP < 1:
            raise ConfigError("Nc, Ns, N_MC and T_AMP must be at least 1")
        if self.K < 0 or self.T_targets < 0:
            raise ConfigError("K and T_targets must be non-negative")
        if not min(self.K, 1) <= self.K_max <= self.K:
            raise ConfigError(f"need 1 <= K_max <= K (0 only for K = 0), got K_max={self.K_max}")
        if self.area_side <= 0 or self.Ec <= 0 or self.sigma_w2 <= 0 or self.d0 <= 0:
            raise ConfigError("area_side, Ec, sigma_w2 and d0 must be positive")
        if self.S_rcs <= 0 or self.f_c <= 0 or self.P_n <= 0 or self.P_s <= 0:
            raise ConfigError("S_rcs, f_c, P_n and P_s must be positive")
        if self.beta <= 2 or self.gamma_threshold < 0 or self.c_gospa <= 0 or self.p_order < 1:
            raise ConfigError("need beta > 2, gamma_threshold >= 0, c_gospa > 0 and p_order >= 1")

    @property
    def U(self) -> int:
        """Zone count."""
        rows, cols = self.zone_grid
        return rows * cols

    @property
    def B(self) -> int:
        """AP count implied by the layout."""
        if self.ap_positions is not None:
            return len(self.ap_positions)
        rows, cols = self.zone_grid
        corners = (rows + 1) * (cols + 1)
        midpoints = rows * (cols + 1) + cols * (rows + 1)
        return corners + midpoints

    @property
    def F(self) -> int:
        """Total receive antennas."""
        return self.A * self.B

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.f_c

    def with_updates(self, **kwargs) -> "SystemConfig":
        return replace(self, **kwargs)


@dataclass(frozen=True)
class Topology:
    """AP positions plus the zone tiling of the coverage area."""

    ap_positions: np.ndarray       # (B, 2)
    zone_rects: np.ndarray         # (U, 4): x0, y0, x1, y1 (half-open)
    zone_centroids: np.ndarray     # (U, 2)
    zone_grid: tuple[int, int]
    area_side: float

    @property
    def B(self) -> int:
        return self.ap_positions.shape[0]

    @property
    def U(self) -> int:
        return self.zone_rects.shape[0]

    def centroid_nearest_ap_distance(self) -> float:
        d = np.linalg.norm(
            self.zone_centroids[:, None, :] - self.ap_positions[None, :, :], axis=-1
        )
        return float(d.min(axis=1).max())


def _grid_layout_positions(rows: int, cols: int, area_side: float) -> np.ndarray:
    """APs on every zone-lattice corner plus every lattice edge midpoint."""
    sx = area_side / cols
    sy = area_side / rows
    pts = []
    for iy in range(rows + 1):
        for ix in range(cols + 1):
            pts.append((ix * sx, iy * sy))
    for iy in range(rows + 1):        # horizontal edge midpoints
        for ix in range(cols):
            pts.append((ix * sx + sx / 2, iy * sy))
    for iy in range(rows):            # vertical edge midpoints
        for ix in range(cols + 1):
            pts.append((ix * sx, iy * sy + sy / 2))
    return np.array(pts, dtype=float)


def build_topology(cfg: SystemConfig) -> Topology:
    """Construct the AP layout and the zone tiling for ``cfg``."""
    rows, cols = cfg.zone_grid
    if cfg.ap_positions is None:
        aps = _grid_layout_positions(rows, cols, cfg.area_side)
    else:
        aps = np.array(cfg.ap_positions, dtype=float)
    sx = cfg.area_side / cols
    sy = cfg.area_side / rows
    rects = []
    centroids = []
    for iy in range(rows):
        for ix in range(cols):
            rects.append((ix * sx, iy * sy, (ix + 1) * sx, (iy + 1) * sy))
            centroids.append((ix * sx + sx / 2, iy * sy + sy / 2))
    return Topology(
        ap_positions=aps,
        zone_rects=np.array(rects, dtype=float),
        zone_centroids=np.array(centroids, dtype=float),
        zone_grid=cfg.zone_grid,
        area_side=cfg.area_side,
    )


def _gamma_of_distance(d: np.ndarray, cfg: SystemConfig) -> np.ndarray:
    return 1.0 / (1.0 + (d / cfg.d0) ** cfg.beta)


def lsfc_vector(rho, topology: Topology, cfg: SystemConfig) -> np.ndarray:
    """Per-AP large-scale fading coefficients ``1 / (1 + (d_b / d0)^beta)``, shape (..., B)."""
    rho = np.asarray(rho, dtype=float)
    diff = topology.ap_positions - rho[..., None, :]
    d = np.sqrt((diff * diff).sum(axis=-1))
    return _gamma_of_distance(d, cfg)


def zone_of_array(points: np.ndarray, topology: Topology) -> np.ndarray:
    """Zone index per point of an (N, 2) array of in-area points.

    Zones are half-open rectangles, left/bottom inclusive; the outer
    boundary of the area belongs to the last row/column, so the map is
    total on the closed square.
    """
    side = topology.area_side
    rows, cols = topology.zone_grid
    ix = np.minimum((points[:, 0] // (side / cols)).astype(int), cols - 1)
    iy = np.minimum((points[:, 1] // (side / rows)).astype(int), rows - 1)
    return iy * cols + ix


def sigma_w2_for_snr_rx(cfg: SystemConfig, topology: Topology, snr_rx_db: float) -> float:
    """Noise variance that realizes a target received SNR (dB) at fixed Ec, Nc."""
    snr_rx = 10.0 ** (snr_rx_db / 10.0)
    varsigma = topology.centroid_nearest_ap_distance()
    snr_tx = snr_rx * (1.0 + (varsigma / cfg.d0) ** cfg.beta)
    return cfg.Ec / (cfg.Nc * snr_tx)


def paper_preset(**overrides) -> SystemConfig:
    """Full-scale configuration: 300 m area, 9 zones, 40 APs, 10-bit quantizer."""
    cfg = SystemConfig()
    topo = build_topology(cfg)
    cfg = cfg.with_updates(sigma_w2=sigma_w2_for_snr_rx(cfg, topo, 10.0))
    return cfg.with_updates(**overrides) if overrides else cfg


def desk_preset(**overrides) -> SystemConfig:
    """Small configuration that runs the full pipeline in seconds.

    200 m area split into 2x2 zones; 12 APs on the area boundary (corners
    plus boundary-edge midpoints); 6-bit quantizer.
    """
    s = 200.0
    ring = [
        (0, 0), (s / 4, 0), (3 * s / 4, 0), (s, 0),
        (s, s / 4), (s, 3 * s / 4), (s, s),
        (3 * s / 4, s), (s / 4, s), (0, s),
        (0, 3 * s / 4), (0, s / 4),
    ]
    cfg = SystemConfig(
        area_side=s,
        zone_grid=(2, 2),
        ap_positions=tuple(ring),
        A=2,
        M=64,
        Nc=300,
        Ns=1000,
        K=40,
        T_targets=10,
        N_MC=100,
        T_AMP=10,
        K_max=5,
        c_gospa=25.0,
    )
    topo = build_topology(cfg)
    cfg = cfg.with_updates(sigma_w2=sigma_w2_for_snr_rx(cfg, topo, 0.0))
    return cfg.with_updates(**overrides) if overrides else cfg


_PRESETS = {"desk": desk_preset, "paper": paper_preset}


def preset(name: str, **overrides) -> SystemConfig:
    if not isinstance(name, str) or name not in _PRESETS:
        raise ConfigError(f"unknown preset {name!r}; choose from {sorted(_PRESETS)}")
    return _PRESETS[name](**overrides)


_JSON_SCALARS = {int: "an integer", float: "a finite number", str: "a string"}


def _from_json(value, hint, name: str):
    """Check ``value`` against ``hint``: no bool ints, finite floats; lists become tuples."""
    args = typing.get_args(hint)
    if type(None) in args:
        if value is None:
            return None
        (hint,) = (a for a in args if a is not type(None))
        return _from_json(value, hint, name)
    if typing.get_origin(hint) is tuple:
        if not isinstance(value, list):
            raise ConfigError(f"{name} must be a list, got {value!r}")
        if args[-1] is Ellipsis:
            args = args[:1] * len(value)
        elif len(args) != len(value):
            raise ConfigError(f"{name} must be a list of {len(args)} items, got {value!r}")
        return tuple(_from_json(v, h, f"{name}[{i}]") for i, (v, h) in enumerate(zip(value, args)))
    ok = isinstance(value, (int, float) if hint is float else hint) and not isinstance(value, bool)
    if not ok or (hint is float and not math.isfinite(value)):
        raise ConfigError(f"{name} must be {_JSON_SCALARS[hint]}, got {value!r}")
    return value


def _fields_from_json(cls, raw: dict, what: str, skip=(), **hints) -> dict:
    """Keyword arguments for the dataclass ``cls`` from the JSON object ``raw``.

    Every key must name a field of ``cls`` outside ``skip``, and every value
    fit the field's declared type, or its type in ``hints``; range checks
    are ``cls``'s own.  Anything else raises ``ConfigError``.
    """
    names = {f.name for f in fields(cls)} - set(skip)
    unknown = set(raw) - names
    if unknown:
        raise ConfigError(f"unknown {what} keys: {sorted(unknown)}")
    types = {**typing.get_type_hints(cls), **hints}
    return {key: _from_json(value, types[key], key) for key, value in raw.items()}


def config_from_dict(raw) -> SystemConfig:
    """SystemConfig from a JSON object, from a ``preset`` if it names one.

    Unknown keys and ill-typed values raise ``ConfigError`` (see
    ``_fields_from_json``), and so do out-of-range values.
    """
    if not isinstance(raw, dict):
        raise ConfigError("a config must be a JSON object")
    raw = dict(raw)
    base_name = raw.pop("preset", None)
    kwargs = _fields_from_json(SystemConfig, raw, "config")
    return preset(base_name, **kwargs) if base_name is not None else SystemConfig(**kwargs)


def load_config(path) -> SystemConfig:
    """Load a SystemConfig from a JSON file; unknown keys are rejected."""
    with open(path) as fh:
        return config_from_dict(json.load(fh))
