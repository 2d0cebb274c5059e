"""Codebook generation, channel realization and received-signal synthesis.

The forward model: each active user in zone ``u`` transmits the unit-norm
codeword of its message, scaled by ``sqrt(Ec)``, through an i.i.d. Rayleigh
channel whose per-AP variance is the position-specific LSFC.  Colliding
users superimpose into per-(zone, message) effective channel rows, built
only for the codewords sent.

The codebook is stored in single precision, complex64: half the memory of
complex128 (70.3 MiB at the paper preset, 281 MiB at 12 bits), and the
receiver's matched filter runs in that precision.  Each column has unit
norm within 2^-24 (:func:`gen_codebook`).  The transmitter and the receiver
share these rounded codewords: :func:`synthesize_rx` upcasts the sent ones
exactly and forms the signal in complex128.

Randomness is organized in documented sub-streams of a seed so ablations
can vary one source at a time:

====================  ==  ==========
stream                id  seed
====================  ==  ==========
codebook              0   0
fading                1   run seed
noise                 2   run seed
scene                 3   run seed
mc-samples            4   run seed
prior-integration     5   0
====================  ==  ==========

The codebook and the prior are system knowledge, the same for every run,
so the package draws them from seed 0 only.  The codebook is
``gen_codebook(cfg, 0)``, drawn once per sweep point, on its
``harness.PointContext``, and shared by every run there.  The
prior draws ``substream(0, STREAM_PRIORS, 2)``, the sensors and targets of
``priors.compute_msg_probs``, for one zone per orbit of the zone grid's
axis mirrors, in increasing zone index; the mirrored zones draw nothing.
The activation integral is a quadrature and draws nothing.
``substream(0, STREAM_PRIORS, 0)`` only places the golden prior test's
pinned ``I(s)`` sensors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import SystemConfig, Topology, lsfc_vector

__all__ = [
    "STREAM_CODEBOOK",
    "STREAM_FADING",
    "STREAM_NOISE",
    "STREAM_SCENE",
    "STREAM_MC",
    "STREAM_PRIORS",
    "substream",
    "TransmissionRound",
    "gen_codebook",
    "sample_fading",
    "effective_channels",
    "synthesize_rx",
    "uplink",
]

STREAM_CODEBOOK = 0
STREAM_FADING = 1
STREAM_NOISE = 2
STREAM_SCENE = 3
STREAM_MC = 4
STREAM_PRIORS = 5

_CODEBOOK_BLOCK_ROWS = 64      # rows drawn per standard-normal call in gen_codebook


def substream(master_seed: int, *key: int) -> np.random.Generator:
    """Deterministic generator for sub-stream ``key`` of ``master_seed``."""
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=tuple(key)))


@dataclass(frozen=True)
class TransmissionRound:
    """The active users of one round, in zone order and sensor order within a zone."""

    zones: np.ndarray        # (K_a,) int
    messages: np.ndarray     # (K_a,) int
    positions: np.ndarray    # (K_a, 2)
    U: int
    M: int

    @property
    def K_a(self) -> int:
        return len(self.zones)

    @property
    def multiplicities(self) -> np.ndarray:
        """Per-zone multiplicity vectors, shape (U, M)."""
        flat = np.bincount(self.zones * self.M + self.messages, minlength=self.U * self.M)
        return flat.reshape(self.U, self.M)

    @property
    def true_type(self) -> np.ndarray:
        """Global type ``t = k / K_a``; zeros when no user is active."""
        k = self.multiplicities.sum(axis=0).astype(float)
        return k / self.K_a if self.K_a else k


def gen_codebook(cfg: SystemConfig, seed: int) -> np.ndarray:
    """i.i.d. CN(0, 1/Nc) entries with each column rescaled to unit norm, in single precision.

    Returns the (Nc, U, M) complex64 codebook: zone ``u``'s M codewords are
    the columns of the (Nc, M) view ``codebook[:, u]``.  It is the reshape
    of the (Nc, U M) matrix whose columns are codewords u M .. (u+1) M - 1.

    The entries are ``a + 1j b`` scaled by ``1 / sqrt(2 Nc)``: the real
    parts a, then the imaginary parts b, are one float64 standard-normal
    stream drawn in row blocks.  Each scaled block is rounded to single
    precision as it is drawn, y = fl32(a / sqrt(2 Nc)), and the squared
    column norms of y are summed in float64, row after row, real parts
    then imaginary parts: ``n2 = sum_n re(y_n)^2 + sum_n im(y_n)^2``.
    Each column is then scaled in float64 by ``1 / sqrt(n2)`` and rounded
    to single precision again.  The unrounded product has unit norm up to
    a few float64 roundings per row, and the last rounding moves each real
    and imaginary part by at most 2^-24 relative, so every column obeys
    ``| ||c|| - 1 | <= 2^-24`` up to those float64 roundings.  Built in
    place, with transients of a few rows: there is no float64 copy of the
    codebook.
    """
    rng = substream(seed, STREAM_CODEBOOK)
    Nc, cols = cfg.Nc, cfg.U * cfg.M
    scale = 1.0 / np.sqrt(2 * Nc)
    c = np.empty((Nc, cols), dtype=np.complex64)
    norm2 = [np.zeros(cols), np.zeros(cols)]
    for part, acc in zip((c.real, c.imag), norm2):
        for r0 in range(0, Nc, _CODEBOOK_BLOCK_ROWS):
            rows = part[r0 : r0 + _CODEBOOK_BLOCK_ROWS]
            block = rng.standard_normal(rows.shape)
            block *= scale
            rows[...] = block
            # the rounded rows' squares in float64, summed row after row onto acc
            np.square(rows, out=block, dtype=float)
            block[0] += acc
            np.add.reduce(block, axis=0, out=acc)
    parts = c.view(np.float32)     # (Nc, 2 U M): each codeword's real and imaginary parts side by side
    parts *= np.repeat(1.0 / np.sqrt(norm2[0] + norm2[1]), 2)
    return c.reshape(Nc, cfg.U, cfg.M)


def sample_fading(
    positions: np.ndarray, topology: Topology, cfg: SystemConfig, seed: int
) -> np.ndarray:
    """Per-user channel vectors h in C^F for an (N, 2) array of positions.

    Entries are independent across users and antennas; the A antennas of AP
    ``b`` share the variance ``gamma_b(rho)``.
    """
    positions = np.atleast_2d(np.asarray(positions, dtype=float))
    rng = substream(seed, STREAM_FADING)
    n = positions.shape[0]
    gammas = lsfc_vector(positions, topology, cfg)               # (N, B)
    std = np.sqrt(np.repeat(gammas, cfg.A, axis=1) / 2.0)        # (N, F)
    shape = (n, cfg.F)
    return std * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def effective_channels(round_: TransmissionRound, fading: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sum colliding users' channels into the sent (zone, message) rows.

    ``fading`` is the (K_a, F) array of per-user channels, one row per user
    of the round in its order.  Returns ``(sent, X)``: the flat indices
    ``u M + m`` of the codewords sent in the round, in increasing order,
    and their (len(sent), F) effective channels, each the sum of its users'
    channels added in round order.  The other U M - len(sent) rows of the
    (U, M, F) effective-channel array are zero and are not built.
    """
    h = np.atleast_2d(fading)
    if h.shape[0] != round_.K_a:
        raise ValueError(f"effective_channels: {h.shape[0]} fading rows for {round_.K_a} users")
    sent, user_row = np.unique(round_.zones * round_.M + round_.messages, return_inverse=True)
    X = np.zeros((len(sent), h.shape[1]), dtype=complex)
    np.add.at(X, user_row, h)
    return sent, X


def synthesize_rx(
    codebook: np.ndarray, sent: np.ndarray, X: np.ndarray, cfg: SystemConfig, seed: int
) -> np.ndarray:
    """Received signal ``Y = sqrt(Ec) sum_u C_u X_u + W`` with W ~ CN(0, sigma_w^2).

    ``codebook`` is the (Nc, U, M) array of :func:`gen_codebook`; ``sent``
    and ``X`` are the flat indices ``u M + m`` of the sent codewords, in
    increasing order, and their (len(sent), F) effective channels, as
    :func:`effective_channels` returns them.  The product runs in
    complex128 over the sent codewords only, their columns upcast exactly,
    so the transmitter sends the codewords the receiver matches.  The noise
    is drawn from its sub-stream of ``seed`` as an (Nc, F) array.
    """
    Nc = cfg.Nc
    sent = np.asarray(sent)
    if codebook.shape != (Nc, cfg.U, cfg.M) or X.ndim != 2 or len(X) != len(sent):
        raise ValueError("synthesize_rx: codebook/channel shapes inconsistent with cfg")
    F = X.shape[1]
    signal = codebook.reshape(Nc, cfg.U * cfg.M)[:, sent].astype(complex) @ X
    rng = substream(seed, STREAM_NOISE)
    w = (rng.standard_normal((Nc, F)) + 1j * rng.standard_normal((Nc, F))) * np.sqrt(
        cfg.sigma_w2 / 2.0
    )
    return np.sqrt(cfg.Ec) * signal + w


def uplink(
    round_: TransmissionRound,
    codebook: np.ndarray,
    topology: Topology,
    cfg: SystemConfig,
    seed: int,
) -> np.ndarray:
    """One transmission round over the air; returns the (Nc, F) received signal.

    Fades every user's position (:func:`sample_fading`, users in round
    order), sums collisions into the sent codewords' effective channels
    (:func:`effective_channels`) and synthesizes the received signal
    (:func:`synthesize_rx`), all from sub-streams of ``seed``.  The channels
    are not returned: ``effective_channels(round_,
    sample_fading(round_.positions, topology, cfg, seed))`` rebuilds them.
    """
    sent, X = effective_channels(round_, sample_fading(round_.positions, topology, cfg, seed))
    return synthesize_rx(codebook, sent, X, cfg, seed)
