"""The paper-scale decode holds no dense (U, M, F) channel array beside the codebook.

A centralized run of the paper preset at ``T_AMP=2, N_MC=25``, on the
2000/200-sample prior of the paper pins, runs under ``tracemalloc``, which
counts numpy's array buffers.  Each check is against one (U, M, F) complex
array, 22.5 MiB at this preset: the uplink's effective channels, or the
decoder's dense estimates.

- At :func:`~tumaloc.amp_central.amp_run` entry, the traced memory less the
  bytes of the (Nc, U, M) codebook it is handed (complex64, 70.3 MiB) stays
  below one such array: the run holds no effective channels.  So does the
  traced peak up to that entry: the uplink built none.
- At every :func:`~tumaloc.amp_central.denoise_rows` entry, the traced memory
  above the ``amp_run`` entry level stays below one such array: the
  recursion holds its estimates on weighed rows only and no earlier chunk's
  denoiser output.  The run overlaps each zone's matched filter with the
  previous zone's denoiser, so these entries also see the helper thread's
  buffer and product.

The overlapped decode's traced peak exceeds the inline decode's by at most
its second (M, F) complex128 matched-filter buffer and one (F, M) complex64
product of the helper, plus 64 KiB of Python objects.

A one-AP :func:`~tumaloc.amp_central.denoise_rows` call, desk-shaped (12
stacked APs, M = 64, K_max = 5, N = 100) and paper-shaped (one AP,
M = 1024, K_max = 11, N = 100), allocates at most its one (G M, K_max, N)
float64 weight array plus 16 G K_max (M + N) float64 values: no row-layout
copy of the weights and no second full-size temporary.
"""

import tracemalloc

import numpy as np
import pytest

from tumaloc import airlink, amp_central, harness
from tumaloc.config import paper_preset

from test_golden_paper_records import paper_prior


def _paper_ctx():
    """A fresh context, whose codebook is drawn at its first decode."""
    cfg = paper_preset(T_AMP=2, N_MC=25)
    base = harness.prepare_context(cfg, need_prior=False)
    return harness.PointContext(cfg, base.topology, base.quantizer, paper_prior())


def test_paper_decode_holds_no_dense_channel_array(monkeypatch):
    ctx = _paper_ctx()
    cfg = ctx.cfg
    dense = cfg.U * cfg.M * cfg.F * 16
    at_run, codebook, at_denoise = [], [], []
    run, denoise = amp_central.amp_run, amp_central.denoise_rows

    def traced_run(*args, **kwargs):
        at_run.append(tracemalloc.get_traced_memory())
        codebook.append(args[1].nbytes)
        return run(*args, **kwargs)

    def traced_denoise(*args, **kwargs):
        at_denoise.append(tracemalloc.get_traced_memory()[0])
        return denoise(*args, **kwargs)

    monkeypatch.setattr(amp_central, "amp_run", traced_run)
    monkeypatch.setattr(amp_central, "denoise_rows", traced_denoise)
    monkeypatch.setattr(amp_central, "_overlaps", lambda *_shape: True)
    tracemalloc.start()
    try:
        rec = harness.run_single(ctx, "centralized", harness.derive_run_seed(1, 0, 0))
    finally:
        tracemalloc.stop()
    assert rec["status"] == "ok"
    assert len(at_run) == 1 and len(at_denoise) == cfg.T_AMP * cfg.U
    (current, peak), = at_run
    assert current - codebook[0] < dense, (current - codebook[0]) / 2**20
    assert peak - codebook[0] < dense, (peak - codebook[0]) / 2**20
    assert max(at_denoise) - current < dense, (max(at_denoise) - current) / 2**20


def test_overlap_adds_one_buffer_and_one_product(monkeypatch):
    ctx = _paper_ctx()
    cfg = ctx.cfg
    seed = harness.derive_run_seed(1, 0, 0)
    Y = airlink.uplink(harness.draw_run(ctx, seed, ()).round, ctx.codebook, ctx.topology, cfg, seed)
    mc = amp_central.build_mc_table(cfg, ctx.topology, seed)
    peaks = []
    tracemalloc.start()
    try:
        for overlap in (False, True):
            monkeypatch.setattr(amp_central, "_overlaps", lambda *_shape, on=overlap: on)
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            amp_central.amp_run(Y, ctx.codebook, ctx.prior, mc, cfg)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    inline, overlap = peaks
    buffer, product = cfg.M * cfg.F * 16, cfg.M * cfg.F * 8
    assert buffer <= overlap - inline <= buffer + product + (64 << 10), (overlap - inline) / 2**20


@pytest.mark.parametrize("G, M, K, N, A", [(12, 64, 5, 100, 2), (1, 1024, 11, 100, 4)])
def test_one_ap_denoiser_holds_one_weight_array(G, M, K, N, A):
    rng = np.random.default_rng(7)
    g = np.cumsum(rng.uniform(0.0, 0.02, size=(K, N, G)), axis=0)
    tau = rng.uniform(0.5e-3, 2e-3, size=G)
    R = (rng.normal(size=(G * M, A)) + 1j * rng.normal(size=(G * M, A))) * np.sqrt(np.repeat(tau, M) / 2)[:, None]
    R[: M // 8] *= 4.0
    lp = np.log(rng.dirichlet(np.ones(K + 1), size=M))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        den = amp_central.denoise_rows(R, tau, g, lp, 1.0, A)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    weights = G * M * K * N * 8
    assert den.weights.nbytes == weights
    assert peak - base <= weights + 16 * G * K * (M + N) * 8, (peak - base - weights) / (G * K * (M + N) * 8)
