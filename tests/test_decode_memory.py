"""The paper-scale decode holds no dense (U, M, F) channel array beside the codebook.

A centralized run of the paper preset at ``T_AMP=2, N_MC=25``, on the
2000/200-sample prior of the paper pins, runs under ``tracemalloc``, which
counts numpy's array buffers.  Each check is against one (U, M, F) complex
array, 22.5 MiB at this preset: the uplink's effective channels, or the
decoder's dense estimates.

- At :func:`~tumaloc.amp_central.amp_run` entry, the traced memory less the
  (Nc, U, M) complex codebook stays below one such array: the run holds no
  effective channels.
- At every :func:`~tumaloc.amp_central.denoise_rows` entry, the traced memory
  above the ``amp_run`` entry level stays below one such array: the
  recursion holds its estimates on weighed rows only and no earlier chunk's
  denoiser output.
"""

import tracemalloc

from tumaloc import amp_central, harness
from tumaloc.config import paper_preset

from test_golden_paper_records import paper_prior


def test_paper_decode_holds_no_dense_channel_array(monkeypatch):
    cfg = paper_preset(T_AMP=2, N_MC=25)
    base = harness.prepare_context(cfg, need_prior=False)
    ctx = harness.PointContext(cfg, base.topology, base.quantizer, paper_prior())
    dense = cfg.U * cfg.M * cfg.F * 16
    codebook = cfg.Nc * cfg.U * cfg.M * 16
    at_run, at_denoise = [], []
    run, denoise = amp_central.amp_run, amp_central.denoise_rows

    def traced_run(*args, **kwargs):
        at_run.append(tracemalloc.get_traced_memory()[0])
        return run(*args, **kwargs)

    def traced_denoise(*args, **kwargs):
        at_denoise.append(tracemalloc.get_traced_memory()[0])
        return denoise(*args, **kwargs)

    monkeypatch.setattr(amp_central, "amp_run", traced_run)
    monkeypatch.setattr(amp_central, "denoise_rows", traced_denoise)
    tracemalloc.start()
    try:
        rec = harness.run_single(ctx, "centralized", harness.derive_run_seed(1, 0, 0))
    finally:
        tracemalloc.stop()
    assert rec["status"] == "ok"
    assert len(at_run) == 1 and len(at_denoise) == cfg.T_AMP * cfg.U
    assert at_run[0] - codebook < dense, (at_run[0] - codebook) / 2**20
    assert max(at_denoise) - at_run[0] < dense, (max(at_denoise) - at_run[0]) / 2**20
