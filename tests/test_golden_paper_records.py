"""Seed reproducibility at paper scale: fixed runs reproduce their checked-in pins.

``data/golden_paper_records.jsonl`` holds four runs of the paper preset at
its 10 dB point, on the prior of the ``paper-decode`` benchmark workload
(200 cell samples; its 2000 activation samples have no effect): three
centralized runs at ``T_AMP=3, N_MC=100``, run seeds
``derive_run_seed(1, 0, r)`` for r = 0, 1, 2, and one distributed run at
``T_AMP=2, N_MC=25``, run seed ``derive_run_seed(1, 0, 0)``.  Each line holds the run's record without
``wall_time_s``, the sha256 of the decode's MAP multiplicities
``k_per_zone`` (int64, C order), and the posteriors of the rows whose mass on
k >= 1 reaches ``MASS_FLOOR``, keyed by the flat row index ``u M + m``;
every other row's mass on k >= 1 is below 1e-12 in these runs.  A change
that moves any of them is a numeric change and must regenerate the file
deliberately::

    PYTHONPATH=src python tests/test_golden_paper_records.py
"""

import hashlib
import json
import os
import sys

import numpy as np
import pytest

from tumaloc import amp_central, amp_dist, harness, priors
from tumaloc.amp_central import blas_threads
from tumaloc.config import paper_preset

from test_golden_records import CLOSE_KEYS, EXACT_KEYS

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "golden_paper_records.jsonl")
N_ACTIVE, N_CELL = 2000, 200        # the paper-decode benchmark workload's prior
MASS_FLOOR = 1e-6                   # rows pinned by posterior: mass on k >= 1 at least this


# on posterior entries: the pins were written on one BLAS thread, where they reproduce to
# the last bits; on more, OpenBLAS rounds the single-precision matched filter otherwise,
# which moved them by up to 2.6e-7 on two threads (BENCH_c64_matched_filter.json)
POST_ATOL = 1e-9 if blas_threads() == 1 else 1e-6
PINS = (
    ("centralized", {"T_AMP": 3, "N_MC": 100}, 0),
    ("centralized", {"T_AMP": 3, "N_MC": 100}, 1),
    ("centralized", {"T_AMP": 3, "N_MC": 100}, 2),
    ("distributed", {"T_AMP": 2, "N_MC": 25}, 0),
)
DECODERS = {"centralized": (amp_central, "amp_run"), "distributed": (amp_dist, "distributed_decode")}


def paper_prior():
    """The prior of every pin: it depends on none of the keys that the pins vary."""
    cfg = paper_preset()
    ctx = harness.prepare_context(cfg, need_prior=False)
    return priors.load_or_build_prior(cfg, ctx.topology, ctx.quantizer, n_active=N_ACTIVE, n_cell=N_CELL)


def pin_record(prior, decoder, overrides, run):
    """One pinned run: its record, the sha256 of its MAP table and its non-empty rows' posteriors."""
    cfg = paper_preset(**overrides)
    base = harness.prepare_context(cfg, need_prior=False)
    ctx = harness.PointContext(cfg, base.topology, base.quantizer, prior)
    mod, name = DECODERS[decoder]
    decode = getattr(mod, name)
    kept = []

    def keep(*args, **kwargs):
        kept.append(decode(*args, **kwargs))
        return kept[-1]

    setattr(mod, name, keep)
    try:
        rec = harness.run_single(ctx, decoder, harness.derive_run_seed(1, 0, run))
    finally:
        setattr(mod, name, decode)
    del rec["wall_time_s"]
    (result,) = kept
    post = result.posteriors.reshape(-1, result.posteriors.shape[-1])
    rows = np.flatnonzero(post[:, 1:].sum(axis=1) >= MASS_FLOOR)
    k_bytes = np.ascontiguousarray(result.k_per_zone, dtype=np.int64).tobytes()
    return rec | {
        "overrides": overrides,
        "run": run,
        "k_per_zone_sha256": hashlib.sha256(k_bytes).hexdigest(),
        "rows": rows.tolist(),
        "posteriors": post[rows].tolist(),
    }


@pytest.fixture(scope="module")
def prior():
    return paper_prior()


@pytest.mark.parametrize("index", range(len(PINS)), ids=[f"{d}-{r}" for d, _o, r in PINS])
def test_paper_run_matches_golden_pin(prior, index):
    with open(GOLDEN) as fh:
        want = [json.loads(line) for line in fh][index]
    decoder, overrides, run = PINS[index]
    got = pin_record(prior, decoder, overrides, run)
    assert set(got) == set(want)
    for key in (*EXACT_KEYS[2:], "overrides", "k_per_zone_sha256", "rows"):
        assert got[key] == want[key], (key, got[key], want[key])
    for key in CLOSE_KEYS:
        np.testing.assert_allclose(got[key], want[key], rtol=1e-12, atol=0, err_msg=key)
    np.testing.assert_allclose(got["posteriors"], want["posteriors"], rtol=0, atol=POST_ATOL)


if __name__ == "__main__":
    pin_prior = paper_prior()
    recs = [pin_record(pin_prior, *pin) for pin in PINS]
    with open(sys.argv[1] if len(sys.argv) > 1 else GOLDEN, "w") as fh:
        for rec in recs:
            fh.write(json.dumps(rec) + "\n")
