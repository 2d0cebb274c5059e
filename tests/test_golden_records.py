"""Seed reproducibility: a fixed desk sweep reproduces its checked-in records.

``data/golden_desk_records.jsonl`` holds the records of a desk ``run_sweep``
at -20 and 0 dB, both decoders, two runs per point, without ``timestamp``
and ``wall_time_s``.  A change that moves any of them is a numeric change
and must regenerate the file deliberately::

    PYTHONPATH=src python tests/test_golden_records.py
"""

import json
import os
import sys
import tempfile

import numpy as np

from tumaloc import harness
from tumaloc.config import desk_preset

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "golden_desk_records.jsonl")
EXACT_KEYS = ("point", "point_index", "decoder", "run", "seed", "status", "K_a", "T_d", "decode_iters")
CLOSE_KEYS = ("tv", "w_p", "p_md", "gospa")


def sweep_records(out_dir, prior_cache):
    spec = harness.ExperimentSpec(
        base=desk_preset(),
        axis="snr_rx",
        values=(-20.0, 0.0),
        decoders=("centralized", "distributed"),
        runs=2,
        master_seed=20260,
        out_dir=out_dir,
        prior_cache=prior_cache,
    )
    records = harness.run_sweep(spec)["records"]
    return [{k: v for k, v in rec.items() if k not in ("timestamp", "wall_time_s")} for rec in records]


def test_desk_sweep_matches_golden_records(tmp_path, desk_prior_cache):
    with open(GOLDEN) as fh:
        want = [json.loads(line) for line in fh]
    got = sweep_records(str(tmp_path), desk_prior_cache)
    assert len(got) == len(want) == 8
    for g, w in zip(got, want):
        assert set(g) == set(w)
        for key in EXACT_KEYS:
            assert g[key] == w[key], (key, g, w)
        for key in CLOSE_KEYS:
            if w[key] is None:
                assert g[key] is None, (key, g, w)
            else:
                np.testing.assert_allclose(g[key], w[key], rtol=1e-12, atol=0, err_msg=key)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        recs = sweep_records(tmp, os.path.join(tmp, "prior_cache"))
    with open(sys.argv[1] if len(sys.argv) > 1 else GOLDEN, "w") as fh:
        for rec in recs:
            fh.write(json.dumps(rec) + "\n")
