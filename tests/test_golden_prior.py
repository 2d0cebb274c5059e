"""Bit reproducibility of the desk prior at its default sample counts.

``data/golden_desk_prior.json`` pins the prior that ``load_or_build_prior``
returns for the desk preset with the default activation and cell sample
counts: ``p_active`` as ``float.hex`` and sha256 digests of the raw bytes of
``msg_probs`` and ``pmf`` (C order, float64).  The golden records see the
prior only through the decodes it feeds, so they can hide a small move in
it; this file cannot.  A change that moves any bit of the prior is a
numeric change: raise ``CACHE_VERSION`` and regenerate the file
deliberately::

    PYTHONPATH=src python tests/test_golden_prior.py
"""

import hashlib
import json
import os
import sys

import numpy as np

from tumaloc import harness
from tumaloc.config import desk_preset

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "golden_desk_prior.json")


def prior_digest(prior):
    def sha(a):
        return hashlib.sha256(np.ascontiguousarray(a, dtype=np.float64).tobytes()).hexdigest()

    return {
        "p_active": float(prior.p_active).hex(),
        "msg_probs_shape": list(prior.msg_probs.shape),
        "msg_probs_sha256": sha(prior.msg_probs),
        "pmf_shape": list(prior.pmf.shape),
        "pmf_sha256": sha(prior.pmf),
    }


def test_desk_prior_matches_golden(desk_prior_cache):
    with open(GOLDEN) as fh:
        want = json.load(fh)
    got = prior_digest(harness.prepare_context(desk_preset(), cache_dir=desk_prior_cache).prior)
    assert got == want


if __name__ == "__main__":
    doc = prior_digest(harness.prepare_context(desk_preset()).prior)
    with open(sys.argv[1] if len(sys.argv) > 1 else GOLDEN, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
