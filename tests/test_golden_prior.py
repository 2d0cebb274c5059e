"""Bit reproducibility of the desk and paper priors.

``data/golden_desk_prior.json`` pins the prior that ``load_or_build_prior``
returns for the desk preset with the default activation and cell sample
counts; ``data/golden_paper_prior.json`` pins the paper preset's at the
benchmark's ``paper-decode`` sample counts (2000 activation, 200 cell), where
the prior keeps 12 of its 201 multiplicity columns.  Each holds
``p_active`` as ``float.hex`` and sha256 digests of the raw bytes of
``msg_probs`` and ``pmf`` (C order, float64).  The golden records see the
prior only through the decodes it feeds, so they can hide a small move in
it; these files cannot.  A change that moves any bit of a prior is a
numeric change: raise ``CACHE_VERSION`` and regenerate both files
deliberately::

    PYTHONPATH=src python tests/test_golden_prior.py
"""

import hashlib
import json
import os

import numpy as np

from tumaloc import harness, priors
from tumaloc.config import desk_preset, paper_preset

DATA = os.path.join(os.path.dirname(__file__), "data")
GOLDEN = os.path.join(DATA, "golden_desk_prior.json")
GOLDEN_PAPER = os.path.join(DATA, "golden_paper_prior.json")
PAPER_N_ACTIVE, PAPER_N_CELL = 2000, 200


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


def paper_prior():
    cfg = paper_preset()
    base = harness.prepare_context(cfg, need_prior=False)
    return priors.load_or_build_prior(cfg, base.topology, base.quantizer,
                                      n_active=PAPER_N_ACTIVE, n_cell=PAPER_N_CELL)


def _golden(path):
    with open(path) as fh:
        return json.load(fh)


def test_desk_prior_matches_golden(desk_prior_cache):
    got = prior_digest(harness.prepare_context(desk_preset(), cache_dir=desk_prior_cache).prior)
    assert got == _golden(GOLDEN)


def test_paper_prior_matches_golden():
    assert prior_digest(paper_prior()) == _golden(GOLDEN_PAPER)


if __name__ == "__main__":
    for path, prior in ((GOLDEN, harness.prepare_context(desk_preset()).prior),
                        (GOLDEN_PAPER, paper_prior())):
        with open(path, "w") as fh:
            json.dump(prior_digest(prior), fh, indent=2)
            fh.write("\n")
