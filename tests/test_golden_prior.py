"""Bit reproducibility of the desk and paper priors.

``data/golden_desk_prior.json`` pins the prior that ``load_or_build_prior``
returns for the desk preset with the default cell sample count;
``data/golden_paper_prior.json`` pins the paper preset's at the benchmark's
``paper-decode`` sample counts (2000 activation, which has no effect, and
200 cell), where the prior keeps 12 of its 201 multiplicity columns.  Each
holds ``p_active`` as ``float.hex`` and sha256 digests of the raw bytes of
``msg_probs`` and ``pmf`` (C order, float64), and of the per-sensor
single-target detection integrals ``I(s)`` at 256 uniform sensor positions,
the first draws of ``STREAM_PRIORS`` substream 0: ``p_active`` is a weighted
sum over the sensor rule's nodes, which can absorb a last-bit move in one
``I(s)``.  The golden records see the prior only through the decodes it
feeds, so they can hide a small move in it; these files cannot.  A change
that moves any bit of a prior is a numeric change: raise ``CACHE_VERSION``
and regenerate both files deliberately::

    PYTHONPATH=src python tests/test_golden_prior.py
"""

import hashlib
import json
import os

import numpy as np

from tumaloc import harness, priors
from tumaloc.airlink import STREAM_PRIORS, substream
from tumaloc.config import desk_preset, paper_preset

DATA = os.path.join(os.path.dirname(__file__), "data")
GOLDEN = os.path.join(DATA, "golden_desk_prior.json")
GOLDEN_PAPER = os.path.join(DATA, "golden_paper_prior.json")
PAPER_N_ACTIVE, PAPER_N_CELL = 2000, 200
N_PINNED_SENSORS = 256


def _sha(a):
    return hashlib.sha256(np.ascontiguousarray(a, dtype=np.float64).tobytes()).hexdigest()


def prior_digest(cfg, prior):
    sensors = substream(0, STREAM_PRIORS, 0).uniform(
        0, cfg.area_side, size=(N_PINNED_SENSORS, 2))
    return {
        "p_active": float(prior.p_active).hex(),
        "detection_integral_sha256": _sha(priors._detection_integral(sensors, cfg)),
        "msg_probs_shape": list(prior.msg_probs.shape),
        "msg_probs_sha256": _sha(prior.msg_probs),
        "pmf_shape": list(prior.pmf.shape),
        "pmf_sha256": _sha(prior.pmf),
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
    cfg = desk_preset()
    got = prior_digest(cfg, harness.prepare_context(cfg, cache_dir=desk_prior_cache).prior)
    assert got == _golden(GOLDEN)


def test_paper_prior_matches_golden():
    assert prior_digest(paper_preset(), paper_prior()) == _golden(GOLDEN_PAPER)


if __name__ == "__main__":
    for path, cfg, prior in ((GOLDEN, desk_preset(), harness.prepare_context(desk_preset()).prior),
                             (GOLDEN_PAPER, paper_preset(), paper_prior())):
        with open(path, "w") as fh:
            json.dump(prior_digest(cfg, prior), fh, indent=2)
            fh.write("\n")
