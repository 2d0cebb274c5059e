"""A gauge of how fast the host runs this process at the moment.

Other tenants of a shared host slow this process's CPU for seconds to
minutes at a time, by up to 40 %, and process CPU time rises with wall time
then, so no in-process clock sees past it.  A run of the benchmark that
falls in such a spell reads slower as a whole.  The gauge times a fixed mix
of interpreter loop, numpy element-wise work, a sort and a small BLAS
product, none of it package code, right before and after each timed
operation, and every half second during it.  ``run.py`` rescales each
operation's wall time by ``REF_S / gauge``: the time it would take on the
host running at the speed at which the gauge takes ``REF_S``.  A change to
the program moves the operation's time and not the gauge's, so it shows in
full.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# median gauge time on a 2-vCPU Intel Xeon VM with one BLAS thread
REF_S = 6.5e-4
# seconds between gauges during a long operation: about 1 % of its time
PERIOD_S = 0.5

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((128, 128))
_x = _rng.standard_normal(16384)


def _work() -> float:
    s = 0.0
    for i in range(5000):
        s += i * 0.5
    return s + float(np.sort(_x)[0]) + float((_A @ _A)[0, 0]) + float(np.exp(-_x * _x).sum())


def gauge(reps: int = 5) -> float:
    """Median wall time of ``reps`` runs of the fixed work."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        _work()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def timed(fn, *args, period: float = PERIOD_S):
    """Run ``fn(*args)``; return its result, its wall time and its wall time at gauge speed ``REF_S``.

    The gauge runs before and after the call and, from a ``SIGALRM`` handler,
    every ``period`` seconds during it (never, with ``period`` 0).  Each
    stretch between two gauges is rescaled by the mean of the gauge at its two
    ends; the gauges' own time is left out of both figures.
    """
    state = {"g": gauge(), "wall": 0.0, "at_ref": 0.0}

    def close_stretch(*_signal):
        end = time.perf_counter()
        g = gauge()
        stretch = end - state["t"]
        state["wall"] += stretch
        state["at_ref"] += stretch * REF_S / (0.5 * (state["g"] + g))
        state["g"] = g
        state["t"] = time.perf_counter()

    old = signal.signal(signal.SIGALRM, close_stretch)
    state["t"] = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, period, period)
    try:
        res = fn(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    close_stretch()
    return res, state["wall"], state["at_ref"]
