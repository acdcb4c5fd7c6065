"""The machine's speed, measured by a fixed probe run between the cases.

The benchmark runs on shared virtual machines whose speed drifts by a third
within minutes: the same seed of the same workload ran at 6.1, 7.8, 6.3 and
6.8 cases/s in four back-to-back 30 s runs.  So the end-to-end timings are
wall times rescaled to one reference speed.  After each timed case,
:func:`probe_for` runs a fixed piece of the benchmark's own code for a set
share of that case's wall time; :func:`local_factors` turns the probe's
mean time per iteration over the cases around each case, against
:data:`NOMINAL_S`, into that case's factor.  Over rounds of about 3.5 s of
linearity-sweep or cw-certify cases, rescaling took the spread (coefficient
of variation) of the round's time from 0.16 to 0.06-0.08; over 30 s windows
of strand-polarize, from 0.17 to 0.02.  The machine switches between a fast
and a slow mode, and the probe slows by a little more than the program
does, so rescaled times still move a little with the mix of modes in a run.

The probe is the benchmark's own code and never calls the program, so a
change to the program moves the rescaled times exactly as it moves wall
time.  It runs with the garbage collector off, so what the program leaves
on the heap does not change its cost.
"""

from __future__ import annotations

import gc
import random
import statistics
import time

import numpy as np

import checks
from corpus import generic_weights

# Seconds per probe iteration at the reference speed: about the median
# iteration time on the 2-vCPU machine the README's figures come from.
NOMINAL_S = 0.001
PRIME = 32003

_WEIGHTS = generic_weights(3, 6, random.Random(5))
_MATRIX = np.random.default_rng(3).integers(0, PRIME, size=(24, 24)).astype(np.int64)


def probe() -> int:
    """One iteration: the recomputed linearity criterion on a fixed 3x6
    input (pure Python, like most of the program) and a row reduction mod p
    of a fixed 24x24 matrix (numpy, like the program's ranks)."""
    checks.is_linear(3, 6, _WEIGHTS, ((1, 2, 3), (4, 5, 6)))
    a, rank = _MATRIX.copy(), 0
    for col in range(a.shape[1]):
        nonzero = np.nonzero(a[rank:, col])[0]
        if len(nonzero) == 0:
            continue
        pivot = rank + nonzero[0]
        a[[rank, pivot]] = a[[pivot, rank]]
        a[rank] = a[rank] * pow(int(a[rank, col]), PRIME - 2, PRIME) % PRIME
        a[rank + 1:] = (a[rank + 1:] - np.outer(a[rank + 1:, col], a[rank])) % PRIME
        rank += 1
        if rank == a.shape[0]:
            break
    return rank


def probe_for(seconds: float) -> list[float]:
    """Run the probe for ``seconds``, and at least once, with the garbage
    collector off; returns the time of each iteration."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times: list[float] = []
        spent = 0.0
        while not times or spent < seconds:
            start = time.perf_counter()
            probe()
            times.append(time.perf_counter() - start)
            spent += times[-1]
        return times
    finally:
        if enabled:
            gc.enable()


def factor(times: list[float]) -> float:
    """Reference seconds per wall second, from probe iteration times: the
    mean iteration time, each counted at most at three times the median,
    since now and then one iteration stalls for fifty times its usual time.
    (The median alone follows the fast and slow modes too sharply.)"""
    cap = 3 * statistics.median(times)
    return NOMINAL_S / statistics.fmean(min(t, cap) for t in times)


def local_factors(probes: list[list[float]], window: int) -> list[float]:
    """One factor for each timed case, given the probe iterations run after
    each: from the iterations of the case and of its nearest neighbours on
    both sides, widened one case at a time until they hold at least
    ``window`` iterations."""
    out = []
    for i in range(len(probes)):
        lo, hi = i, i + 1
        times = list(probes[i])
        while len(times) < window and (lo > 0 or hi < len(probes)):
            if lo > 0:
                lo -= 1
                times.extend(probes[lo])
            if hi < len(probes):
                times.extend(probes[hi])
                hi += 1
        out.append(factor(times))
    return out
