"""A fixed reference slice that tracks the host's speed during a run.

The benchmark runs on shared hosts whose speed drifts by tens of percent
within a run and between runs.  ``slice_s`` times a fixed piece of work of
the same kind the ``mst`` library does (Python-level complex arithmetic and
small dense numpy calls: eigenvalues, least squares, polynomial products)
and uses no ``mst`` code, so a change to the library cannot move it.  The
worker runs one slice after every ``EVERY_S`` seconds of op time; op times
divided by the run's mean slice time no longer carry the host's drift.

``NOMINAL_S`` converts that ratio back to seconds: a time in ``ref_s`` is
the time the op would take on a host where one slice takes ``NOMINAL_S``.
"""

from __future__ import annotations

import time

import numpy as np

NOMINAL_S = 0.010
EVERY_S = 0.2
WINDOW = 5

_RNG = np.random.default_rng(20230711)
_A = _RNG.standard_normal((12, 12)) + 1j * _RNG.standard_normal((12, 12))
_P = _RNG.standard_normal(9) + 1j * _RNG.standard_normal(9)


def _work():
    acc = 0j
    for i in range(3000):
        z = complex(i % 7, i % 5)
        acc += z * z / (1.0 + abs(z))
    counts = {}
    for i in range(3000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    for _ in range(30):
        np.linalg.eigvals(_A)
        np.linalg.lstsq(_A, _A[0], rcond=None)
        np.polynomial.polynomial.polymul(_P, _P)
        np.roots(_P)
    return acc


def slice_s() -> float:
    """Seconds one reference slice takes now."""
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start
