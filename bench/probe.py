"""A fixed piece of work that measures how fast the host runs right now.

The benchmark's host (2 shared vCPUs) slows down by up to 2x for tens of
seconds to minutes at a time, in wall time and processor time alike.  Timing
this probe right after each operation and scaling the operation's time by
``REFERENCE_S / probe time`` removes most of that drift, while the probe
never runs program code, so a change to the program moves the scaled time
as much as the raw one.

The probe mixes the two kinds of work the workloads do: an interpreter loop
(the scalar decoder and the census) and a float32 matrix product with an
argmin over 2^17 columns (the ML decoder).
"""
from __future__ import annotations

from time import perf_counter

import numpy as np

# Probe time on the development host (2 vCPUs, Python 3.11.7, numpy 2.4.6)
# when it is not slowed down.  Any constant would do: it only sets the scale
# on which scaled times are reported.
REFERENCE_S = 0.05

_LOOP = 200_000
_rng = np.random.default_rng(0)
_Y = _rng.standard_normal((64, 8), dtype=np.float32)
_T = _rng.standard_normal((8, 1 << 17), dtype=np.float32)
_NORMS = (_T ** 2).sum(axis=0)


def probe_seconds() -> float:
    """Wall time of one probe."""
    start = perf_counter()
    acc = 0
    for i in range(_LOOP):
        acc += i if i % 3 == 1 else -1
    np.argmin(_NORMS[None, :] - 2.0 * (_Y @ _T), axis=1)
    return perf_counter() - start


def scaled(seconds: float) -> float:
    """``seconds`` as it would read on the host at reference speed, judged by
    a probe run now."""
    return seconds * REFERENCE_S / probe_seconds()
