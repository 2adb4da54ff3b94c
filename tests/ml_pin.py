"""Pinned ML words at levels 3-5: the inputs, regenerated from seeds, and the pin file.

``inputs(level, kind, amplitude)`` rebuilds one seeded block of chip rows:

* ``noisy``: codewords plus Gaussian noise of mixed sigma, where exact ties
  do not occur;
* ``lattice``: integer and half-integer chips, where exact ties are common;
* ``large``: finite float32 chips up to the float32 range;
* ``midpoint``: midpoints between two codewords one or two users apart, so
  both lie at the same distance.

The chips scale with the amplitude, so every kind stays finite in float32.
``tests/data/ml_golden.npz`` holds, as packed bits (1 for +1) under
``key(level, kind, amplitude)``, the words that the earlier min-sum over
packed int64 half indices (commit 6fe0035) gave for each block, and the test
suite checks the decoder against it.  The pin means something only as that
decoder's output: never rewrite it from a later decoder, which would hide a
change in the words, ties included.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np

from udcdma.channel import spread_many
from udcdma.codebook import build_codebook

PIN = Path(__file__).resolve().parent / "data" / "ml_golden.npz"
LEVELS = (3, 4, 5)
KINDS = ("noisy", "lattice", "large", "midpoint")
AMPLITUDES = (1.0, 2.5)
ROWS = 384


def key(level: int, kind: str, amplitude: float) -> str:
    return f"l{level}_{kind}_a{amplitude}"


def inputs(level: int, kind: str, amplitude: float) -> np.ndarray:
    """The (ROWS, rows) float64 chip block of one pinned case."""
    c = build_codebook(level)
    rng = np.random.default_rng([level, KINDS.index(kind), AMPLITUDES.index(amplitude)])
    x = 2 * rng.integers(0, 2, size=(ROWS, c.cols)) - 1
    if kind == "noisy":
        sigma = rng.choice([0.35, 0.7, 1.5], size=(ROWS, 1))
        y = spread_many(c, x) + rng.normal(0, 1, size=(ROWS, c.rows)) * sigma
    elif kind == "lattice":
        y = rng.integers(-2 * c.cols, 2 * c.cols + 1, size=(ROWS, c.rows)) / 2.0
    elif kind == "large":
        scale = np.array([1e4, 1e12, 1e30, 1e36, 1.3e38])
        y = rng.uniform(-1, 1, size=(ROWS, c.rows)) * scale[np.arange(ROWS) % len(scale), None]
    else:
        other = x.copy()
        flips = rng.integers(0, c.cols, size=(2, ROWS))
        other[np.arange(ROWS), flips[0]] *= -1
        even = np.arange(0, ROWS, 2)
        other[even, flips[1, even]] *= -1   # every other row flips a second user
        y = (spread_many(c, x) + spread_many(c, other)) / 2.0
    return (amplitude * y).astype(np.float32).astype(np.float64)

