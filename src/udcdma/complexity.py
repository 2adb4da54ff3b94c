"""Decoding-complexity accounting: exact analytic recursion and measurement.

The analytic side evaluates, in exact integer/rational arithmetic, the
recursion for the average number of quantizer comparisons per decode:

* ``analytic_G(i)`` counts first-quantize comparisons over the half-space of
  words with at most (K-1)/2 minority symbols (a word with j of them pays
  j+1 tests);
* ``analytic_H(i)`` counts second-quantize comparisons, whose cost is the
  rank of the split statistic from the nearer grid end;
* ``analytic_U(i)`` counts how many recursive half-decodes are spawned;
* ``analytic_T(i)`` combines them with the first-call-free average of the
  previous level.

The level-2 anchor is the reference census total 1500 over the 256 seed
words.  The empirical side decodes words through the real decoder and
averages its comparison counter.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, comb, floor
from typing import Optional

import numpy as np

from .codebook import TernaryCodebook, UdBoundError, build_codebook, check_level
from .channel import spread_many
from .decoder import _all_words, _q_grid, fda_decode_batch

EXHAUSTIVE_BOUND = 17
# Words decoded per batch call, which bounds the decoder's scratch memory.
_DECODE_BLOCK = 1 << 16

# Reference per-count comparison totals for the 4x8 codebook (counts of -1s
# running 0..8).  Their total, 1500 over 256 words, anchors the analytic
# recursion at level 2.
REFERENCE_CENSUS_4X8 = (1, 25, 144, 289, 488, 369, 155, 28, 1)


@dataclass(frozen=True)
class ComplexityReport:
    """Analytic and measured average comparison counts for one level."""

    level: int
    G: int
    H: Optional[int]
    U: Optional[int]
    T: float
    T_hat_prev: Optional[float]
    empirical_T: Optional[float]
    sample_mode: Optional[str]


def _users(i: int) -> int:
    return 2 ** (i + 1) + 2 ** (i - 2) - 1


def _half_users(i: int) -> int:
    return 2 ** i + 2 ** (i - 3) - 1


def analytic_G(i: int) -> int:
    """Total first-quantize comparisons over the representative half-space.

    For i >= 3 the closed form applies directly.  The level-2 half-space is
    realized operationally: total first-quantize comparisons over all 256
    words, halved (the words with four -1s pair up under negation, so the
    even split is exact).
    """
    if i < 2:
        raise ValueError("complexity accounting starts at level 2")
    if i == 2:
        c2 = build_codebook(2)
        words = _all_words(8)
        first_chip = spread_many(c2, words)[:, 0]
        total = int(_q_grid(first_chip, -8, 8, 2)[2].sum())
        assert total % 2 == 0
        return total // 2
    kk = _users(i)
    return sum(comb(kk, j) * (j + 1) for j in range(_half_users(i) + 1))


def analytic_H(i: int) -> int:
    """Total second-quantize comparisons over the half-space, i >= 3.

    Splitting j minority symbols as (k, j-k) across the halves costs
    2k+1 from the nearer end when the middle user is majority and 2k+2 when
    it is not; the squared-binomial term covers the balanced split.
    """
    if i < 3:
        raise ValueError("closed form defined for i >= 3")
    h = _half_users(i)      # users per half, also the most minority symbols (K-1)/2
    total = 0
    for j in range(1, h + 1):
        total += comb(h, ceil((j - 1) / 2)) ** 2 * (j + 1)
        total += 2 * sum(
            comb(h, k) * comb(h, j - k) * (2 * k + 1)
            for k in range(0, floor((j - 1) / 2) + 1)
        )
        total += 2 * sum(
            comb(h, k) * comb(h, j - k - 1) * (2 * k + 2)
            for k in range(0, floor((j - 2) / 2) + 1)
        )
    return total


def analytic_U(i: int) -> int:
    """Number of recursive half-decode invocations over the half-space, i >= 3."""
    if i < 3:
        raise ValueError("closed form defined for i >= 3")
    h = _half_users(i)      # users per half, also the most minority symbols (K-1)/2
    total = 4 * (2 ** (2 ** i - 1) - 2)
    for j in range(2, h + 1):
        total += 2 * (
            comb(h, ceil((j - 1) / 2)) ** 2
            + 2 * sum(comb(h, k) * comb(h, j - k) for k in range(1, floor((j - 1) / 2) + 1))
            + 2 * sum(comb(h, k) * comb(h, j - k - 1) for k in range(1, floor((j - 2) / 2) + 1))
        )
    return total


def _analytic_T_exact(i: int) -> Fraction:
    if i < 2:
        raise ValueError("complexity accounting starts at level 2")
    if i == 2:
        return Fraction(sum(REFERENCE_CENSUS_4X8), 256)
    num = analytic_G(i) + analytic_H(i) + analytic_U(i) * t_hat(i - 1)
    return num / Fraction(2 ** (_users(i) - 1))


def analytic_T(i: int) -> float:
    """Analytic average comparisons per decode at level i (exact rationals inside)."""
    return float(_analytic_T_exact(i))


def t_hat(i: int) -> Fraction:
    """Average level-i comparisons with the first-call share removed, as used
    one level up in the recursion."""
    scale = 2 ** (_users(i) - 1)
    return (scale * _analytic_T_exact(i) - analytic_G(i)) / (scale - 1)


def _exhaustive_words(c: TernaryCodebook) -> np.ndarray:
    if c.cols > EXHAUSTIVE_BOUND:
        raise UdBoundError(
            f"exhaustive sweep over 2^{c.cols} words refused; "
            f"bound is {EXHAUSTIVE_BOUND} users"
        )
    return _all_words(c.cols)


def _noiseless_comparisons(c: TernaryCodebook, words: np.ndarray) -> np.ndarray:
    """Fast-decoder comparisons spent on each word's noiseless chips."""
    return np.concatenate([
        fda_decode_batch(c, spread_many(c, words[lo:lo + _DECODE_BLOCK]))[1]
        for lo in range(0, len(words), _DECODE_BLOCK)
    ])


def comparison_census(c: TernaryCodebook) -> list[int]:
    """Exhaustive per-count comparison totals: entry n sums the comparisons
    spent decoding every noiseless word with exactly n entries of -1."""
    words = _exhaustive_words(c)
    comps = _noiseless_comparisons(c, words)
    negatives = (words == -1).sum(axis=1)
    return [int(comps[negatives == n].sum()) for n in range(c.cols + 1)]


def empirical_avg_comparisons(
    c: TernaryCodebook,
    mode: str = "exhaustive",
    count: int = 100_000,
    seed: int = 0,
) -> float:
    """Average decoder comparisons over noiseless words.

    ``mode="exhaustive"`` sweeps all 2^K words (K <= 17); ``mode="sampled"``
    draws ``count`` uniform words with the given seed.
    """
    if mode == "exhaustive":
        totals = comparison_census(c)
        return sum(totals) / 2 ** c.cols
    if mode != "sampled":
        raise ValueError(f"unknown mode {mode!r}")
    rng = np.random.default_rng(seed)
    words = (2 * rng.integers(0, 2, size=(count, c.cols)) - 1).astype(np.int8)
    return int(_noiseless_comparisons(c, words).sum()) / count


def complexity_report(
    level: int,
    empirical: Optional[str] = None,
    count: int = 100_000,
    seed: int = 0,
) -> ComplexityReport:
    """Assemble the analytic numbers for one level, optionally with measurement."""
    check_level(level)
    c = None
    emp = None
    if empirical is not None:
        c = build_codebook(level)
        emp = empirical_avg_comparisons(c, mode=empirical, count=count, seed=seed)
    g = analytic_G(level)
    h = analytic_H(level) if level >= 3 else None
    u = analytic_U(level) if level >= 3 else None
    hat = float(t_hat(level - 1)) if level >= 3 else None
    return ComplexityReport(
        level=level,
        G=g,
        H=h,
        U=u,
        T=analytic_T(level),
        T_hat_prev=hat,
        empirical_T=emp,
        sample_mode=empirical if empirical != "sampled" else f"sampled({count})",
    )


def report_to_json(r: ComplexityReport) -> str:
    """Exact integers as decimal strings, averages as floats."""
    payload = {
        "level": r.level,
        "G": str(r.G),
        "H": None if r.H is None else str(r.H),
        "U": None if r.U is None else str(r.U),
        "T": r.T,
        "T_hat_prev": r.T_hat_prev,
        "empirical_T": r.empirical_T,
        "sample_mode": r.sample_mode,
    }
    return json.dumps(payload)
