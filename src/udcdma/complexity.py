"""Decoding-complexity accounting: exact analytic recursion and measurement.

The analytic side evaluates, in exact integer/rational arithmetic, the
recursion for the average number of quantizer comparisons per decode.  G is
a closed form and H and U come from one pass over a binomial row, each
evaluated once per level, so any level from 2 to 12 takes under a second:

* ``analytic_G(i)`` counts first-quantize comparisons over the half-space of
  words with at most (K-1)/2 minority symbols (a word with j of them pays
  j+1 tests), in closed form;
* ``_split_sums(i)`` gives H, the second-quantize comparisons, whose cost is
  the rank of the split statistic from the nearer grid end, and U, how many
  recursive half-decodes are spawned;
* ``analytic_T(i)`` combines them with the first-call-free average of the
  previous level, walking the levels up once (``_recursion``).

The level-2 anchor is the reference census total 1500 over the 256 seed
words.  The empirical side decodes words through the real decoder and
averages its comparison counter.
"""
from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Optional

import numpy as np

from .codebook import TernaryCodebook, UdBoundError, build_codebook, check_level, level_users
from .channel import _antipodal, spread_many
from .decoder import _all_words, fda_decode_batch

EXHAUSTIVE_BOUND = 17
# A sampled run is refused past this many words, before any is drawn: at the
# 410k words/s of a level-5 census (2.1M at level 3) that is about 40 minutes.
MAX_SAMPLES = 10 ** 9
# Words decoded per batch call, which bounds the decoder's scratch memory.
_DECODE_BLOCK = 1 << 16
# Fewer words per call at high levels: 8 * (cols + rows) bytes a word stay
# within this budget.  A block's draw holds at most 9 bytes a user (4 of raw
# PCG64 output and 4 of shifted 32-bit halves, both freed before the spread,
# and the 1-byte word), then its chips take 8 * rows.  The spread's float64
# copy of the words adds at most 512 KiB up to level 8, one piece of its
# product, and 8 * cols bytes a word from level 9 on, where a single row
# passes the piece size and the block is one product.  Levels 2 and 3 still
# decode 65,536 words a call.
_BLOCK_BYTES = 1 << 24

# Reference per-count comparison totals for the 4x8 codebook (counts of -1s
# running 0..8).  Their total, 1500 over 256 words, anchors the analytic
# recursion at level 2.
REFERENCE_CENSUS_4X8 = (1, 25, 144, 289, 488, 369, 155, 28, 1)


def analytic_G(i: int) -> int:
    """Total first-quantize comparisons over the representative half-space.

    For i >= 3 the sum of C(K, j) (j + 1) over j <= h, with K = 2h + 1, is
    2^(K-1) + K (4^h - C(2h, h)) / 2.  At level 2 the first quantize reads
    all eight users, so a word with j -1s pays its rank 1 + min(j, 8 - j)
    from the nearer end of the 9-point grid, halved over all 256 words (the
    words with four -1s pair up under negation, so the even split is exact).
    """
    if i < 2:
        raise ValueError("complexity accounting starts at level 2")
    if i == 2:
        return sum(comb(8, j) * (1 + min(j, 8 - j)) for j in range(9)) // 2
    h = level_users(i - 1)
    return 2 ** (2 * h) + (2 * h + 1) * (4 ** h - comb(2 * h, h)) // 2


def _split_sums(i: int) -> tuple[int, int]:
    """(H, U) at level i >= 3, in one pass over the binomial row C(h, k).

    A word with j <= h minority symbols puts k on one half and m >= k on the
    other, with j = k + m when the middle user is majority and k + m + 1 when
    not.  For each k, x and y count those words in each case: x sums C(h, m)
    over k <= m <= h - k (2^h less twice the prefix below k) and y over
    k <= m < h - k, twice for m > k (the mirror image).  The split quantize
    pays 2k+1 in the first case and 2k+2 in the second, from the nearer grid
    end; the all-majority word pays none.  Each word with k >= 1 spawns two
    half-decodes, beside the leading 4 (2^(2^i - 1) - 2) for k = 0.
    """
    if i < 3:
        raise ValueError("closed form defined for i >= 3")
    h = level_users(i - 1)      # users per half, also the most minority symbols (K-1)/2
    total_h, total_u = -1, 4 * (2 ** (2 ** i - 1) - 2)
    ck, below = 1, 0        # C(h, k) and the sum of C(h, m) for m < k
    for k in range(h // 2 + 1):
        run = 2 ** h - 2 * below
        x, y = 2 * run - ck, (2 * run - 3 * ck if 2 * k < h else 0)
        total_h += ck * ((2 * k + 1) * x + (2 * k + 2) * y)
        if k:
            total_u += 2 * ck * (x + y)
        below += ck
        ck = ck * (h - k) // (k + 1)
    return total_h, total_u


def _recursion(level: int) -> list:
    """(G, H, U, T, t_hat) for each level 2..level, each evaluated once.

    T is the exact average, and t_hat is the same average with the first
    call's G removed, as the level above uses it; H and U are None at
    level 2, whose T is the reference anchor.
    """
    if level < 2:
        raise ValueError("complexity accounting starts at level 2")
    g, scale = analytic_G(2), 2 ** (level_users(2) - 1)
    t = Fraction(sum(REFERENCE_CENSUS_4X8), 256)
    rows = [(g, None, None, t, (scale * t - g) / (scale - 1))]
    for i in range(3, level + 1):
        g, (h, u) = analytic_G(i), _split_sums(i)
        scale = 2 ** (level_users(i) - 1)
        total = g + h + u * rows[-1][4]
        rows.append((g, h, u, total / scale, (total - g) / (scale - 1)))
    return rows


def analytic_T(i: int) -> float:
    """Analytic average comparisons per decode at level i (exact rationals inside)."""
    return float(_recursion(i)[-1][3])


def _block_rows(c: TernaryCodebook) -> int:
    """Words per block: within the budget, and even, so that every sampled
    block but the last draws whole 64-bit outputs (``_antipodal``)."""
    return max(2, min(_DECODE_BLOCK, _BLOCK_BYTES // (8 * (c.cols + c.rows))) & ~1)


def _comparisons(c: TernaryCodebook, words: np.ndarray) -> np.ndarray:
    """Fast-decoder comparisons spent on each word's noiseless chips."""
    return fda_decode_batch(c, spread_many(c, words))[1]


def comparison_census(c: TernaryCodebook) -> list[int]:
    """Exhaustive per-count comparison totals: entry n sums the comparisons
    spent decoding every noiseless word with exactly n entries of -1."""
    if c.cols > EXHAUSTIVE_BOUND:
        raise UdBoundError(f"exhaustive sweep over 2^{c.cols} words refused; "
                           f"bound is {EXHAUSTIVE_BOUND} users")
    words = _all_words(c.cols)
    step = _block_rows(c)
    comps = np.concatenate([_comparisons(c, words[lo:lo + step])
                            for lo in range(0, len(words), step)])
    negatives = (words == -1).sum(axis=1)
    return [int(comps[negatives == n].sum()) for n in range(c.cols + 1)]


def _check_sampling(count: int, seed: Optional[int]) -> None:
    """Refuse a sample count outside 1..MAX_SAMPLES and, unless ``seed`` is
    None (no sampled word reads it), a negative seed."""
    if count < 1:
        raise ValueError(f"count (--samples) must be >= 1, got {count}")
    if count > MAX_SAMPLES:
        raise ValueError(f"--samples {count} exceeds the maximum {MAX_SAMPLES}")
    if seed is not None and seed < 0:
        raise ValueError(f"seed (--seed) must be >= 0, got {seed}")


def empirical_avg_comparisons(
    c: TernaryCodebook,
    mode: str = "exhaustive",
    count: int = 100_000,
    seed: int = 0,
) -> float:
    """Average decoder comparisons over noiseless words.

    ``mode="exhaustive"`` sweeps all 2^K words (K <= 17); ``mode="sampled"``
    draws ``count`` uniform words with the given seed, block by block from
    one generator, so the words equal one ``(count, K)`` draw.
    """
    if c.level < 2:
        raise ValueError("complexity accounting starts at level 2")
    if mode == "exhaustive":
        totals = comparison_census(c)
        return sum(totals) / 2 ** c.cols
    if mode != "sampled":
        raise ValueError(f"unknown mode {mode!r}")
    _check_sampling(count, seed)
    bits = np.random.default_rng(seed).bit_generator
    step = _block_rows(c)
    total = 0
    for lo in range(0, count, step):
        rows = min(step, count - lo)
        words = _antipodal(bits, rows * c.cols).reshape(rows, c.cols)
        total += int(_comparisons(c, words).sum())
    return total / count


def complexity_report(
    level: int,
    mode: str = "analytic",
    count: Optional[int] = None,
    seed: int = 0,
) -> dict:
    """What the ``complexity`` command prints for ``--mode`` ``mode``: the
    analytic numbers, the measured average alone (``empirical``) or both, the
    average over ``count`` words drawn with ``seed``, or over all words where
    ``count`` is None.  The sampling arguments, then the level, are checked
    before any codebook is built.  Integers print as decimal strings."""
    if mode not in ("analytic", "empirical", "both"):
        raise ValueError(f"unknown mode {mode!r}")
    sampled = count is not None
    if sampled:
        _check_sampling(count, None if mode == "analytic" else seed)
    check_level(level)
    emp = None
    if mode != "analytic":
        emp = empirical_avg_comparisons(build_codebook(level),
                                        "sampled" if sampled else "exhaustive", count, seed)
        if mode == "empirical":
            return {"level": level, "empirical_T": emp}
    rows = _recursion(level)
    g, h, u, t, _ = rows[-1]
    return {
        "level": level,
        "G": str(g),
        "H": None if h is None else str(h),
        "U": None if u is None else str(u),
        "T": float(t),
        "T_hat_prev": float(rows[-2][4]) if level >= 3 else None,
        "empirical_T": emp,
        "sample_mode": None if emp is None else (f"sampled({count})" if sampled else "exhaustive"),
    }
