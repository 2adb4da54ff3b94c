"""Comparison-only recursive decoder for the ternary codebooks, plus exact ML.

The fast decoder works on whole blocks of chip vectors at once.  It reads the
number of -1s in each word off the first chip, the left/right split off the
second chip, and recurses on the two halves, whose first chips are then
known exactly; the 4x8 seed matrix is the leaf (``fda_decode_batch8``).  The
only arithmetic charged to the complexity budget is the threshold
comparisons inside the constellation quantizer; every other step is index
bookkeeping.  ``fda_decode`` decodes one vector as a block of one.  There
is one quantizer, ``_q_grid``, and it works on arrays.

The leaf looks its answer up.  Each of its four chips falls in one cell of
a fixed set of integer cuts (9, 9, 6 and 8 cells), and the leaf's
quantizer rules give every point of a cell the same word and comparison
count.  The package data file ``leaf8.npy`` holds both per cell, evaluated
once from those rules at each cell's midpoint, a small multiple of 1/2
where float arithmetic is exact; the rules and the script that writes the
file live in ``tests/leaf_oracle.py``.  The table is read on the first leaf
decode, not at import.  A chip's cell takes one rounding pass: chips 0-2,
where a chip on a cut lies in the cell below it, are rounded up, chip 3,
where it lies in the cell above, is rounded down, and the integer, clipped
to [-9, 9], indexes a 19-entry table per chip.  The cuts are integers, so
the cuts below y are those below ceil(y) and the cuts at or below y are
those at or below floor(y).  Rounding and clipping a float are exact, so
every finite chip lands in its own cell, and the leaf's comparison counts
are the rules' charges.

``MlDecoder`` is the exact minimum-distance reference.  Above level 2 it
never lists the 2^K hypotheses: it runs min-sum over the recursion tree on
per-count half residuals, so its cost grows with the square of the user count.
Each half keeps its least residual per -1 count; the top keeps only the best
word, one min over the (left count, right count) cells.  A level-2 half has
no chip for user 4, so it scores the 128 words of the other seven users.
Level 2 itself is one float64 product and argmin over its 256 words.
``MlDecoder.decode`` decodes one vector as a batch of one.

Quantizer conventions used throughout (all validated exhaustively by the
noiseless round-trip suite):

* nearest-point with ties resolved toward the low end of the grid, decided
  by exact comparisons with the midpoints, so a statistic one ulp past a
  midpoint goes to the nearer point;
* ``zeta`` is the 1-based index of the chosen point counted from the high
  end; scan-range formulas convert to the low-end rank where needed;
* comparison cost is the rank from the nearer end of the grid (both ends
  cost one test, deeper points cost their inward rank).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from importlib.resources import files

import numpy as np

from .codebook import TernaryCodebook, build_codebook

_FLOAT_MAX = np.finfo(np.float64).max


@dataclass(frozen=True)
class DecodeOutcome:
    """Recovered antipodal word plus total quantizer comparisons consumed."""

    word: np.ndarray
    comparisons: int


def _q_grid(y: np.ndarray, lo, hi, step: int):
    """Nearest-point quantize onto {hi, hi-step, ..., lo}, elementwise.

    Returns (z, zeta, comparisons).  The search walks inward from both grid
    ends, so either end is settled by a single test and an interior point by
    its rank from the nearer end: a word with j minority symbols pays j+1
    tests at the first decoder quantize, and exactly 1 when the first chip
    saturates.  The grid index is clipped while still a float, so any finite
    or infinite statistic saturates at a grid end.  The index counts the
    midpoints below ``y``.  Midpoints are half-integers, so rounding
    ``y - h`` never crosses one; it can only land on one from above, which
    the exact test against that midpoint undoes.
    """
    m = (hi - lo) // step + 1
    h = lo + step / 2                       # the lowest midpoint
    i = np.ceil((y - h) / step)
    i += y > h + step * i
    i_lo = np.minimum(np.maximum(i, 0), m - 1).astype(np.int64)
    z = lo + step * i_lo
    zeta = m - i_lo
    comps = np.minimum(zeta, m + 1 - zeta)
    return z, zeta, comps


def _require_finite(y: np.ndarray, what: str, shown=None) -> None:
    """Raise one ValueError naming the first non-finite entry of the 2-D ``y``."""
    bad = ~np.isfinite(y)
    if bad.any():
        row, col = np.argwhere(bad)[0]
        value = (y if shown is None else shown)[row, col]
        raise ValueError(f"{what}: row {row}, chip {col} is {value}")


def _unit_chips(ys, rows: int, amplitude: float) -> np.ndarray:
    """Check an (N, rows) block of finite chips and divide out the amplitude."""
    y = np.asarray(ys, dtype=np.float64)
    if y.ndim != 2 or y.shape[1] != rows:
        raise ValueError(f"expected an (N, {rows}) chip block, got shape {y.shape}")
    _require_finite(y, "chips must be finite")
    if not (math.isfinite(amplitude) and amplitude > 0):
        raise ValueError(f"amplitude must be finite and positive, got {amplitude}")
    if amplitude == 1.0:
        return y
    with np.errstate(over="ignore"):
        # a quotient past the float range saturates like any huge chip
        return np.clip(y / amplitude, -_FLOAT_MAX, _FLOAT_MAX)


def _decode_block(y: np.ndarray, users: int, n):
    """Recursive fast decode of an (N, rows) block of unit-amplitude chips.

    ``n`` holds each row's known -1 count, or None to read it off chip 0.
    Children get their counts this way, so they pay no first quantize.
    """
    if users == 8:
        words, comps = fda_decode_batch8(y)
        # the leaf quantizes the exact first chip 8-2n; that test is not charged
        return words, comps if n is None else comps - np.minimum(n + 1, 9 - n)
    if n is None:
        z1, _, comps = _q_grid(y[:, 0], -users, users, 2)
        n = (users - z1) // 2
    else:
        z1, comps = users - 2 * n, 0
    # a saturated row (bound 0) is settled by its count: its single-point
    # split costs nothing and its children saturate too
    bound = users - np.abs(z1)
    z2, _, c2 = _q_grid(y[:, 1], -bound, bound, 2)
    comps = comps + np.where(bound > 0, c2, 0)
    half = (users - 1) // 2
    n_l = np.clip((2 * n - z2) // 4, np.maximum(0, n - half - 1), np.minimum(half, n))
    n_r = np.clip((2 * n + z2) // 4, np.maximum(0, n - n_l - 1), np.minimum(half, n - n_l))
    cut = y.shape[1] // 2 + 1
    left, c_l = _decode_block(np.column_stack((half - 2 * n_l, y[:, 2:cut])), half, n_l)
    right, c_r = _decode_block(np.column_stack((half - 2 * n_r, y[:, cut:])), half, n_r)
    mid = np.where(z1 > left.sum(axis=1) + right.sum(axis=1), 1, -1)
    words = np.hstack((left, mid[:, None], right)).astype(np.int8)
    return words, comps + c_l + c_r


def fda_decode_batch(c: TernaryCodebook, ys, amplitude: float = 1.0):
    """Decode an (N, rows) block of chip vectors with the recursive fast decoder.

    Returns (words, comparisons): the (N, K) int8 antipodal words and each
    row's quantizer comparisons.  Rows are decoded independently.
    """
    if c.level < 2:
        raise ValueError("fast decoding starts at level 2")
    return _decode_block(_unit_chips(ys, c.rows, amplitude), c.cols, None)


def fda_decode(c: TernaryCodebook, y, amplitude: float = 1.0) -> DecodeOutcome:
    """Decode one chip vector: ``fda_decode_batch`` on a block of one."""
    chips = np.asarray(y, dtype=np.float64)
    if chips.shape != (c.rows,):
        raise ValueError(f"chip vector length {chips.shape} does not match {c.rows}")
    words, comps = fda_decode_batch(c, chips[None, :], amplitude)
    return DecodeOutcome(word=words[0], comparisons=int(comps[0]))


def _index_words(idx: np.ndarray, users: int) -> np.ndarray:
    """Antipodal words of the given indices: bit users-1-j of an index is user j, 1 is +1."""
    bits = (idx[:, None] >> np.arange(users - 1, -1, -1)) & 1
    return (2 * bits - 1).astype(np.int8)


def _all_words(users: int) -> np.ndarray:
    """All 2^K antipodal words in lexicographic order (-1 before +1)."""
    return _index_words(np.arange(1 << users, dtype=np.int64), users)


# ML decodes levels 2 to ML_MAX_LEVEL.  A level-6 decode would index its
# 71-user halves, past the 63 bits of an int64.
ML_MAX_LEVEL = 5
# Rows per ML chunk, few enough for a chunk's scores to stay in cache: at
# level 2 each call writes every chunk's scores into one 256 x 256 float64
# buffer, 512 KiB, and at level 5 the largest temporaries are the top's
# 256 x 36 x 36 float64 cells, 2.6 MiB, and as many int64 keys when some of
# those cells tie.
_ML_ROWS = 256
_NO_INDEX = np.iinfo(np.int64).max

# The 256 level-2 words and their spreads, in index order.
_WORDS8 = _all_words(8)
_SPREAD8 = _WORDS8 @ build_codebook(2).entries.T.astype(np.int64)
# User 4's column is zero below the seed's all-ones row, so a level-2 half
# (rows 1 on) scores only the other seven users.  Their 128 words, each as
# the 8-bit index with user 4 at -1 (bit 3 clear), grouped by -1 count m
# (row m), each group in index order and padded with -1 to C(7, 3) = 35.
_GROUPS7 = np.array([np.pad(np.flatnonzero((_WORDS8[:, 4] < 0) & ((_WORDS8 < 0).sum(axis=1) == m + 1)),
                            (0, 35 - math.comb(7, m)), constant_values=-1) for m in range(8)])


def _split_cells(h: int) -> tuple:
    """The cells (pair count s = nL + nR, left count nL) of a split with h
    users per half: h, the index nR - nL + h of each cell's row-1 offset, and
    its right count, h + 1 (a +inf pad) where nR is out of range."""
    nl = np.arange(h + 1)[None, :]
    nr = np.arange(2 * h + 1)[:, None] - nl
    return h, np.clip(nr - nl + h, 0, 2 * h), np.where((nr >= 0) & (nr <= h), nr, h + 1)


# A level-j split has the level-(j-1) user count 2^j + 2^(j-3) - 1 per half.
_SPLIT_CELLS = {j: _split_cells(2 ** j + 2 ** (j - 3) - 1) for j in range(3, ML_MAX_LEVEL + 1)}


def _either(low: np.ndarray, key_clear: np.ndarray, key_set: np.ndarray):
    """Per -1 count n, the better of count n - 1 with one more user at -1 (a
    clear bit) and count n with it at +1 (a set bit).

    ``low`` holds (N, c) least scores per count, the keys the indices that
    settle a tie; the smaller key wins, and equal keys go to the clear bit.
    Returns the (N, c + 1) least scores and whether each sets the bit.
    """
    inf = np.full((len(low), 1), np.inf)
    none = np.full((len(low), 1), _NO_INDEX)
    below, above = np.hstack((inf, low)), np.hstack((low, inf))
    up = (above < below) | ((above == below) & (np.hstack((key_set, none)) < np.hstack((none, key_clear))))
    return np.where(up, above, below), up


class MlDecoder:
    """Exact minimum-distance decoder, by min-sum over per-count half residuals.

    For level i >= 3, ``C x = [sL+m+sR, sL-sR, core xL, core xR]`` with sL,
    sR the sums of the halves and m the middle user, so the squared residual
    splits by row block.  A half's sum is fixed by its -1 count, so each
    half needs only its least residual per count, and those follow by the
    same split one level down, as least residuals per count of the whole
    half (min-sum on the recursion tree: Kschischang, Frey and Loeliger,
    IEEE Trans. IT 2001).  The top needs only the best word, so it scores
    each pair of half counts (nL, nR) once, with the better middle user for
    the all-ones row.  The leaf is the level-2 half: user 4 has no chip
    there, so its table holds the 128 words of the other seven users by
    count, and user 4 moves a word to the next count.  A residual is scored
    as ``|t|^2 - 2 y.t``, the squared distance less ``|y|^2``, so large
    chips keep their differences.  Exact ties go to the lexicographically
    smallest word, as a sweep over all 2^K words in index order would give.
    The top picks its middle user on the all-ones row alone, before the rest
    of the cell is added, so where the two choices' float64 totals differ
    by rounding only, the smaller all-ones term wins.

    Level 2 scores its 256 words in one product and takes one argmin: the
    chips get a unit fifth chip, and the table a fifth row of norms |t|^2,
    so each score is ``y.(-2t)`` with ``|t|^2`` added last.  Scores are
    float64, from the chips cast once to float32.  ``comparisons`` is 2^K,
    the hypothesis count of the brute-force ML the paper prices.
    """

    def __init__(self, c: TernaryCodebook, amplitude: float = 1.0):
        if not 2 <= c.level <= ML_MAX_LEVEL:
            raise ValueError(f"ML decodes levels 2 to {ML_MAX_LEVEL}, not level {c.level}")
        if not (math.isfinite(amplitude) and amplitude > 0):
            raise ValueError(f"amplitude must be finite and positive, got {amplitude}")
        self.level, self.rows, self.users = c.level, c.rows, c.cols
        self.amplitude = amplitude
        self.comparisons = 1 << c.cols
        if c.level == 2:
            # scores |t|^2 - 2 y.t = [y, 1] @ [-2 t; |t|^2], the norm the last term
            table = amplitude * _SPREAD8
            self._table = np.vstack((-2.0 * table.T, (table ** 2).sum(axis=1)))
            return
        # leaf scores |t|^2 - 2 y.t = y @ (-2 t) + |t|^2, grouped by count;
        # a pad scores +inf
        leaf = amplitude * _SPREAD8[:, 1:]
        self._leaf = np.vstack((-2.0 * leaf, np.zeros((1, 3))))[_GROUPS7].reshape(-1, 3).T
        self._leaf_norms = np.append((leaf ** 2).sum(axis=1), np.inf)[_GROUPS7].ravel()
        # per level j >= 3, the chip offsets of a split's row sL - sR = 2 (nR - nL)
        self._offsets = {j: amplitude * 2.0 * np.arange(-h, h + 1)
                         for j, (h, _, _) in _SPLIT_CELLS.items() if j <= c.level}

    def decode(self, y) -> DecodeOutcome:
        """Decode one chip vector as a batch of one."""
        word = self.decode_batch(np.asarray(y, dtype=np.float64)[None, :])[0]
        return DecodeOutcome(word=word, comparisons=self.comparisons)

    def decode_batch(self, ys) -> np.ndarray:
        """Row-wise ML decode of an (N, rows) chip block into (N, K) int8 words."""
        y64 = np.asarray(ys, dtype=np.float64)
        if y64.ndim != 2 or y64.shape[1] != self.rows:
            raise ValueError(f"expected an (N, {self.rows}) chip block, got shape {y64.shape}")
        with np.errstate(over="ignore"):
            ys = y64.astype(np.float32)
        _require_finite(ys, "chips must be finite in float32", shown=y64)
        n = len(ys)
        out = np.empty((n, self.users), dtype=np.int8)
        if self.level == 2:
            aug = np.ones((n, 5))               # a unit fifth chip adds |t|^2
            aug[:, :4] = ys
            scores = np.empty((min(n, _ML_ROWS), 256))
        for lo in range(0, n, _ML_ROWS):
            hi = min(lo + _ML_ROWS, n)
            if self.level > 2:
                out[lo:hi] = self._decode_top(ys[lo:hi].astype(np.float64))
                continue
            chunk = np.matmul(aug[lo:hi], self._table, out=scores[:hi - lo])
            out[lo:hi] = _WORDS8[np.argmin(chunk, axis=1)]
        return out

    def _decode_top(self, y: np.ndarray) -> np.ndarray:
        """Full chips: the best word over the cells (nL, nR) of the top split.

        A cell scores the halves' least residuals at counts nL and nR, the
        row sL - sR and, of the two middle users, the one that scores lower
        on the all-ones row at total count n = nL + nR + (middle at -1); an
        exact tie there goes to -1.  Tied cells narrow to the least left
        index, then the least middle bit and right index.
        """
        h, n, cut = (self.users - 1) // 2, len(y), self.rows // 2 + 1
        low_l, idx_l = self._half(y[:, 2:cut], self.level - 1)
        low_r, idx_r = self._half(y[:, cut:], self.level - 1)
        t = self.amplitude * (self.users - 2.0 * np.arange(self.users + 1))
        ones = t * (t - 2.0 * y[:, :1])                 # all-ones row per count n
        up = ones[:, :-1] < ones[:, 1:]                 # pair count s: middle +1 (n = s)
        ones = np.minimum(ones[:, :-1], ones[:, 1:])    # or middle -1 (n = s + 1)
        d = self._offsets[self.level]
        window = np.lib.stride_tricks.sliding_window_view
        # cell (nL, nR) reads row 1 at nR - nL + h and the all-ones row at s = nL + nR
        cell = window(d * (d - 2.0 * y[:, 1:2]), h + 1, axis=1)[:, ::-1] + low_l[:, :, None]
        cell += low_r[:, None, :]
        cell += window(ones, h + 1, axis=1)
        cell = cell.reshape(n, -1)
        tied = cell == cell.min(axis=1, keepdims=True)
        # noisy chips almost never tie two cells, so narrow only a chunk
        # in which some row has more than one least cell
        if np.count_nonzero(tied) > n:
            right = (window(up, h + 1, axis=1).astype(np.int64) << h) | idx_r[:, None, :]
            for key in (np.repeat(idx_l, h + 1, axis=1), right.reshape(n, -1)):
                key = np.where(tied, key, _NO_INDEX)
                tied &= key == key.min(axis=1, keepdims=True)
        pos = np.argmax(tied, axis=1)
        rows, n_l, n_r = np.arange(n), pos // (h + 1), pos % (h + 1)
        return np.hstack((_index_words(idx_l[rows, n_l], h), 2 * up[rows, n_l + n_r, None] - 1,
                          _index_words(idx_r[rows, n_r], h))).astype(np.int8)

    def _half(self, y: np.ndarray, level: int):
        """Least residual of a half-word's chips (its level's rows 1 on) per -1
        count, and the index of the first word that reaches it."""
        if level == 2:
            r = y @ self._leaf
            r += self._leaf_norms
            r = r.reshape(len(y), 8, 35)
            pos = np.argmin(r, axis=2)
            low = np.take_along_axis(r, pos[:, :, None], axis=2)[:, :, 0]
            first = _GROUPS7[np.arange(8), pos]
            # user 4 at -1 adds one to the seven users' count; at +1 it sets bit 3
            low, up = _either(low, first, first | 8)
            none = np.full((len(y), 1), _NO_INDEX)
            return low, np.where(up, np.hstack((first | 8, none)), np.hstack((none, first)))
        h = _SPLIT_CELLS[level][0]
        low, left, mid, right = self._split(y, level)
        return low, (left << (h + 1)) | (mid << h) | right

    def _split(self, y: np.ndarray, level: int):
        """Min-sum over a level-``level`` split (rows 1 on) for every -1 count n.

        Returns the least residual and, for its smallest minimiser, the left
        half's index, the middle bit (1 for +1) and the right half's index.
        """
        h, at_diff, at_right = _SPLIT_CELLS[level]
        offsets = self._offsets[level]
        cut = (y.shape[1] + 1) // 2
        low_l, idx_l = self._half(y[:, 1:cut], level - 1)
        low_r, idx_r = self._half(y[:, cut:], level - 1)
        row = offsets * (offsets - 2.0 * y[:, :1])
        cell = row[:, at_diff]
        cell += low_l[:, None, :]
        cell += np.hstack((low_r, np.full((len(y), 1), np.inf)))[:, at_right]
        pair = cell.min(axis=2)
        key = np.where(cell == pair[:, :, None], idx_l[:, None, :], _NO_INDEX)
        nl = np.argmin(key, axis=2)                         # tied nL: least left index
        first = np.take_along_axis(idx_l, nl, axis=1)
        # count n takes s = n - 1 with middle -1, or s = n with middle +1
        low, mid = _either(pair, first, first)
        s = np.arange(2 * h + 2) - 1 + mid
        nl = np.take_along_axis(nl, s, axis=1)
        nr = np.clip(s - nl, 0, h)          # off the cells only if every residual overflows
        return (low, np.take_along_axis(idx_l, nl, axis=1),
                mid.astype(np.int64), np.take_along_axis(idx_r, nr, axis=1))


# ---------------------------------------------------------------------------
# The 4x8 leaf's cells.  Chip 0 is cut at the odd integers -7..7, chip 1 at
# the even integers -6..8 and chip 2 at the even integers -4..4; a chip on
# one of these cuts lies in the cell below it.  Chip 3 is cut at the
# integers -3..3, and a chip on a cut lies in the cell above it.  Per cell,
# the package table leaf8.npy holds the word as an index into _WORDS8 and
# the comparison count.
_LEAF_CUTS = (np.arange(-7.0, 8.0, 2.0), np.arange(-6.0, 9.0, 2.0),
              np.arange(-4.0, 5.0, 2.0), np.arange(-3.0, 4.0))
_LEAF_SIDES = ("left", "left", "left", "right")
# Entry r + 9 of row k is the cell of chip k at the integer r; every cut
# lies in [-9, 9].
_LEAF_STEPS = np.array([np.searchsorted(cuts, np.arange(-9, 10), side)
                        for cuts, side in zip(_LEAF_CUTS, _LEAF_SIDES)])


@functools.cache
def _leaf_table() -> np.ndarray:
    """The read-only package table ``leaf8.npy``, loaded on the first leaf decode."""
    with (files(__package__) / "leaf8.npy").open("rb") as f:
        table = np.load(f)
    table.flags.writeable = False
    return table


def _leaf_cells(y: np.ndarray) -> tuple:
    """The cell index of each chip of an (N, 4) block, one array per chip.

    Chips 0-2 are rounded up and chip 3 down; the clip comes before the
    integer cast, so a huge chip saturates at an edge cell.
    """
    y = y.T
    r = np.empty(y.shape)
    np.ceil(y[:3], out=r[:3])
    np.floor(y[3], out=r[3])
    np.clip(r, -9, 9, out=r)
    idx = r.astype(np.intp)
    idx += 9
    return tuple(steps[i] for steps, i in zip(_LEAF_STEPS, idx))


def fda_decode_batch8(ys: np.ndarray, amplitude: float = 1.0):
    """Decode a (trials, 4) block of seed-codebook chip vectors: the 4x8 leaf.

    Each chip falls in one cell of ``_LEAF_CUTS``: the count of cuts below
    it (at or below it, for chip 3).  The cuts are integers, so that count
    is the count below the chip's ceiling (at or below its floor, for chip
    3), and ``_LEAF_STEPS`` holds it per integer in [-9, 9], past every cut.
    Rounding and clipping a float are exact, so no chip crosses a cut on the
    way to its cell.  The four cells index one entry of the package table
    ``leaf8.npy``: the word and the comparisons that the leaf's quantizer
    rules charge at every point of those cells.  The rules (the first chip
    gives the -1 count, the second the left/right split, the last two the
    users within each side) and the script that writes the table live in
    ``tests/leaf_oracle.py``.  Returns (words, comparisons).
    """
    cell = _leaf_table()[_leaf_cells(_unit_chips(ys, 4, amplitude))]
    return _WORDS8.take(cell[:, 0], axis=0), cell[:, 1].astype(np.int64)
