"""Comparison-only recursive decoder for the ternary codebooks, plus exact ML.

The fast decoder works on whole blocks of chip vectors at once, one pass per
level of the recursion tree (``_layout``).  It reads the number of -1s in
each word off the first chip; then each level quantizes the left/right split
row sL - sR of all its nodes together, which hands each half its -1 count,
so no half pays a first quantize, and fixes each node's middle user (+1
exactly when the halves' counts add up to the node's).  All leaves of the
block, copies of the 4x8 seed matrix, then decode in one call of
``fda_decode_batch8``.  The only arithmetic charged to the complexity budget
is the threshold comparisons inside the constellation quantizer; every other
step is index bookkeeping.  ``fda_decode`` decodes one vector as a block of
one.  There is one quantizer, ``_q_grid``.  Its grids have step 2 and
integer midpoints, so it works on integers: the statistics' ceilings, from
one rounding pass of the block (``_ceil``) that every quantize reads.

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
Minima go up, one tree level at a time: each half keeps only its least
residual per -1 count.  The word comes down by one descent, which takes at
each split the argmin for the count it was handed; the rare rows with an
exact tie on that path are decided again, lexicographically.  A level-2 half
has no chip for user 4, so it scores the 128 words of the other seven users.
Level 2 itself is one float64 product and argmin over its 256 words.
``MlDecoder.decode`` decodes one vector as a batch of one.

Quantizer conventions used throughout (all validated exhaustively by the
noiseless round-trip suite):

* nearest-point with ties resolved toward the low end of the grid, decided
  exactly by the statistic's ceiling against the integer midpoints, so a
  statistic one ulp past a midpoint goes to the nearer point;
* the chosen point is named by its index from the low end of the grid;
* comparison cost is the rank from the nearer end of the grid (both ends
  cost one test, deeper points cost their inward rank).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from importlib.resources import files

import numpy as np

from .codebook import TernaryCodebook, build_codebook, level_users

_FLOAT_MAX = np.finfo(np.float64).max
_FLOAT32_MAX = float(np.finfo(np.float32).max)


@dataclass(frozen=True)
class DecodeOutcome:
    """Recovered antipodal word plus total quantizer comparisons consumed."""

    word: np.ndarray
    comparisons: int


def _ceil(y: np.ndarray, limit: int) -> np.ndarray:
    """The rounding pass that every quantize reads: ceil(y) as int64, clipped
    to [-limit, limit] while still a float, so every finite statistic lands."""
    c = np.ceil(y)
    np.maximum(c, -limit, out=c)
    np.minimum(c, limit, out=c)
    return c.astype(np.int64)


def _q_grid(c: np.ndarray, lo, hi):
    """Nearest-point quantize onto {lo, lo+2, ..., hi}, elementwise, from the
    statistics' ceilings ``c`` (``_ceil``); ``lo`` and ``hi`` are integers.

    Returns (i, comparisons): the chosen point is lo + 2i.  The search walks
    inward from both grid ends, so either end is settled by a single test
    and an interior point by its rank from the nearer end: a word with j
    minority symbols pays j+1 tests at the first decoder quantize, and
    exactly 1 when the first chip saturates.  The grid's midpoints lo+1,
    lo+3, ... are integers, so the midpoints below a statistic are those
    below its ceiling, (c - lo) // 2 of them, clipped to the grid.  A
    statistic on a midpoint therefore goes to the lower point, and one an ulp
    above it, whose ceiling is one more, to the upper point.
    """
    top = (hi - lo) >> 1                        # the index of hi
    i = c - lo
    i >>= 1
    np.maximum(i, 0, out=i)
    np.minimum(i, top, out=i)
    comps = top - i
    np.minimum(comps, i, out=comps)
    comps += 1
    return i, comps


def _require_finite(y: np.ndarray, what: str, shown=None) -> None:
    """Raise one ValueError naming the first non-finite entry of the 2-D ``y``.

    A finite sum proves every entry finite, so only a block whose sum is not
    (a bad entry, or finite entries whose sum overflows) is scanned entry by
    entry.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        if math.isfinite(np.add.reduce(y, axis=None)):
            return
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


@functools.cache
def _layout(level: int) -> tuple:
    """Where the tree nodes of a level-``level`` code sit, left to right; the
    fast decoder and the min-sum ML both walk them.

    Returns per split level j (the top is j = level) the chip row of each
    node's row sL - sR and the word column of its middle user, then the
    leaves' chip rows, (3, leaves), and word columns, eight per leaf.
    """
    rows = {j: [] for j in range(3, level + 1)}
    mids = {j: [] for j in range(3, level + 1)}
    leaves = []

    def walk(j, row, col):
        if j == 2:
            leaves.append((row, col))
            return
        h = level_users(j - 1)
        rows[j].append(row)
        mids[j].append(col + h)
        walk(j - 1, row + 1, col)
        walk(j - 1, row + (1 << (j - 1)), col + h + 1)

    walk(level, 1, 0)
    row, col = np.array(leaves).T
    return ({j: np.array(r) for j, r in rows.items()}, {j: np.array(m) for j, m in mids.items()},
            row + np.arange(3)[:, None], (col[:, None] + np.arange(8)).ravel())


def _decode_block(y: np.ndarray, users: int, n):
    """Fast decode of an (N, rows) block of unit-amplitude chips, one pass per
    tree level over the nodes of ``_layout``.

    ``n`` holds each row's known -1 count, or None to read it off chip 0.
    Each split level quantizes the row sL - sR of all its nodes at once, as
    (N, nodes) integers from one rounding pass of the block; its nodes' halves
    get their counts this way, so they pay no first quantize, and the middle
    user is +1 exactly when the halves' counts add up to the node's.  All
    2^(level-2) leaves then decode in one call of ``fda_decode_batch8``.
    """
    level = y.shape[1].bit_length() - 1
    if level == 2 and n is None:
        return fda_decode_batch8(y)             # the block is one leaf
    rows, mids, leaf_rows, leaf_cols = _layout(level)
    c = _ceil(y, users + 2)                     # every grid lies in [-users, users]
    if n is None:
        i, comps = _q_grid(c[:, 0], -users, users)
        n = users - i
    else:
        comps = 0
    counts = n[:, None]
    words = np.empty((len(y), users), dtype=np.int8)
    for j in range(level, 2, -1):
        bound = 2 * np.minimum(counts, level_users(j) - counts)
        i, q = _q_grid(c[:, rows[j]], -bound, bound)
        # a saturated node (bound 0) is settled by its count: its one-point
        # split costs nothing, and its halves saturate too
        q -= bound == 0
        comps = comps + q.sum(axis=1)
        # the split's point is z = 2i - bound, and the halves hold (2n -+ z) // 4
        # -1s; both counts always lie in their feasible ranges, so need no clip
        z = 2 * i - bound
        twice = 2 * counts
        halves = np.empty((len(y), 2 * counts.shape[1]), dtype=np.int64)
        n_l, n_r = halves[:, 0::2], halves[:, 1::2]
        np.subtract(twice, z, out=n_l)
        n_l >>= 2
        np.add(twice, z, out=n_r)
        n_r >>= 2
        # the middle user is -1 exactly when the halves hold one -1 fewer than n
        words[:, mids[j]] = 2 * (n_l + n_r - counts) + 1
        counts = halves
    chips = np.empty(counts.shape + (4,))
    chips[..., 0] = 8 - 2 * counts
    chips[..., 1:] = y[:, leaf_rows.T]
    leaf, c_leaf = fda_decode_batch8(chips.reshape(-1, 4))
    words[:, leaf_cols] = leaf.reshape(len(y), len(leaf_cols))
    # the leaf quantizes the exact first chip 8-2n; that test is not charged
    c_leaf = c_leaf.reshape(counts.shape) - np.minimum(counts + 1, 9 - counts)
    return words, comps + c_leaf.sum(axis=1)


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


def _all_words(users: int) -> np.ndarray:
    """All 2^K antipodal words in lexicographic order (-1 before +1): bit
    users-1-j of a word's index is user j, 1 for +1."""
    bits = (np.arange(1 << users)[:, None] >> np.arange(users - 1, -1, -1)) & 1
    return (2 * bits - 1).astype(np.int8)


# ML decodes levels 2 to ML_MAX_LEVEL.  The min-sum has no level limit of
# its own; the cap stays until a level-6 decode has checks in place of the
# brute force that no level past 3 admits.
ML_MAX_LEVEL = 5
# Level 2 scores chunks of this many rows into one 256 x 256 float64 buffer,
# 512 KiB.  Above it a level-j chunk has _ML_CHUNK[j] rows, whose leaf scores
# take 129 float64 per leaf and row.  Fewer rows pay more numpy calls per
# word.  At level 3 a 384-row chunk, one for a three-point sweep of 128
# trials, took 3.61 against 3.91 us per word for 128-row chunks, timed right
# after a cache-clearing probe (1.69 against 2.47 warm); at levels 4 and 5
# no chunk size measured clearly better than 128 rows.
_ML_ROWS = 256
_ML_CHUNK = {3: 384, 4: 128, 5: 128}

# The 256 level-2 words and their spreads, in index order.
_WORDS8 = _all_words(8)
_SPREAD8 = _WORDS8 @ build_codebook(2).entries.T.astype(np.int64)
# User 4's column is zero below the seed's all-ones row, so a level-2 half
# (rows 1 on) scores only the other seven users: the 128 words with user 4 at
# -1 (bit 3 clear), grouped by the seven users' -1 count m from
# _LEAF_STARTS[m] on, each group in index order.  _LEAF_GROUPS lists each
# group's positions, padded with 128, the position of a +inf score, to 35,
# and _LEAF_GROUP_WORDS the words at those positions as indices.
_LEAF_WORDS = np.flatnonzero(_WORDS8[:, 4] < 0)
_LEAF_WORDS = _LEAF_WORDS[np.argsort((_WORDS8[_LEAF_WORDS] < 0).sum(axis=1), kind="stable")]
_LEAF_STARTS = np.cumsum([0] + [math.comb(7, m) for m in range(8)])
_LEAF_GROUPS = np.array([np.pad(np.arange(s, e), (0, 35 - (e - s)), constant_values=128)
                         for s, e in zip(_LEAF_STARTS, _LEAF_STARTS[1:])])
_LEAF_GROUP_WORDS = np.append(_LEAF_WORDS, 0)[_LEAF_GROUPS]


@functools.cache
def _ml_leaf(amplitude: float) -> np.ndarray:
    """The leaf's scores |t|^2 - 2 y.t of the 128 seven-user spreads t as one
    product, [-2 t, |t|^2] @ [y; 1], with the norm the last inner term; built
    once per amplitude and shared, never written."""
    leaf = amplitude * _SPREAD8[_LEAF_WORDS, 1:]
    return np.hstack((-2.0 * leaf, (leaf ** 2).sum(axis=1, keepdims=True)))


# A level-j split has h = level_users(j - 1) users per half; its row sL - sR
# is 2 (nR - nL) at unit amplitude, indexed here by nR - nL + h.
_OFFSETS = {j: 2.0 * np.arange(-level_users(j - 1), level_users(j - 1) + 1)
                 for j in range(3, ML_MAX_LEVEL + 1)}


@functools.cache
def _split_index(h: int) -> tuple:
    """Per pair count s and left count nL of a split with h users per half:
    the index nR - nL + h of row 1, and nR, or h + 1 (a +inf pad) where nR
    is out of range."""
    nl = np.arange(h + 1)
    nr = np.arange(2 * h + 1)[:, None] - nl
    return np.clip(nr - nl + h, 0, 2 * h), np.where((nr >= 0) & (nr <= h), nr, h + 1)


def _cells(r1: np.ndarray, low_l: np.ndarray, low_r: np.ndarray, h: int):
    """Per left count nL, a split's cells (nL, nR) for every right count:
    row 1 at nR - nL plus both halves' least residuals, in that order."""
    for nl in range(h + 1):
        cell = r1[h - nl:2 * h + 1 - nl] + low_l[nl]
        cell += low_r[:h + 1]
        yield nl, cell


def _halves(n_l: np.ndarray, s: np.ndarray) -> np.ndarray:
    """The (2 nodes, N) counts of the halves, left of node k at 2k and
    right at 2k + 1, from each node's left count and pair count."""
    counts = np.empty((2 * len(s), s.shape[1]), dtype=s.dtype)
    counts[0::2] = n_l
    np.subtract(s, n_l, out=counts[1::2])
    return counts


def _choose(r1: np.ndarray, low: np.ndarray, s: np.ndarray, least: np.ndarray, extra=None):
    """Per node and column, the left count of the first least cell at pair
    count ``s`` (nodes, N), and whether another cell there also equals
    ``least``; ``extra`` is added to every cell when given.  ``low`` holds
    the halves' least residuals per count and a +inf row."""
    h = len(low) - 2
    at_row, at_right = (a[s] for a in _split_index(h))
    k, c = np.arange(len(s))[:, None, None], np.arange(s.shape[1])[:, None]
    cell = r1[at_row, k, c] + low[:h + 1, 0::2].transpose(1, 2, 0)
    cell += low[at_right, 2 * k + 1, c]
    if extra is not None:
        cell += extra[..., None]
    return np.argmin(cell, axis=-1), (cell == least[..., None]).sum(axis=-1) > 1


class MlDecoder:
    """Exact minimum-distance decoder, by min-sum over per-count half residuals.

    For level i >= 3, ``C x = [sL+m+sR, sL-sR, core xL, core xR]`` with sL,
    sR the sums of the halves and m the middle user, so the squared residual
    splits by row block.  A half's sum is fixed by its -1 count, so each
    half needs only its least residual per count, and those follow by the
    same split one level down (min-sum on the recursion tree, with traceback:
    Kschischang, Frey and Loeliger, IEEE Trans. IT 2001).  A residual is
    scored as ``|t|^2 - 2 y.t``, the squared distance less ``|y|^2``, so large
    chips keep their differences.

    Minima go up one tree level at a time, with the level's nodes and the
    chunk's rows on the trailing axes, so each minimum is an elementwise
    sweep.  The leaf is the level-2 half: user 4 has no chip there, so it
    scores the 128 words of the other seven users, and user 4 moves a word
    to the next count.  A split keeps its least cell per pair count
    s = nL + nR, and per count the better middle user.  The top adds the
    all-ones row to each pair count's least cell, with the middle user that
    scores lower on that row alone (an exact tie there goes to -1); rounding
    is monotone, so that is the least over the cells with the row added.

    Words come down by one descent: the top takes its least pair count,
    each split the argmin over nL at the count it is handed, and each leaf
    user 4's bit and the first least word of the chosen seven-user group.
    Exact ties go to the lexicographically smallest word, as a sweep over
    all 2^K words in index order would give.  Rows where a choice on the
    path tied are decided again by ``_least``, which hands each half the
    counts its tied candidates allow: the least left half wins, then the
    middle user, then the right half.

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
        # every score term t_r (t_r - 2 y_r) has |t_r| <= amplitude K and
        # |y_r| <= the float32 maximum, so rows such terms bound every score
        # and every partial sum of one
        chip = amplitude * c.cols
        if not c.rows * chip * (chip + 2.0 * _FLOAT32_MAX) < _FLOAT_MAX:
            raise ValueError(f"amplitude {amplitude} puts level-{c.level} ML scores "
                             f"past the float range")
        self.level, self.rows, self.users = c.level, c.rows, c.cols
        self.amplitude = amplitude
        self.comparisons = 1 << c.cols
        if c.level == 2:
            # scores |t|^2 - 2 y.t = [y, 1] @ [-2 t; |t|^2], the norm the last term
            table = amplitude * _SPREAD8
            self._table = np.vstack((-2.0 * table.T, (table ** 2).sum(axis=1)))
            return
        self._leaf = _ml_leaf(amplitude)
        self._offsets = {j: amplitude * d for j, d in _OFFSETS.items()}
        self._ones = amplitude * (self.users - 2.0 * np.arange(self.users + 1))

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
        if self.level > 2:
            step = _ML_CHUNK[self.level]
            for lo in range(0, n, step):
                hi = min(lo + step, n)
                out[lo:hi] = self._decode_chunk(np.ascontiguousarray(ys[lo:hi].T, dtype=np.float64))
            return out
        aug = np.ones((n, 5))                   # a unit fifth chip adds |t|^2
        aug[:, :4] = ys
        scores = np.empty((min(n, _ML_ROWS), 256))
        for lo in range(0, n, _ML_ROWS):
            hi = min(lo + _ML_ROWS, n)
            chunk = np.matmul(aug[lo:hi], self._table, out=scores[:hi - lo])
            out[lo:hi] = _WORDS8[np.argmin(chunk, axis=1)]
        return out

    def _up(self, y: np.ndarray) -> dict:
        """Minima up, for a (rows, N) chunk of chips with one row per column.

        Level 2 gets the leaves' scores, (129, leaves, N) with +inf last, and
        their least score per seven-user group m at m + 1 of (11, leaves, N),
        +inf around.  Split level j gets its row 1, (2h+1, nodes, N), its
        least cell per pair count s at s + 1 of (2h+4, nodes, N), +inf around,
        and its halves' least residuals per count and a +inf row,
        (h+2, 2 nodes, N).
        """
        rows, _, leaf_rows, _ = _layout(self.level)
        chips = np.ones((4,) + leaf_rows.shape[1:] + y.shape[1:])
        chips[:3] = y[leaf_rows]                        # a unit fourth chip adds |t|^2
        scores = np.empty((129,) + chips.shape[1:])
        np.matmul(self._leaf, chips.reshape(4, -1), out=scores[:128].reshape(128, -1))
        scores[128] = np.inf
        low7 = np.full((11,) + chips.shape[1:], np.inf)
        for m in range(8):
            scores[_LEAF_STARTS[m]:_LEAF_STARTS[m + 1]].min(axis=0, out=low7[m + 1])
        nodes = {2: (scores, low7)}
        # count n: user 4 at -1 with group n - 1, or at +1 with group n
        low = np.minimum(low7[:-1], low7[1:])
        for j in range(3, self.level + 1):
            h = level_users(j - 1)
            d = self._offsets[j][:, None, None]
            r1 = d * (d - 2.0 * y[rows[j]])
            pair = np.full((2 * h + 4,) + r1.shape[1:], np.inf)
            for nl, cell in _cells(r1, low[:, 0::2], low[:, 1::2], h):
                np.minimum(pair[nl + 1:nl + h + 2], cell, out=pair[nl + 1:nl + h + 2])
            nodes[j] = (r1, pair, low)
            # count n: middle -1 with s = n - 1, or +1 with s = n
            low = np.minimum(pair[:-1], pair[1:])
        return nodes

    def _decode_chunk(self, y: np.ndarray) -> np.ndarray:
        """Words of a (rows, N) chunk of chips, one row per column: minima up,
        then one descent, then ``_least`` on the rows whose path tied."""
        nodes = self._up(y)
        _, mids, _, leaf_cols = _layout(self.level)
        h, n = (self.users - 1) // 2, y.shape[1]
        t = self._ones[:, None]
        ones = t * (t - 2.0 * y[0])                     # all-ones row per count n
        up = ones[:-1] < ones[1:]                       # pair count s: middle +1 (n = s)
        ones = np.minimum(ones[:-1], ones[1:])          # or middle -1 (n = s + 1)
        r1, pair, low = nodes[self.level]
        total = pair[1:2 * h + 2, 0] + ones
        s = np.argmin(total, axis=0)[None, :]
        col = np.arange(n)
        best = total[s, col]
        tie = (total == best).sum(axis=0) > 1
        n_l, tied = _choose(r1, low, s, best, ones[s, col])
        tie |= tied[0]
        words = np.empty((n, self.users), dtype=np.int8)
        words[:, h] = 2 * up[s[0], col] - 1
        counts = _halves(n_l, s)
        for j in range(self.level - 1, 2, -1):
            r1, pair, low = nodes[j]
            k = np.arange(len(counts))[:, None]
            below, above = pair[counts, k, col], pair[counts + 1, k, col]
            plus = above < below                        # middle +1, s = n
            s = counts - 1 + plus
            n_l, tied = _choose(r1, low, s, np.minimum(below, above))
            tie |= (tied | (below == above)).any(axis=0)
            words[:, mids[j]] = (2 * plus - 1).T
            counts = _halves(n_l, s)
        scores, low7 = nodes[2]
        k = np.arange(len(counts))[:, None]
        below, above = low7[counts, k, col], low7[counts + 1, k, col]
        tie |= (below == above).any(axis=0)
        plus = above < below                            # user 4 at +1
        group = counts - 1 + plus
        at = _LEAF_GROUPS[group] * counts.size + (k * n + col)[..., None]
        # the group's first least word, which index order makes its least word
        pos = np.argmin(scores.reshape(-1).take(at), axis=-1)
        leaves = _WORDS8[_LEAF_GROUP_WORDS[group, pos] + 8 * plus]
        words[:, leaf_cols] = leaves.transpose(1, 0, 2).reshape(n, -1)
        if tie.any():
            # rare on noisy chips: decide the tied rows again, lexicographically
            cols = np.flatnonzero(tie)
            r1, pair, low = nodes[self.level]
            least = np.empty((h + 1, h + 1, len(cols)), dtype=bool)
            for nl, cell in _cells(r1[:, 0, cols], low[:, 0, cols], low[:, 1, cols], h):
                cell += ones[nl:nl + h + 1, cols]
                np.equal(cell, best[0, cols], out=least[nl])
            plus = up[:, cols][np.arange(h + 1)[:, None] + np.arange(h + 1)]
            words[cols] = self._least_pair(nodes, self.level, 0, least & ~plus, least & plus, cols)[0]
        return words

    def _least(self, nodes: dict, j: int, k: int, counts: np.ndarray, cols: np.ndarray):
        """The lexicographically least word of node k of level j, per column
        of ``cols``, among the words that reach the node's least residual at a
        -1 count where the (counts, len(cols)) mask ``counts`` is set.
        Returns the words and their counts."""
        if j == 2:
            scores, low7 = nodes[2]
            low7 = low7[:, k, cols]
            pos = np.argmin(scores[:, k, cols][_LEAF_GROUPS], axis=1)
            first = _LEAF_GROUP_WORDS[np.arange(8)[:, None], pos]
            # group m with user 4 at -1 serves count m + 1, and at +1 count m
            clear = counts[1:] & (low7[1:9] <= low7[2:10])
            set_ = counts[:-1] & (low7[1:9] <= low7[:8])
            best = np.minimum(np.where(clear, first, 256), np.where(set_, first + 8, 256))
            words = _WORDS8[best.min(axis=0)]
            return words, np.count_nonzero(words < 0, axis=1)
        r1, pair, low = nodes[j]
        h = len(low) - 2
        pair = pair[:, k, cols]
        # pair count s serves count s + 1 with the middle user at -1, and count s at +1
        minus = counts[1:] & (pair[1:2 * h + 2] <= pair[2:2 * h + 3])
        plus = counts[:-1] & (pair[1:2 * h + 2] <= pair[:2 * h + 1])
        tied = np.empty((h + 1, h + 1, len(cols)), dtype=bool)
        for nl, cell in _cells(r1[:, k, cols], low[:, 2 * k, cols], low[:, 2 * k + 1, cols], h):
            np.equal(cell, pair[nl + 1:nl + h + 2], out=tied[nl])
        s = np.arange(h + 1)[:, None] + np.arange(h + 1)
        return self._least_pair(nodes, j, k, tied & minus[s], tied & plus[s], cols)

    def _least_pair(self, nodes: dict, j: int, k: int, minus: np.ndarray, plus: np.ndarray,
                    cols: np.ndarray):
        """The lexicographically least word over candidate cells (nL, nR) of
        node k of level j, ``minus`` with the middle user at -1 and ``plus``
        at +1, each an (nL, nR, len(cols)) mask: the least left half first,
        then the middle user, then the right half.  Returns words and counts."""
        words_l, n_l = self._least(nodes, j - 1, 2 * k, (minus | plus).any(axis=1), cols)
        pick = np.arange(len(cols))
        minus, plus = minus[n_l, :, pick], plus[n_l, :, pick]
        low_mid = minus.any(axis=1)
        right = np.where(low_mid[:, None], minus, plus).T
        words_r, n_r = self._least(nodes, j - 1, 2 * k + 1, right, cols)
        mid = np.where(low_mid, -1, 1).astype(np.int8)[:, None]
        return np.hstack((words_l, mid, words_r)), n_l + n_r + low_mid


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
    np.maximum(r, -9, out=r)
    np.minimum(r, 9, out=r)
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
    table = _leaf_table()
    flat, *rest = _leaf_cells(_unit_chips(ys, 4, amplitude))
    for size, cell in zip(table.shape[1:], rest):      # the cells' flat index
        flat *= size
        flat += cell
    cell = table.reshape(-1, 2).take(flat, axis=0)
    return _WORDS8.take(cell[:, 0], axis=0), cell[:, 1].astype(np.int64)
