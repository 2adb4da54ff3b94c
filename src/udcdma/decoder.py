"""Comparison-only recursive decoder for the ternary codebooks, plus exact ML.

The fast decoder works on whole blocks of chip vectors at once, one pass per
level of the recursion tree, whose node positions ``codebook._layout`` holds
(``build_codebook`` fills the matrix from them).  It reads the number of -1s
in each word off the first chip; then each level quantizes the left/right split
row sL - sR of all its nodes together, which hands each half its -1 count,
so no half pays a first quantize, and fixes each node's middle user (+1
exactly when the halves' counts add up to the node's).  All leaves of the
block, copies of the 4x8 seed matrix, then decode in one lookup.  The only
arithmetic charged to the complexity budget is the threshold comparisons
inside the constellation quantizer; every other step is index bookkeeping.
``fda_decode`` decodes one vector as a block of one.  There is one
quantizer, ``_q_grid``.  Its grids have step 2 and integer midpoints, so it
works on integers: the statistics' ceilings, from one rounding pass of the
block (``_ceil``) that every quantize and, above level 2, every leaf reads.

The leaf looks its answer up.  Each of its four chips falls in one cell of
a fixed set of integer cuts (9, 9, 6 and 8 cells), and the leaf's
quantizer rules give every point of a cell the same word and comparison
count.  The package data file ``leaf8.npy`` holds both per cell, evaluated
once from those rules at each cell's midpoint, a small multiple of 1/2
where float arithmetic is exact; the rules and the script that writes the
file live in ``tests/leaf_oracle.py``.  The table is read on the first leaf
decode, not at import.  The cuts are integers, so the rounding pass gives
each chip's cell: chips 1 and 2, where a chip on a cut lies in the cell
below it, are read at their ceilings c, and chip 3, where it lies in the
cell above, at its floor c - (c > y), exact also past the clip of ``_ceil``.
Chip 0 is the exact 8 - 2n handed down, whose quantize is not charged.  A
level-2 block is one leaf, rounded once (chips 0-2 up, chip 3 down), whose
table charges chip 0.  Each integer, clipped to [-9, 9], indexes a 19-entry
table per chip, so every finite chip lands in its own cell.

``MlDecoder`` is the exact minimum-distance reference.  Above level 2 it
never lists the 2^K hypotheses: it runs min-sum over the recursion tree on
per-count half residuals, so its cost grows with the square of the user count.
Minima go up, one tree level at a time: each half keeps only its least
residual per -1 count.  The word comes down by one descent from the top's
least count, which takes at each split the argmin for the count it was
handed; the rare rows with an exact tie on that path are decided again,
lexicographically.  A level-2 half has no chip for user 4, so it scores the
128 words of the other seven users.  Level 2 itself is one float64 product
and argmin over its 256 words.  Before any of this, a row returns a guess
word unscored, by default the fast decoder's word, where the residual e of
its chips from that word's spread has |e|^2 < 1.98 a^2 and every |e_r| <
0.99 a: unique decodability makes it the ML word.  ``MlDecoder.decode``
decodes one vector as a batch of one.

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

from .channel import spread_many
from .codebook import TernaryCodebook, _layout, build_codebook, level_users

_FLOAT_MAX = np.finfo(np.float64).max
_FLOAT32_MAX = float(np.finfo(np.float32).max)
_FLOAT32_TINY = float(np.finfo(np.float32).smallest_normal)      # 2^-126


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


def _chip_block(ys, rows: int) -> np.ndarray:
    """``ys`` as an (N, rows) float64 block of chip vectors."""
    y = np.asarray(ys, dtype=np.float64)
    if y.ndim != 2 or y.shape[1] != rows:
        raise ValueError(f"expected an (N, {rows}) chip block, got shape {y.shape}")
    return y


def _block_of_one(y, rows: int) -> np.ndarray:
    """One chip vector of ``rows`` chips as a (1, rows) block."""
    chips = np.asarray(y, dtype=np.float64)
    if chips.shape != (rows,):
        raise ValueError(f"expected a chip vector of length {rows}, got shape {chips.shape}")
    return chips[None, :]


def _decode_block(y: np.ndarray):
    """Fast decode of an (N, rows) block of unit-amplitude chips, one pass per
    tree level over the nodes of ``_layout``.

    Each split level quantizes the row sL - sR of all its nodes at once, as
    (N, nodes) integers from one rounding pass of the block; its nodes' halves
    get their counts this way, so they pay no first quantize, and the middle
    user is +1 exactly when the halves' counts add up to the node's.  All
    2^(level-2) leaves then go to one ``_leaf_lookup`` of their rounded chips:
    the exact first chip 8 - 2n, and chips 1-3 from the same rounding pass.
    """
    level = y.shape[1].bit_length() - 1
    if level == 2:
        # the block is one leaf, whose table quantizes chip 0: its one
        # rounding pass takes chips 0-2 up and chip 3 down
        y = y.T
        r = np.empty(y.shape)
        np.ceil(y[:3], out=r[:3])
        np.floor(y[3], out=r[3])
        return _leaf_lookup(r)
    users = level_users(level)
    rows, mids, leaf_rows, leaf_cols = _layout(level)
    c = _ceil(y, users + 2)                     # every grid lies in [-users, users]
    i, comps = _q_grid(c[:, 0], -users, users)
    counts = (users - i)[:, None]
    words = np.empty((len(y), users), dtype=np.int8)
    for j in range(level, 2, -1):
        bound = 2 * np.minimum(counts, level_users(j) - counts)
        i, q = _q_grid(c[:, rows[j]], -bound, bound)
        # a saturated node (bound 0) is settled by its count: its one-point
        # split costs nothing, and its halves saturate too
        q -= bound == 0
        comps += q.sum(axis=1)
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
    r = np.empty((4,) + counts.shape, dtype=np.int64)
    np.subtract(8, 2 * counts, out=r[0])
    r[1:] = c[:, leaf_rows].transpose(1, 0, 2)
    r[3] -= r[3] > y[:, leaf_rows[2]]
    leaf, c_leaf = _leaf_lookup(r)
    words[:, leaf_cols] = leaf.reshape(len(y), len(leaf_cols))
    # the leaf quantizes the exact first chip 8-2n; that test is not charged
    c_leaf -= np.minimum(counts + 1, 9 - counts)
    return words, comps + c_leaf.sum(axis=1)


def fda_decode_batch(c: TernaryCodebook, ys, amplitude: float = 1.0):
    """Decode an (N, rows) block of chip vectors with the recursive fast decoder.

    Returns (words, comparisons): the (N, K) int8 antipodal words and each
    row's quantizer comparisons.  Rows are decoded independently.
    """
    if c.level < 2:
        raise ValueError("fast decoding starts at level 2")
    y = _chip_block(ys, c.rows)
    _require_finite(y, "chips must be finite")
    if not (math.isfinite(amplitude) and amplitude > 0):
        raise ValueError(f"amplitude must be finite and positive, got {amplitude}")
    if amplitude != 1.0:
        with np.errstate(over="ignore"):
            # an infinite quotient saturates like any huge chip: every
            # statistic is clipped before it is cast
            y = y / amplitude
    return _decode_block(y)


def fda_decode(c: TernaryCodebook, y, amplitude: float = 1.0) -> DecodeOutcome:
    """Decode one chip vector: ``fda_decode_batch`` on a block of one."""
    words, comps = fda_decode_batch(c, _block_of_one(y, c.rows), amplitude)
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
# A level-j block is scored in chunks of _ML_CHUNK[j] rows: fewer rows pay
# more numpy calls per word, more rows leave the cache.  A level past the
# table (a lifted cap) takes _ML_LEAF_ROWS >> (j - 2) rows, 1 MiB of leaf
# scores.
_ML_CHUNK = {2: 256, 3: 384, 4: 128, 5: 128}
_ML_LEAF_ROWS = 1024

# The 256 level-2 words and their spreads, in index order.
_WORDS8 = _all_words(8)
_SEED = build_codebook(2)
_SPREAD8 = spread_many(_SEED, _WORDS8)
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


def _first_least(scores: np.ndarray, group: np.ndarray, at: np.ndarray) -> np.ndarray:
    """The _WORDS8 index of seven-user group ``group``'s first least word in
    the leaf scores (129, leaves, N), at flat offset ``at`` = leaf N + column
    of a score row; index order makes it the group's least word."""
    flat = _LEAF_GROUPS[group] * scores[0].size + at[..., None]
    return _LEAF_GROUP_WORDS[group, np.argmin(scores.reshape(-1).take(flat), axis=-1)]


def _choose(r1: np.ndarray, low: np.ndarray, s: np.ndarray, least: np.ndarray):
    """Per node and column, the left count of the first least cell at pair
    count ``s`` (nodes, N), and whether another cell there also equals
    ``least``.  ``low`` holds the halves' least residuals per count and a
    +inf row."""
    h = len(low) - 2
    at_row, at_right = (a[s] for a in _split_index(h))
    k, c = np.arange(len(s))[:, None, None], np.arange(s.shape[1])[:, None]
    cell = r1[at_row, k, c] + low[:h + 1, 0::2].transpose(1, 2, 0)
    cell += low[at_right, 2 * k + 1, c]
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
    sweep.  A split keeps its least cell per pair count s = nL + nR, and the
    leaf, the level-2 half, where user 4 has no chip, its least score per -1
    count of the 128 words of the other seven users.  Every level then gives
    count n the better middle user (user 4 at the leaf): -1 with slot n - 1,
    or +1 with slot n.  The top is a split like any other: its all-ones row
    scores t_n (t_n - 2 y0) at -1 count n, and the rows below add the
    split's least residual at n.

    Words come down by one descent: the top takes its least count, and each
    level the better middle user for the count it is handed; a split then
    takes the argmin over nL at that pair count, and a leaf the first least
    word of the chosen seven-user group.  Exact ties go to the
    lexicographically smallest word, as a sweep over all 2^K words in index
    order would give.  Rows where the top's count or a choice on the path
    tied are decided again by one call of ``_least`` on the top's least
    counts, which hands each half the counts its tied candidates allow: the
    least left half wins, then the middle user, then the right half.

    Level 2 scores its 256 words in one product and takes one argmin: the
    chips get a unit fifth chip, and the table a fifth column of norms |t|^2,
    so each score is ``y.(-2t)`` with ``|t|^2`` added last.  Scores are
    float64, from the chips cast once to float32.  ``comparisons`` is 2^K,
    the hypothesis count of the brute-force ML the paper prices.

    Before any of that, each row checks one guess word g, by default the
    fast decoder's.  Let e = y - a C g be the residual of its float32 chips
    y.  A row with |e|^2 < 1.98 a^2 and every |e_r| < 0.99 a returns g
    unscored: the ball of half the minimum distance (Agrell, Eriksson, Vardy
    and Zeger, IEEE Trans. IT 2002) widened by sqrt(2), cut to a box.  The
    certificate is exact:

    * for an antipodal word x != g, x - g = 2 d with d ternary and nonzero,
      and x's exact score exceeds g's by 4a (a |C d|^2 - e.C d).  C d is a
      nonzero integer vector by UD.  The residual's own rounding moves |e|
      and each |e_r| by less than 1e-12 a, so |e| < 1.4072 a and every
      |e_r| < 0.9901 a.  Where |C d|^2 = 1, C d is a signed unit vector
      +-u_r and x loses by at least 4a (a - |e_r|) > 0.039 a^2; where
      |C d|^2 >= 2, by at least 4a |C d| (a |C d| - |e|) >= 4 sqrt(2) a
      (sqrt(2) a - |e|) > 0.039 a^2;
    * on such a row |y_r| <= a K + |e| < a (K + 2), so each row's score
      term is at most 3 a^2 (K + 2)^2.  A score compared above is a float64
      sum over the 2^L rows in which each term meets at most 2L + 5
      roundings (the leaf or level-2 table, its product, and two additions
      per split), so it is off its exact value by at most
      gamma_{2L+5} 2^L 3 a^2 (K + 2)^2
      (Higham, Accuracy and Stability of Numerical Algorithms, ch. 3-4):
      under 1e-9 a^2 at level 5 and 1e-7 a^2 at level 7;
    * rounding is monotone, so the min-sum's least float score is the least
      of the words' own float scores, and every word it returns, the tie
      rerun's too, reaches it.  g's float score is the only one below the
      others, so scoring the row would return g, with no tie.
    """

    def __init__(self, c: TernaryCodebook, amplitude: float = 1.0):
        if not 2 <= c.level <= ML_MAX_LEVEL:
            raise ValueError(f"ML decodes levels 2 to {ML_MAX_LEVEL}, not level {c.level}")
        if not (math.isfinite(amplitude) and amplitude > 0):
            raise ValueError(f"amplitude must be finite and positive, got {amplitude}")
        # below float32's least normal the cast chips lose their bits, unit
        # chips become 0 under 7e-46; from it up a^2 >= 2^-252, so no score
        # term is subnormal and the certificate's relative bounds hold
        if amplitude < _FLOAT32_TINY:
            raise ValueError(f"amplitude {amplitude} puts ML chips below the float32 normal range")
        # every score term t_r (t_r - 2 y_r) has |t_r| <= amplitude K and
        # |y_r| <= the float32 maximum, so rows such terms bound every score
        # and every partial sum of one
        chip = amplitude * c.cols
        if not c.rows * chip * (chip + 2.0 * _FLOAT32_MAX) < _FLOAT_MAX:
            raise ValueError(f"amplitude {amplitude} puts level-{c.level} ML scores "
                             f"past the float range")
        self.level, self.rows, self.users = c.level, c.rows, c.cols
        self.amplitude = amplitude
        self._code = c
        # the certificate's squared radius and per-chip reach (class docstring)
        self._radius2, self._reach = 1.98 * amplitude * amplitude, 0.99 * amplitude
        self.comparisons = 1 << c.cols
        # scores |t|^2 - 2 y.t = [-2 t, |t|^2] @ [y; 1], the norm the last term,
        # of the 256 words at level 2 and of the leaf's 128 seven-user spreads above
        t = amplitude * (_SPREAD8 if c.level == 2 else _SPREAD8[_LEAF_WORDS, 1:])
        self._table = np.hstack((-2.0 * t, (t ** 2).sum(axis=1, keepdims=True)))
        self._ones = amplitude * (self.users - 2.0 * np.arange(self.users + 1))

    def decode(self, y) -> DecodeOutcome:
        """Decode one chip vector as a batch of one."""
        word = self.decode_batch(_block_of_one(y, self.rows))[0]
        return DecodeOutcome(word=word, comparisons=self.comparisons)

    def decode_batch(self, ys, guess=None) -> np.ndarray:
        """Row-wise ML decode of an (N, rows) chip block into (N, K) int8 words.

        ``guess`` is an (N, K) block of +-1 words, by default the fast
        decoder's words on the float32 chips.  A row whose residual from its
        guess's spread lies inside the certificate's ball and box returns the
        guess; only the other rows are scored.
        """
        y64 = _chip_block(ys, self.rows)
        with np.errstate(over="ignore"):
            ys = y64.astype(np.float32)
        _require_finite(ys, "chips must be finite in float32", shown=y64)
        if guess is None:
            guess = fda_decode_batch(self._code, ys, self.amplitude)[0]
        guess = np.asarray(guess)
        if guess.shape != (len(ys), self.users) or not (np.abs(guess) == 1).all():
            raise ValueError(f"guess must be a ({len(ys)}, {self.users}) block of +-1 words")
        far = self._uncertified(ys, guess)
        out = guess.astype(np.int8)
        out[far] = self._score(ys[far])
        return out

    def _uncertified(self, ys: np.ndarray, guess: np.ndarray) -> np.ndarray:
        """The rows whose residual from their guess's spread reaches the
        certificate's squared radius, or its reach on some chip; its
        temporaries are freed before any scoring."""
        residual = spread_many(self._code, guess, self.amplitude)
        with np.errstate(over="ignore"):            # past the float range: not certified
            residual -= ys
            far = np.einsum("ij,ij->i", residual, residual) >= self._radius2
        for chip in residual.T:
            far |= np.abs(chip) >= self._reach
        return np.flatnonzero(far)

    def _score(self, ys: np.ndarray) -> np.ndarray:
        """The least-score words of an (N, rows) block of finite float32 chips."""
        out = np.empty((len(ys), self.users), dtype=np.int8)
        step = _ML_CHUNK.get(self.level, _ML_LEAF_ROWS >> (self.level - 2))
        for lo in range(0, len(ys), step):
            out[lo:lo + step] = self._decode_chunk(ys[lo:lo + step])
        return out

    def _up(self, y: np.ndarray) -> tuple:
        """Minima up, for a (rows, N) chunk of chips with one row per column:
        each tree level's tables (own, slot, low), and the top's least
        residual of rows 1 on per -1 count, (K+2, 1, N) with a +inf row.

        ``slot`` holds a node's least residual per slot s at s + 1, +inf
        around: the leaves' per seven-user group, (11, leaves, N), under their
        ``own`` scores, (129, leaves, N) with +inf last, and a split's per
        pair count, (2h+4, nodes, N), under its row 1, (2h+1, nodes, N).
        ``low`` holds the halves' least residuals per count and a +inf row,
        (h+2, 2 nodes, N), or is None at the leaves.
        """
        rows, _, leaf_rows, _ = _layout(self.level)
        nodes, low = {}, None
        for j in range(2, self.level + 1):
            if j == 2:
                chips = np.ones((4,) + leaf_rows.shape[1:] + y.shape[1:])
                chips[:3] = y[leaf_rows]                # a unit fourth chip adds |t|^2
                own = np.empty((129,) + chips.shape[1:])
                np.matmul(self._table, chips.reshape(4, -1), out=own[:128].reshape(128, -1))
                own[128] = np.inf
                slot = np.full((11,) + chips.shape[1:], np.inf)
                for m in range(8):
                    own[_LEAF_STARTS[m]:_LEAF_STARTS[m + 1]].min(axis=0, out=slot[m + 1])
            else:
                # row sL - sR is 2 (nR - nL) at unit amplitude, at nR - nL + h
                h = level_users(j - 1)
                d = self.amplitude * (2.0 * np.arange(-h, h + 1))[:, None, None]
                own = d * (d - 2.0 * y[rows[j]])
                slot = np.full((2 * h + 4,) + own.shape[1:], np.inf)
                for nl, cell in _cells(own, low[:, 0::2], low[:, 1::2], h):
                    np.minimum(slot[nl + 1:nl + h + 2], cell, out=slot[nl + 1:nl + h + 2])
            nodes[j] = (own, slot, low)
            # count n: the middle user at -1 with slot n - 1, or at +1 with slot n
            low = np.minimum(slot[:-1], slot[1:])
        return nodes, low

    def _decode_chunk(self, ys: np.ndarray) -> np.ndarray:
        """Words of an (N, rows) chunk of float32 chips.  Level 2 takes the
        argmin of one product; above it the chips go to float64 with one row
        per column: minima up, the top's count, one descent, then ``_least``
        on the rows whose path tied."""
        if self.level == 2:
            aug = np.ones((len(ys), 5))                 # a unit fifth chip adds |t|^2
            aug[:, :4] = ys
            return _WORDS8[np.argmin(aug @ self._table.T, axis=1)]
        y = np.ascontiguousarray(ys.T, dtype=np.float64)
        nodes, low = self._up(y)
        _, mids, _, leaf_cols = _layout(self.level)
        n = y.shape[1]
        # the all-ones row scores t_n (t_n - 2 y0) at -1 count n, and the
        # rows below their least residual at that count
        t = self._ones[:, None]
        total = t * (t - 2.0 * y[0]) + low[:self.users + 1, 0]
        top = total == total.min(axis=0)
        tie = top.sum(axis=0) > 1
        counts = np.argmin(total, axis=0)[None, :]
        col = np.arange(n)
        words = np.empty((n, self.users), dtype=np.int8)
        for j in range(self.level, 1, -1):
            own, slot, low = nodes[j]
            k = np.arange(len(counts))[:, None]
            below, above = slot[counts, k, col], slot[counts + 1, k, col]
            tie |= (below == above).any(axis=0)
            plus = above < below                        # middle user +1, slot n
            s = counts - 1 + plus
            if j == 2:
                break
            n_l, tied = _choose(own, low, s, np.minimum(below, above))
            tie |= tied.any(axis=0)
            words[:, mids[j]] = (2 * plus - 1).T
            # the halves' counts, left of node k at 2k and right at 2k + 1
            counts = np.empty((2 * len(s), n), dtype=s.dtype)
            counts[0::2] = n_l
            np.subtract(s, n_l, out=counts[1::2])
        # each leaf: group s's first least word, user 4 from plus
        leaves = _WORDS8[_first_least(own, s, k * n + col) + 8 * plus]
        words[:, leaf_cols] = leaves.transpose(1, 0, 2).reshape(n, -1)
        if tie.any():
            # rare on noisy chips: decide the tied rows again, lexicographically
            cols = np.flatnonzero(tie)
            words[cols] = self._least(nodes, self.level, 0, top[:, cols], cols)[0]
        return words

    def _least(self, nodes: dict, j: int, k: int, counts: np.ndarray, cols: np.ndarray):
        """The lexicographically least word of node k of level j, per column
        of ``cols``, among the words that reach the node's least residual at a
        -1 count where the (counts, len(cols)) mask ``counts`` is set: the
        least left half first, then the middle user, then the right half.
        Returns the words and their counts."""
        own, slot, low = nodes[j]
        slot = slot[:, k, cols]
        g = len(slot) - 3                               # slots 0 to g - 1
        # slot s serves count s + 1 with the middle user at -1, and count s at +1
        minus = counts[1:] & (slot[1:g + 1] <= slot[2:g + 2])
        plus = counts[:-1] & (slot[1:g + 1] <= slot[:g])
        if j == 2:
            first = _first_least(own, np.arange(8)[:, None], k * own.shape[2] + cols)
            best = np.minimum(np.where(minus, first, 256), np.where(plus, first + 8, 256))
            words = _WORDS8[best.min(axis=0)]
            return words, np.count_nonzero(words < 0, axis=1)
        h = len(low) - 2
        tied = np.empty((h + 1, h + 1, len(cols)), dtype=bool)
        for nl, cell in _cells(own[:, k, cols], low[:, 2 * k, cols], low[:, 2 * k + 1, cols], h):
            np.equal(cell, slot[nl + 1:nl + h + 2], out=tied[nl])
        # the candidate cells (nL, nR) with the middle user at -1 and at +1
        s = np.arange(h + 1)[:, None] + np.arange(h + 1)
        minus, plus = tied & minus[s], tied & plus[s]
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
# Entry r + 9 of row k is the cell of chip k at the integer r, times the
# chip's stride in the flattened (9, 9, 6, 8) cell table; every cut lies in
# [-9, 9].
_LEAF_STEPS = np.array([np.searchsorted(cuts, np.arange(-9, 10), side) * stride
                        for cuts, side, stride in zip(_LEAF_CUTS, _LEAF_SIDES,
                                                      (9 * 6 * 8, 6 * 8, 8, 1))])


@functools.cache
def _leaf_table() -> np.ndarray:
    """The read-only package table ``leaf8.npy``, loaded on the first leaf decode."""
    with (files(__package__) / "leaf8.npy").open("rb") as f:
        table = np.load(f)
    table.flags.writeable = False
    return table


def _leaf_cell(r: np.ndarray) -> np.ndarray:
    """The flat table index of each leaf's cell, from its rounded chips ``r``,
    (4, ...) integers or integral floats: chips 0-2 rounded up and chip 3
    down, each clipped to [-9, 9] before any cast."""
    i = np.clip(r, -9, 9).astype(np.intp, copy=False)
    i += 9
    flat = _LEAF_STEPS[0].take(i[0])
    for steps, chip in zip(_LEAF_STEPS[1:], i[1:]):
        flat += steps.take(chip)
    return flat


def _leaf_lookup(r: np.ndarray):
    """Words (..., 8) and comparisons (...) of the leaves whose rounded chips
    are ``r`` (``_leaf_cell``): one entry of ``leaf8.npy`` per leaf."""
    cell = _leaf_table().reshape(-1, 2).take(_leaf_cell(r), axis=0)
    return _WORDS8.take(cell[..., 0], axis=0), cell[..., 1].astype(np.int64)


def fda_decode_batch8(ys: np.ndarray, amplitude: float = 1.0):
    """``fda_decode_batch`` on the 4x8 seed codebook: one ``leaf8.npy`` entry a row."""
    return fda_decode_batch(_SEED, ys, amplitude)
