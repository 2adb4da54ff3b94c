"""Comparison-only recursive decoder for the ternary codebooks, plus exact ML.

The fast decoder works on whole blocks of chip vectors at once.  It reads the
number of -1s in each word off the first chip, the left/right split off the
second chip, and recurses on the two halves, whose first chips are then
known exactly; the 4x8 seed matrix is the leaf (``fda_decode_batch8``).  The
only arithmetic charged to the complexity budget is the threshold
comparisons inside the constellation quantizer; every other step is index
bookkeeping.  ``fda_decode`` decodes one vector as a block of one.  There
is one quantizer, ``_q_grid``, and it works on arrays.

``MlDecoder`` is the exact minimum-distance reference.  Above level 2 it
never lists the 2^K hypotheses: it runs min-sum over the recursion tree on
per-count half residuals, so its cost grows with the square of the user count.
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

import math
from dataclasses import dataclass

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
# Rows per ML chunk: at level 5 the largest temporary is 2048 x 71 x 36
# float64 cells, 40 MiB.
_ML_ROWS = 2048
_NO_INDEX = np.iinfo(np.int64).max

# The 256 level-2 words grouped by -1 count n (row n), each group in index
# order and padded with -1 to the largest group, C(8, 4) = 70 words.
_WORDS8 = _all_words(8)
_GROUPS8 = np.array([np.pad(np.flatnonzero((_WORDS8 < 0).sum(axis=1) == n),
                            (0, 70 - math.comb(8, n)), constant_values=-1) for n in range(9)])


class MlDecoder:
    """Exact minimum-distance decoder, by min-sum over per-count half residuals.

    For level i >= 3, ``C x = [sL+m+sR, sL-sR, core xL, core xR]`` with sL,
    sR the sums of the halves and m the middle user, so the squared residual
    splits by row block.  A half's sum is fixed by its -1 count, so each
    half needs only its least residual per count, and those follow by the
    same split one level down; the leaf is the level-2 table grouped by
    count (min-sum on the recursion tree: Kschischang, Frey and Loeliger,
    IEEE Trans. IT 2001).  A residual is scored as ``|t|^2 - 2 y.t``, the
    squared distance less ``|y|^2``, so large chips keep their differences.
    Ties go to the lexicographically smallest word, as a sweep over all 2^K
    words in index order would give.  Level 2 is a single float32 argmin
    over its 256 words; above it scores are float64, from the chips cast
    once to float32.  ``comparisons`` is 2^K, the hypothesis count of the
    brute-force ML the paper prices.
    """

    def __init__(self, c: TernaryCodebook, amplitude: float = 1.0):
        if not 2 <= c.level <= ML_MAX_LEVEL:
            raise ValueError(f"ML decodes levels 2 to {ML_MAX_LEVEL}, not level {c.level}")
        if not (math.isfinite(amplitude) and amplitude > 0):
            raise ValueError(f"amplitude must be finite and positive, got {amplitude}")
        self.level, self.rows, self.users = c.level, c.rows, c.cols
        self.amplitude = amplitude
        self.comparisons = 1 << c.cols
        seed = build_codebook(2).entries.astype(np.int64)
        if c.level == 2:
            self._table = (amplitude * (_WORDS8 @ seed.T)).astype(np.float32)
            self._norms = (self._table.astype(np.float64) ** 2).sum(axis=1).astype(np.float32)
            return
        # leaf scores |t|^2 - 2 y.t = y @ (-2 t) + |t|^2, grouped by count;
        # a pad scores +inf
        leaf = amplitude * (_WORDS8 @ seed[1:].T)
        self._leaf = np.vstack((-2.0 * leaf, np.zeros((1, 3))))[_GROUPS8].reshape(-1, 3).T
        self._leaf_norms = np.append((leaf ** 2).sum(axis=1), np.inf)[_GROUPS8].ravel()
        # per level j >= 3, with h users per half: the cells (pair count
        # s = nL + nR, left count nL) of a split, and the chip offsets of its
        # row sL - sR = 2 (nR - nL)
        self._cells = {}
        h = 8
        for j in range(3, c.level + 1):
            nl = np.arange(h + 1)[None, :]
            nr = np.arange(2 * h + 1)[:, None] - nl
            on = (nr >= 0) & (nr <= h)
            self._cells[j] = (h, amplitude * 2.0 * np.arange(-h, h + 1),
                              np.clip(nr - nl + h, 0, 2 * h), np.where(on, nr, h + 1))
            h = 2 * h + 1

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
        out = np.empty((ys.shape[0], self.users), dtype=np.int8)
        for lo in range(0, ys.shape[0], _ML_ROWS):
            block = ys[lo:lo + _ML_ROWS]
            if self.level == 2:
                scores = block @ self._table.T
                scores *= -2.0
                scores += self._norms
                out[lo:lo + len(block)] = _WORDS8[np.argmin(scores, axis=1)]
            else:
                out[lo:lo + len(block)] = self._decode_top(block.astype(np.float64))
        return out

    def _decode_top(self, y: np.ndarray) -> np.ndarray:
        """Full chips: add the all-ones row, whose sum fixes the total count n."""
        h = self._cells[self.level][0]
        rest, left, mid, right = self._split(y[:, 1:], self.level)
        t = self.amplitude * (self.users - 2.0 * np.arange(self.users + 1))
        total = t * (t - 2.0 * y[:, :1]) + rest
        tied = total == total.min(axis=1, keepdims=True)
        for key in (left, mid, right):      # the smallest word: left half first
            key = np.where(tied, key, _NO_INDEX)
            tied &= key == key.min(axis=1, keepdims=True)
        best = np.argmax(tied, axis=1)[:, None]
        pick = lambda a: np.take_along_axis(a, best, axis=1)[:, 0]
        return np.hstack((_index_words(pick(left), h), 2 * pick(mid)[:, None] - 1,
                          _index_words(pick(right), h))).astype(np.int8)

    def _half(self, y: np.ndarray, level: int):
        """Least residual of a half-word's chips (its level's rows 1 on) per -1
        count, and the index of the first word that reaches it."""
        if level == 2:
            r = y @ self._leaf
            r += self._leaf_norms
            r = r.reshape(len(y), 9, 70)
            pos = np.argmin(r, axis=2)
            return np.take_along_axis(r, pos[:, :, None], axis=2)[:, :, 0], _GROUPS8[np.arange(9), pos]
        h = self._cells[level][0]
        low, left, mid, right = self._split(y, level)
        return low, (left << (h + 1)) | (mid << h) | right

    def _split(self, y: np.ndarray, level: int):
        """Min-sum over a level-``level`` split (rows 1 on) for every -1 count n.

        Returns the least residual and, for its smallest minimiser, the left
        half's index, the middle bit (1 for +1) and the right half's index.
        """
        h, offsets, at_diff, at_right = self._cells[level]
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
        inf = np.full((len(y), 1), np.inf)
        none = np.full((len(y), 1), _NO_INDEX)
        below, above = np.hstack((inf, pair)), np.hstack((pair, inf))
        first_b, first_a = np.hstack((none, first)), np.hstack((first, none))
        mid = (above < below) | ((above == below) & (first_a < first_b))
        s = np.arange(2 * h + 2) - 1 + mid
        nl = np.take_along_axis(nl, s, axis=1)
        nr = np.clip(s - nl, 0, h)          # off the cells only if every residual overflows
        return (np.where(mid, above, below), np.take_along_axis(idx_l, nl, axis=1),
                mid.astype(np.int64), np.take_along_axis(idx_r, nr, axis=1))


# ---------------------------------------------------------------------------
# The 4x8 leaf.  Scan offsets of the third-chip statistic per left count n_l:
# _D_LO = -round(3 (n_l+1) / 5), _D_HI = round(3 n_l / 5) mod 2, halves up.

_D_LO = np.array([-1, -1, -2, -2, -3], dtype=np.int64)
_D_HI = np.array([0, 1, 1, 0, 0], dtype=np.int64)


def fda_decode_batch8(ys: np.ndarray, amplitude: float = 1.0):
    """Decode a (trials, 4) block of seed-codebook chip vectors: the 4x8 leaf.

    The first chip gives the -1 count n and the second the left/right split
    (n_l on users 1-4, n_r on users 6-8).  A saturated side is filled in
    directly; otherwise the third chip is quantized on a small grid set by
    the counts, and when neither side is saturated the feasible offsets are
    scanned for the smallest fourth-chip residual.  Returns (words,
    comparisons).
    """
    y = _unit_chips(ys, 4, amplitude)
    nrows = y.shape[0]

    z1, _, comps = _q_grid(y[:, 0], -8, 8, 2)
    sat = np.abs(z1) == 8
    n = (8 - z1) // 2

    bound = 8 - np.abs(z1)
    lo2 = np.where(z1 < 0, -bound - 2, -bound)
    hi2 = np.where(z1 < 0, bound - 2, bound)
    z2, _, c2 = _q_grid(y[:, 1] - 1.0, lo2, hi2, 2)
    comps += np.where(sat, 0, c2)

    n_l = (2 * n - z2) // 4
    n_r = (2 * n + z2) // 4
    n_l = np.clip(n_l, np.maximum(0, n - 4), np.minimum(4, n))
    n_r = np.clip(n_r, np.maximum(0, n - n_l - 1), np.minimum(3, n - n_l))

    sat_l = (n_l == 0) | (n_l == 4)
    sat_r = (n_r == 0) | (n_r == 3)
    m1 = np.where(n_l == 4, 2, 0)
    m2 = np.where(n_l == 4, 1, 0)
    m3 = m2.copy()
    m11 = m2.copy()
    k1 = np.where(n_r == 3, 1, 0)
    k2 = k1.copy()
    k3 = k1.copy()

    half3 = (y[:, 2] - 1.0) / 2.0
    y4h = y[:, 3] / 2.0

    # right-side counts with the left side saturated
    right = sat_l & ~sat_r & ~sat
    if right.any():
        stat = half3 - m2 + m1
        zr, _, cr = _q_grid(stat, -1, 1, 1)
        rk2 = (zr + n_r) >> 1
        rk3 = zr + n_r - 2 * rk2
        rk1 = n_r - rk2 - rk3
        comps += np.where(right, cr, 0)
        k1 = np.where(right, np.clip(rk1, 0, 1), k1)
        k2 = np.where(right, np.clip(rk2, 0, 1), k2)
        k3 = np.where(right, np.clip(rk3, 0, 1), k3)

    # left-side counts with the right side saturated (centre offset -k1+k2 = 0)
    left = ~sat_l & sat_r & ~sat
    if left.any():
        zl, _, cl = _q_grid(half3, _D_LO[n_l], _D_HI[n_l], 1)
        s = zl - k2 + k1 + n_l
        lm2 = s >> 1
        lm3 = s - 2 * lm2
        lm1 = n_l - lm2 - lm3
        lm11 = np.where(lm1 >= 2, 1,
                        np.where(lm1 <= 0, 0,
                                 np.where(y4h - k1 - lm2 + k2 >= -0.5, 0, 1)))
        comps += np.where(left, cl, 0)
        lm1 = np.clip(lm1, 0, 2)
        lm2 = np.clip(lm2, 0, 1)
        lm3 = np.clip(lm3, 0, 1)
        lm11 = np.clip(lm11, 0, np.minimum(lm1, 1))
        m1 = np.where(left, lm1, m1)
        m2 = np.where(left, lm2, m2)
        m3 = np.where(left, lm3, m3)
        m11 = np.where(left, lm11, m11)

    # both sides unsaturated: scan the feasible offsets, keep the candidate
    # with the smallest fourth-chip residual (first strict minimum wins)
    both = ~sat_l & ~sat_r & ~sat
    if both.any():
        d_lo = _D_LO[n_l]
        d_hi = _D_HI[n_l]
        zs, zeta_s, cs = _q_grid(half3, d_lo - 1, d_hi + 1, 1)
        npts = d_hi - d_lo + 3
        rank_lo = npts - zeta_s + 1
        eta = rank_lo + d_lo - d_hi - 1
        beta_min = np.maximum(0, eta)
        lam = np.where(rank_lo <= 3, 2, 0)
        beta_max = (lam * (rank_lo - 3)) // 2 + 2
        off_lo = -1 + beta_min
        off_hi = -1 + beta_max
        empty = off_lo > off_hi

        best_d = np.full(nrows, np.inf)
        bm1 = np.zeros(nrows, np.int64)
        bm2 = np.zeros(nrows, np.int64)
        bm3 = np.zeros(nrows, np.int64)
        bm11 = np.zeros(nrows, np.int64)
        bk1 = np.zeros(nrows, np.int64)
        bk2 = np.zeros(nrows, np.int64)
        bk3 = np.zeros(nrows, np.int64)
        for off in (-1, 0, 1):
            ok = both & (((off >= off_lo) & (off <= off_hi)) | empty)
            if not ok.any():
                continue
            s = zs - off + n_l
            cm2 = s >> 1
            cm3 = s - 2 * cm2
            cm1 = n_l - cm2 - cm3
            u = off + n_r
            ck2 = u >> 1
            ck3 = u - 2 * ck2
            ck1 = n_r - ck2 - ck3
            cm11 = np.where(cm1 >= 2, 1,
                            np.where(cm1 <= 0, 0,
                                     np.where(y4h - ck1 - cm2 + ck2 >= -0.5, 0, 1)))
            d = np.abs(y4h + cm11 - cm2 - ck1 + ck2)
            take = ok & (d < best_d)
            best_d = np.where(take, d, best_d)
            bm1 = np.where(take, cm1, bm1)
            bm2 = np.where(take, cm2, bm2)
            bm3 = np.where(take, cm3, bm3)
            bm11 = np.where(take, cm11, bm11)
            bk1 = np.where(take, ck1, bk1)
            bk2 = np.where(take, ck2, bk2)
            bk3 = np.where(take, ck3, bk3)
        comps += np.where(both, cs, 0)
        bm1 = np.clip(bm1, 0, 2)
        m1 = np.where(both, bm1, m1)
        m2 = np.where(both, np.clip(bm2, 0, 1), m2)
        m3 = np.where(both, np.clip(bm3, 0, 1), m3)
        m11 = np.where(both, np.clip(bm11, 0, np.minimum(bm1, 1)), m11)
        k1 = np.where(both, np.clip(bk1, 0, 1), k1)
        k2 = np.where(both, np.clip(bk2, 0, 1), k2)
        k3 = np.where(both, np.clip(bk3, 0, 1), k3)

    mid = np.clip(n - n_l - n_r, 0, 1)
    neg = np.stack([m11, m1 - m11, m3, m2, mid, k1, k3, k2], axis=1)
    words = (1 - 2 * (neg >= 1)).astype(np.int8)
    sign_word = np.where(z1 > 0, 1, -1).astype(np.int8)
    words = np.where(sat[:, None], sign_word[:, None], words)
    return words, comps.astype(np.int64)
