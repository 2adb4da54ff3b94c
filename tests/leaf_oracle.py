"""The 4x8 leaf's decision rules, and the cell table the package decodes it from.

``leaf_rules`` is the leaf decoder written as rules: quantize the first chip
for the -1 count, the second for the left/right split, the third on a small
grid set by the counts, and scan the fourth chip's residuals when neither
side saturates.  Every rule is a threshold test on one chip, so the chip
space splits into the cells of ``udcdma.decoder._LEAF_CUTS``, and the rules
give one answer per cell.  ``build_table`` evaluates them once per cell, at
its midpoint, a small multiple of 1/2 where float arithmetic is exact, and
``udcdma.decoder.fda_decode_batch8`` decodes by looking the cell up.

Run ``python tests/leaf_oracle.py`` (with the package importable) to rewrite
``src/udcdma/leaf8.npy``, also when it is missing: the package reads the file
only on its first leaf decode.  The test suite checks the shipped file against it.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np

from udcdma.decoder import _LEAF_CUTS, _q_grid

TABLE = Path(__file__).resolve().parents[1] / "src" / "udcdma" / "leaf8.npy"

# Scan offsets of the third-chip statistic per left count n_l:
# _D_LO = -round(3 (n_l+1) / 5), _D_HI = round(3 n_l / 5) mod 2, halves up.
_D_LO = np.array([-1, -1, -2, -2, -3], dtype=np.int64)
_D_HI = np.array([0, 1, 1, 0, 0], dtype=np.int64)


def leaf_rules(y: np.ndarray):
    """Decode a (trials, 4) block of unit-amplitude seed-codebook chips by rule.

    The first chip gives the -1 count n and the second the left/right split
    (n_l on users 1-4, n_r on users 6-8).  A saturated side is filled in
    directly; otherwise the third chip is quantized on a small grid set by
    the counts, and when neither side is saturated the feasible offsets are
    scanned for the smallest fourth-chip residual.  Returns (words,
    comparisons).
    """
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


def chip_reps(k: int) -> np.ndarray:
    """One representative of each cell of chip ``k``, in cell order: the
    midpoints between its cuts and a point as far past either end."""
    cuts = _LEAF_CUTS[k]
    half = (cuts[1] - cuts[0]) / 2
    return np.append(cuts - half, cuts[-1] + half)


def cell_reps() -> np.ndarray:
    """The (9, 9, 6, 8, 4) chips representing every leaf cell."""
    return np.stack(np.meshgrid(*map(chip_reps, range(4)), indexing="ij"), axis=-1)


def build_table() -> np.ndarray:
    """The (9, 9, 6, 8, 2) uint8 table: per cell, the packed word (bit 7 is
    user 0, set for +1) and the comparison count."""
    reps = cell_reps()
    words, comps = leaf_rules(reps.reshape(-1, 4))
    packed = np.packbits(words > 0, axis=1)[:, 0]
    return np.stack((packed, comps.astype(np.uint8)), axis=1).reshape(reps.shape[:-1] + (2,))


if __name__ == "__main__":
    np.save(TABLE, build_table())
    print(f"wrote {TABLE}")
