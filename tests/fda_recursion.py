"""The recursive fast decoder that the level-wise ``_decode_block`` replaced.

``decode_block(y, users, n)`` decodes an (N, rows) block of unit-amplitude
chips node by node: it quantizes chip 0 (or takes the -1 count handed down),
then chip 1 for the left/right split, recurses on the two halves with their
first chips set to the exact known sums, and reads the middle user off chip
0 against the two halves' sums.  Its float quantizer ``q_grid`` finds the
grid point by float arithmetic and an exact midpoint test, not from a
rounding pass.  The test suite checks the package's level passes against it,
words and comparisons alike.
"""
from __future__ import annotations

import numpy as np

from udcdma import decoder


def q_grid(y: np.ndarray, lo, hi, step: int = 2):
    """Nearest-point quantize onto {hi, hi-step, ..., lo}, ties to the low end:
    (z, zeta, comparisons), zeta counted from the high end.  The index counts
    the midpoints below ``y``; rounding ``y - h`` can only land on one from
    above, which the exact test against that midpoint undoes."""
    m = (hi - lo) // step + 1
    h = lo + step / 2                       # the lowest midpoint
    i = np.ceil((y - h) / step)
    i += y > h + step * i
    i_lo = np.minimum(np.maximum(i, 0), m - 1).astype(np.int64)
    zeta = m - i_lo
    return lo + step * i_lo, zeta, np.minimum(zeta, m + 1 - zeta)


def decode_block(y: np.ndarray, users: int, n):
    """Words and comparisons of an (N, rows) block, by recursion on the halves.

    The leaf is ``udcdma.decoder.fda_decode_batch8``, looked up at each call.
    """
    if users == 8:
        words, comps = decoder.fda_decode_batch8(y)
        # the leaf quantizes the exact first chip 8-2n; that test is not charged
        return words, comps if n is None else comps - np.minimum(n + 1, 9 - n)
    if n is None:
        z1, _, comps = q_grid(y[:, 0], -users, users)
        n = (users - z1) // 2
    else:
        z1, comps = users - 2 * n, 0
    # a saturated row (bound 0) is settled by its count: its single-point
    # split costs nothing and its children saturate too
    bound = users - np.abs(z1)
    z2, _, c2 = q_grid(y[:, 1], -bound, bound)
    comps = comps + np.where(bound > 0, c2, 0)
    half = (users - 1) // 2
    n_l = np.clip((2 * n - z2) // 4, np.maximum(0, n - half - 1), np.minimum(half, n))
    n_r = np.clip((2 * n + z2) // 4, np.maximum(0, n - n_l - 1), np.minimum(half, n - n_l))
    cut = y.shape[1] // 2 + 1
    left, c_l = decode_block(np.column_stack((half - 2 * n_l, y[:, 2:cut])), half, n_l)
    right, c_r = decode_block(np.column_stack((half - 2 * n_r, y[:, cut:])), half, n_r)
    mid = np.where(z1 > left.sum(axis=1) + right.sum(axis=1), 1, -1)
    words = np.hstack((left, mid[:, None], right)).astype(np.int8)
    return words, comps + c_l + c_r
