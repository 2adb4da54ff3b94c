"""Checks made apart from the program: the code matrices, the sweep inputs and ML.

Everything here is written from the paper's construction and from the
documented conventions of ``udcdma`` (block keying, Eb/N0), not from its
code, so that an agreement between the two is evidence about both.
"""
from __future__ import annotations

import math

import numpy as np

# The 4x8 seed matrix as printed in the paper.
SEED_4X8 = np.array([[1, 1, 1, 1, 1, 1, 1, 1],
                     [1, 1, 1, 1, 0, -1, -1, -1],
                     [1, 1, 0, -1, 0, 1, 0, -1],
                     [1, 0, 0, -1, 0, -1, 0, 1]], dtype=np.int64)

# Sweeps draw trials in blocks of this many rows (``udcdma.channel``).
BLOCK = 4096


def code_matrix(level: int) -> np.ndarray:
    """The level-``level`` matrix (level >= 2) by the paper's recursion.

    Level i + 1 stacks an all-ones row, a row of +1s / a single 0 / -1s, and
    two diagonal copies of level i without its all-ones row, around a middle
    column (1, 0, ..., 0).
    """
    m = SEED_4X8
    for _ in range(level - 2):
        rows, k = m.shape
        core = m[1:]
        nxt = np.zeros((2 * rows, 2 * k + 1), dtype=np.int64)
        nxt[0] = 1
        nxt[1, :k] = 1
        nxt[1, k + 1:] = -1
        nxt[2:rows + 1, :k] = core
        nxt[rows + 1:, k + 1:] = core
        m = nxt
    return m


def ebn0_sigma(matrix: np.ndarray, ebn0_db: float, amplitude: float = 1.0) -> float:
    """Per-chip noise deviation for Eb/N0 in dB: Eb = A^2 w, N0 = 2 sigma^2,
    with w the mean number of nonzero chips per user."""
    w = np.count_nonzero(matrix) / matrix.shape[1]
    return math.sqrt(amplitude ** 2 * w / (2.0 * 10.0 ** (ebn0_db / 10.0)))


def _block_rng(seed: int, stream: int, block: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(stream, block)))


def sweep_block(matrix: np.ndarray, seed: int, point: int, block: int, trials: int,
                sigma: float, amplitude: float = 1.0):
    """Words and received chips of one sweep block, regenerated from the seed.

    Point p draws its words from stream 2p and its noise from stream 2p + 1;
    each (seed, stream, block) keys its own generator and a block always
    draws ``BLOCK`` rows, of which a short sweep keeps the first ``trials``.
    """
    users = matrix.shape[1]
    words = 2 * _block_rng(seed, 2 * point, block).integers(0, 2, size=(BLOCK, users)) - 1
    words = words[:trials]
    ys = amplitude * (words @ matrix.T).astype(np.float64)
    if sigma > 0.0:
        noise = _block_rng(seed, 2 * point + 1, block).standard_normal((BLOCK, matrix.shape[0]))
        ys = ys + sigma * noise[:trials]
    return words, ys


def all_words(users: int) -> np.ndarray:
    """Every antipodal word, in lexicographic order with -1 before +1."""
    idx = np.arange(1 << users)
    return 2 * ((idx[:, None] >> np.arange(users - 1, -1, -1)) & 1) - 1


def ml_reference(matrix: np.ndarray, ys: np.ndarray, amplitude: float = 1.0,
                 chunk: int = 32):
    """Brute-force minimum-distance decoding in float64 over all hypotheses.

    Returns (words, gaps): the nearest word of each row (the lexicographically
    smallest one on an exact tie) and the distance from that row to its
    second-nearest hypothesis minus the distance to its nearest.
    """
    hyps = all_words(matrix.shape[1])
    table = amplitude * (hyps @ matrix.T).astype(np.float64)
    norms = (table ** 2).sum(axis=1)
    ys = np.asarray(ys, dtype=np.float64)
    best = np.empty(ys.shape[0], dtype=np.int64)
    gaps = np.empty(ys.shape[0])
    for lo in range(0, ys.shape[0], chunk):
        y = ys[lo:lo + chunk]
        dist = (y ** 2).sum(axis=1)[:, None] - 2.0 * (y @ table.T) + norms[None, :]
        best[lo:lo + chunk] = np.argmin(dist, axis=1)
        two = np.partition(dist, 1, axis=1)[:, :2]
        gaps[lo:lo + chunk] = two[:, 1] - two[:, 0]
    return hyps[best], gaps


def float32_tie_tolerance(matrix: np.ndarray, ys: np.ndarray, amplitude: float = 1.0):
    """Per-row distance gap below which a float32 ML may pick another word.

    A float32 score ``|t|^2 - 2 y.t`` is off by at most about
    8 * 2^-24 * (sum_i |y_i| |t_i| + |t|^2); two scores together by twice
    that.  The tolerance is four times the bound.
    """
    peak = amplitude * np.abs(matrix).sum(axis=1).astype(np.float64)
    scale = np.abs(ys) @ peak + float((peak ** 2).sum())
    return 64.0 * 2.0 ** -24 * (1.0 + scale)


def first_stage_floor(words: np.ndarray) -> int:
    """Fewest comparisons a census of these words can total: a word with n
    entries of -1 out of K pays at least min(n, K - n) + 1 tests at its first
    quantize."""
    n = (np.asarray(words) == -1).sum(axis=1)
    return int((np.minimum(n, words.shape[1] - n) + 1).sum())
