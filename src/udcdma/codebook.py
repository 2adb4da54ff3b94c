"""Recursive ternary signature matrices that stay uniquely decodable while overloaded.

A code set is an L x K matrix over {-1, 0, +1} whose columns are user
signatures.  It is uniquely decodable (UD) over antipodal user data when no
nonzero vector d in {-1, 0, +1}^K lies in its nullspace; equivalently any two
distinct antipodal words produce distinct chip vectors.  This module builds
the recursive family of such matrices (doubling chips, roughly doubling
users at each level), certifies unique decodability by exhaustive nullspace
scan, and runs the small-length maximal-column searches.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

MAX_LEVEL = 12
UD_CHECK_BOUND = 17     # nullspace scan costs ~3^K/2; 3^17 is the practical ceiling
_BRUTE_MAX_COLS = 12    # below this a plain chunked scan is simpler than meet-in-the-middle
_CHUNK = 1 << 16
_PACK_BITS = 6          # per-row field width when packing sum vectors into int64

_LEVEL1 = np.array([[1, 1, 1],
                    [1, 0, -1]], dtype=np.int8)

_LEVEL2 = np.array([[1, 1, 1, 1, 1, 1, 1, 1],
                    [1, 1, 1, 1, 0, -1, -1, -1],
                    [1, 1, 0, -1, 0, 1, 0, -1],
                    [1, 0, 0, -1, 0, -1, 0, 1]], dtype=np.int8)


class UdBoundError(ValueError):
    """Raised when an exhaustive UD scan would exceed the configured bound."""


@dataclass(frozen=True, eq=False)
class TernaryCodebook:
    """An L x K ternary signature matrix plus its recursion level."""

    level: int
    entries: np.ndarray

    def __post_init__(self):
        self.entries.flags.writeable = False

    @property
    def rows(self) -> int:
        return self.entries.shape[0]

    @property
    def cols(self) -> int:
        return self.entries.shape[1]


@dataclass(frozen=True)
class UdWitness:
    """Verdict of a UD check; carries a nullspace counterexample when false."""

    verdict: bool
    counterexample: Optional[np.ndarray] = None


@dataclass(frozen=True)
class FtSearchResult:
    """Outcome of the maximal-column search for a given signature length."""

    length: int
    max_columns: int
    exemplar: np.ndarray


def check_level(level: int) -> None:
    """Refuse anything but an integer level from 1 to ``MAX_LEVEL``."""
    if not isinstance(level, int) or isinstance(level, bool):
        raise TypeError("level must be an integer")
    if level < 1:
        raise ValueError("level must be >= 1")
    if level > MAX_LEVEL:
        raise ValueError(f"level {level} exceeds the supported maximum {MAX_LEVEL}")


def build_codebook(level: int) -> TernaryCodebook:
    """Build the recursive UD codebook for the given level.

    Level 1 is the 2x3 base matrix, level 2 the 4x8 seed.  For level i >= 3
    the matrix has 2^i rows and 2^(i+1) + 2^(i-2) - 1 columns: an all-ones
    first row, a second row of +1s / single 0 / -1s, a unit middle column,
    and two diagonally placed copies of the previous matrix with its first
    row removed.
    """
    check_level(level)
    if level == 1:
        return TernaryCodebook(1, _LEVEL1.copy())
    if level == 2:
        return TernaryCodebook(2, _LEVEL2.copy())

    prev = build_codebook(level - 1)
    core = prev.entries[1:]                  # (L/2 - 1) x K_prev
    k_prev = prev.cols
    rows = 2 * prev.rows
    cols = 2 * k_prev + 1
    m = np.zeros((rows, cols), dtype=np.int8)
    m[0, :] = 1
    m[1, :k_prev] = 1
    m[1, k_prev] = 0
    m[1, k_prev + 1:] = -1
    m[0, k_prev] = 1                         # middle column is (+1, 0, ..., 0)^T
    m[2:2 + core.shape[0], :k_prev] = core
    m[2 + core.shape[0]:, k_prev + 1:] = core
    return TernaryCodebook(level, m)


def _as_ternary(matrix) -> np.ndarray:
    m = np.asarray(matrix)
    if m.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    if not np.isin(m, (-1, 0, 1)).all():
        raise ValueError("matrix entries must lie in {-1, 0, +1}")
    return m.astype(np.int8)


def _ternary_digits(start: int, stop: int, ndigits: int) -> np.ndarray:
    """Rows start..stop-1 of the lexicographic {-1,0,+1}^ndigits table."""
    idx = np.arange(start, stop, dtype=np.int64)
    out = np.empty((stop - start, ndigits), dtype=np.int8)
    for j in range(ndigits - 1, -1, -1):
        idx, rem = np.divmod(idx, 3)
        out[:, j] = rem.astype(np.int8) - 1
    return out


def _pack_rows(sums: np.ndarray) -> np.ndarray:
    """Pack integer sum vectors (rows of `sums`s columns) into int64 keys.

    Sound as an equality test as long as every per-row sum stays below
    2^(_PACK_BITS-1) in magnitude, which holds for K <= 17 columns.
    """
    L = sums.shape[0]
    weights = (np.int64(1) << (_PACK_BITS * np.arange(L, dtype=np.int64)))
    return weights @ sums.astype(np.int64)


def _scan_block(base: np.ndarray, tail: np.ndarray, count: int, ndigits: int):
    """First suffix d (lex order) with base + tail @ d = 0, or None."""
    for lo in range(0, count, _CHUNK):
        hi = min(lo + _CHUNK, count)
        digits = _ternary_digits(lo, hi, ndigits)
        sums = base[:, None] + tail.astype(np.int32) @ digits.T.astype(np.int32)
        hits = np.flatnonzero((sums == 0).all(axis=0))
        if hits.size:
            return digits[hits[0]]
    return None


def _scan_block_mitm(base: np.ndarray, tail: np.ndarray, ndigits: int):
    """Meet-in-the-middle version of _scan_block for long suffixes."""
    half = ndigits // 2
    d_a = _ternary_digits(0, 3 ** half, half)
    d_b = _ternary_digits(0, 3 ** (ndigits - half), ndigits - half)
    sums_a = base[:, None] + tail[:, :half].astype(np.int32) @ d_a.T.astype(np.int32)
    sums_b = tail[:, half:].astype(np.int32) @ d_b.T.astype(np.int32)
    keys_a = _pack_rows(sums_a)
    keys_b = _pack_rows(sums_b)
    hits = np.isin(-keys_a, keys_b)
    if not hits.any():
        return None
    a_idx = int(np.flatnonzero(hits)[0])
    b_idx = int(np.flatnonzero(keys_b == -keys_a[a_idx])[0])
    return np.concatenate([d_a[a_idx], d_b[b_idx]])


def verify_ud(matrix, bound: int = UD_CHECK_BOUND) -> UdWitness:
    """Exhaustively certify unique decodability of a ternary matrix.

    Scans every nonzero d in {-1,0,+1}^K for a nullspace hit, fixing the
    first nonzero coordinate to +1 (negating d preserves membership, so this
    halves the work).  On failure returns the lexicographically first
    counterexample, ordering coordinates as -1 < 0 < +1.
    """
    m = _as_ternary(matrix)
    n_rows, n_cols = m.shape
    if n_cols > bound:
        cost = 3 ** n_cols / 2
        raise UdBoundError(
            f"UD scan over {n_cols} columns needs ~{cost:.2e} candidates; "
            f"bound is {bound} columns"
        )
    use_mitm = n_cols > _BRUTE_MAX_COLS
    if use_mitm and n_rows * _PACK_BITS > 63:
        use_mitm = False
    if not use_mitm and 3 ** n_cols > 3 ** _BRUTE_MAX_COLS * 9:
        raise UdBoundError(
            f"matrix with {n_rows} rows x {n_cols} columns is too large to scan"
        )

    # First-nonzero position runs from the last column to the first so that
    # candidates appear in global lexicographic order.
    for p in range(n_cols - 1, -1, -1):
        base = m[:, p].astype(np.int32)
        ndigits = n_cols - 1 - p
        if ndigits == 0:
            suffix = np.zeros(0, dtype=np.int8) if not base.any() else None
        elif use_mitm and ndigits > 8:
            suffix = _scan_block_mitm(base, m[:, p + 1:], ndigits)
        else:
            suffix = _scan_block(base, m[:, p + 1:], 3 ** ndigits, ndigits)
        if suffix is not None:
            d = np.zeros(n_cols, dtype=np.int8)
            d[p] = 1
            d[p + 1:] = suffix
            return UdWitness(False, d)
    return UdWitness(True, None)


def _sign_distinct_columns(length: int) -> list[tuple[int, ...]]:
    """All nonzero ternary columns with first nonzero entry +1, lex order."""
    cols = []
    digits = _ternary_digits(0, 3 ** length, length)
    for row in digits:
        nz = np.flatnonzero(row)
        if nz.size and row[nz[0]] == 1:
            cols.append(tuple(int(v) for v in row))
    return cols


def max_ud_columns(length: int) -> FtSearchResult:
    """Find the largest K admitting an L x K UD ternary matrix, L in 2..4.

    Depth-first set extension over the sign-deduplicated candidate columns in
    lexicographic order.  Each search node keeps the set of sums S @ d
    reachable from the current columns S as a bitset over the integer grid;
    a new column c is compatible exactly when -c is not yet reachable.
    """
    if not 2 <= length <= 4:
        raise ValueError("maximal-column search supports lengths 2 through 4 only")
    cands = _sign_distinct_columns(length)
    n_cands = len(cands)

    dim = 27                      # per-row sum grid: [-13, 13], plenty for depth <= 12
    offset = 13
    strides = [dim ** r for r in range(length)]

    def grid_pos(vec) -> int:
        return sum((v + offset) * s for v, s in zip(vec, strides))

    zero_pos = grid_pos((0,) * length)
    deltas = [sum(v * s for v, s in zip(c, strides)) for c in cands]
    neg_pos = [grid_pos(tuple(-v for v in c)) for c in cands]

    best_count = 0
    best_set: list[int] = []

    def extend(reach: int, chosen: list[int], avail: list[int]) -> None:
        nonlocal best_count, best_set
        for ii, j in enumerate(avail):
            if len(chosen) + len(avail) - ii <= best_count:
                return
            delta = deltas[j]
            child = reach | (reach << delta) if delta > 0 else reach | (reach >> -delta)
            child |= reach >> delta if delta > 0 else reach << -delta
            chosen.append(j)
            if len(chosen) > best_count:
                best_count = len(chosen)
                best_set = chosen.copy()
            rest = [k for k in avail[ii + 1:] if not (child >> neg_pos[k]) & 1]
            if rest:
                extend(child, chosen, rest)
            chosen.pop()

    root = 1 << zero_pos
    extend(root, [], [j for j in range(n_cands)])

    exemplar = np.array([cands[j] for j in best_set], dtype=np.int8).T
    return FtSearchResult(length=length, max_columns=best_count, exemplar=exemplar)


def matrix_to_csv(matrix) -> str:
    """One row per line, comma-separated entries, no header."""
    m = _as_ternary(matrix)
    return "\n".join(",".join(str(int(v)) for v in row) for row in m) + "\n"


def codebook_to_json(c: TernaryCodebook) -> str:
    payload = {
        "level": c.level,
        "rows": c.rows,
        "cols": c.cols,
        "entries": [[int(v) for v in row] for row in c.entries],
    }
    return json.dumps(payload)
