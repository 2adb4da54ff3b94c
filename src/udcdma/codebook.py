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
from decimal import Decimal
from typing import Optional

import numpy as np

MAX_LEVEL = 12
# Memory guard on the larger half's int8 tables, which bounds the UD scan's
# columns too.  Peak memory runs about five times the tables: a 16x26 matrix
# holds 46 MiB of them and adds 242 MiB of RSS.
_UD_TABLE_BYTES = 1 << 26

_LEVEL1 = np.array([[1, 1, 1],
                    [1, 0, -1]], dtype=np.int8)

_LEVEL2 = np.array([[1, 1, 1, 1, 1, 1, 1, 1],
                    [1, 1, 1, 1, 0, -1, -1, -1],
                    [1, 1, 0, -1, 0, 1, 0, -1],
                    [1, 0, 0, -1, 0, -1, 0, 1]], dtype=np.int8)


class UdBoundError(ValueError):
    """Raised when an exhaustive scan or sweep would exceed its size limit."""


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


def level_users(level: int) -> int:
    """The user (column) count of the level-``level`` codebook, level >= 2:
    2^(i+1) + 2^(i-2) - 1, which is also the count per half one level up."""
    return (1 << (level + 1)) + (1 << (level - 2)) - 1


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


def _sci(num: int, den: int) -> str:
    """num / den written like 2.50e+16, also past the float range."""
    try:
        return f"{num / den:.2e}"
    except OverflowError:
        return f"{Decimal(num) / den:.2e}"


def _row_keys(sums: np.ndarray) -> np.ndarray:
    """One exact key per row of an int8 matrix: the row's bytes."""
    return np.ascontiguousarray(sums).view(np.dtype((np.void, sums.shape[1]))).ravel()


def verify_ud(matrix) -> UdWitness:
    """Exhaustively certify unique decodability of a ternary matrix.

    Meet in the middle: split the K columns into A (the first K // 2) and B
    (the rest), tabulate A d_a and -B d_b once over every ternary d_a and d_b,
    and look for equal rows.  Only d whose first nonzero coordinate is +1 are
    candidates (negating d preserves membership).  On failure returns the
    lexicographically first counterexample, ordering coordinates as
    -1 < 0 < +1.  Each table holds ~3^ceil(K/2) rows, for any row count;
    a scan whose tables pass 64 MiB is refused.
    """
    m = _as_ternary(matrix)
    n_rows, n_cols = m.shape
    half = n_cols // 2
    n_b = n_cols - half
    table_bytes = 3 ** n_b * (n_rows + n_b)
    if table_bytes > _UD_TABLE_BYTES:
        raise UdBoundError(
            f"UD scan of a {n_rows}x{n_cols} matrix needs ~{_sci(table_bytes, 2 ** 20)} MiB "
            f"of tables; cap is {_UD_TABLE_BYTES >> 20} MiB"
        )
    if n_rows == 0:
        m = np.zeros((1, n_cols), dtype=np.int8)    # same nullspace, nonempty keys

    # In a lexicographic table the middle row (3^n - 1) / 2 is d = 0 and the
    # rows after it are exactly the d whose first nonzero entry is +1.  Sums
    # stay in int8: the cap keeps n_b, which bounds every |sum|, below 15.
    d_a = _ternary_digits(0, 3 ** half, half)
    d_b = _ternary_digits(0, 3 ** n_b, n_b)
    zero_a, zero_b = len(d_a) // 2, len(d_b) // 2
    sums_a = d_a @ m[:, :half].T
    sums_b = -(d_b @ m[:, half:].T)
    # d_a = 0 sorts first: the first positive d_b with B d_b = 0
    hit = np.flatnonzero(~sums_b[zero_b + 1:].any(axis=1))
    if hit.size:
        return UdWitness(False, np.concatenate((d_a[zero_a], d_b[zero_b + 1 + hit[0]])))
    # else the first positive d_a that meets some d_b, with the first such d_b
    hit = np.flatnonzero(np.isin(_row_keys(sums_a[zero_a + 1:]), _row_keys(sums_b)))
    if not hit.size:
        return UdWitness(True, None)
    ia = zero_a + 1 + hit[0]
    ib = np.flatnonzero((sums_b == sums_a[ia]).all(axis=1))[0]
    return UdWitness(False, np.concatenate((d_a[ia], d_b[ib])))


def _sign_distinct_columns(length: int) -> list[tuple[int, ...]]:
    """All nonzero ternary columns with first nonzero entry +1, lex order:
    the rows after the zero row of the lexicographic table."""
    return list(map(tuple, _ternary_digits((3 ** length + 1) // 2, 3 ** length, length).tolist()))


def max_ud_columns(length: int) -> FtSearchResult:
    """Find the largest K admitting an L x K UD ternary matrix, L in 2..4.

    Depth-first set extension over the sign-deduplicated candidate columns in
    lexicographic order, once per column weight class from its first column.
    Each search node keeps the set of sums S @ d reachable from the current
    columns S as a bitset over the integer grid; a new column c is compatible
    exactly when -c is not yet reachable.  The exemplar lists its columns in
    candidate order.
    """
    if not 2 <= length <= 4:
        raise ValueError("maximal-column search supports lengths 2 through 4 only")
    cands = _sign_distinct_columns(length)
    n_cands = len(cands)

    dim = 27                      # per-row sum grid: [-13, 13], plenty for depth <= 12
    offset = 13
    # largest stride first: each candidate's first nonzero entry is +1, so each shift is positive
    strides = [dim ** (length - 1 - r) for r in range(length)]

    def grid_pos(vec) -> int:
        return sum((v + offset) * s for v, s in zip(vec, strides))

    zero_pos = grid_pos((0,) * length)
    deltas = [sum(v * s for v, s in zip(c, strides)) for c in cands]
    neg_pos = [grid_pos(tuple(-v for v in c)) for c in cands]

    best_count = 0
    best_set: list[int] = []

    def add(reach: int, chosen: list[int], j: int, avail: list[int]) -> None:
        """Take column j into the set whose sums are ``reach``, then extend it
        from the columns of ``avail`` that stay compatible."""
        nonlocal best_count, best_set
        delta = deltas[j]
        child = reach | (reach << delta) | (reach >> delta)
        chosen.append(j)
        if len(chosen) > best_count:
            best_count = len(chosen)
            best_set = chosen.copy()
        rest = [k for k in avail if not (child >> neg_pos[k]) & 1]
        for ii, k in enumerate(rest):
            if len(chosen) + len(rest) - ii <= best_count:
                break
            add(child, chosen, k, rest[ii + 1:])
        chosen.pop()

    # Row permutations and row negations keep a set UD and map each column
    # of weight w onto the first one, so some largest set holds that first
    # column of a weight class and no column of the classes searched before
    # it.  Middle weights go first (2, 3, 1, 4 at length 4); the order
    # 1, 2, 3, 4 took about a quarter longer.
    weight = [sum(map(bool, c)) for c in cands]
    done: set[int] = set()
    for w in sorted(set(weight), key=lambda w: abs(2 * w - length - 1)):
        first = weight.index(w)
        add(1 << zero_pos, [], first,
            [k for k in range(n_cands) if k != first and weight[k] not in done])
        done.add(w)

    exemplar = np.array([cands[j] for j in sorted(best_set)], dtype=np.int8).T
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
