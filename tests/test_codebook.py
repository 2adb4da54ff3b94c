import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from udcdma.codebook import (
    UdBoundError,
    build_codebook,
    codebook_to_json,
    matrix_to_csv,
    max_ud_columns,
    verify_ud,
)

LEVEL1 = [[1, 1, 1], [1, 0, -1]]
LEVEL2 = [
    [1, 1, 1, 1, 1, 1, 1, 1],
    [1, 1, 1, 1, 0, -1, -1, -1],
    [1, 1, 0, -1, 0, 1, 0, -1],
    [1, 0, 0, -1, 0, -1, 0, 1],
]


def brute_ud(matrix):
    """Independent oracle: scan every nonzero ternary vector with itertools."""
    m = np.asarray(matrix)
    for d in itertools.product((-1, 0, 1), repeat=m.shape[1]):
        if any(d) and not (m @ np.array(d)).any():
            return False, d
    return True, None


def test_level1_matrix_exact():
    c = build_codebook(1)
    assert c.level == 1
    assert c.entries.tolist() == LEVEL1


def test_level2_matrix_exact():
    c = build_codebook(2)
    assert (c.rows, c.cols) == (4, 8)
    assert c.entries.tolist() == LEVEL2


@pytest.mark.parametrize("level,rows,cols", [(2, 4, 8), (3, 8, 17), (4, 16, 35), (5, 32, 71)])
def test_dimensions(level, rows, cols):
    c = build_codebook(level)
    assert (c.rows, c.cols) == (rows, cols)


@pytest.mark.parametrize("level", [3, 4, 5])
def test_block_structure(level):
    c = build_codebook(level)
    prev = build_codebook(level - 1)
    k_prev = prev.cols
    m = c.entries
    assert (m[0] == 1).all()
    assert (m[1, :k_prev] == 1).all()
    assert m[1, k_prev] == 0
    assert (m[1, k_prev + 1:] == -1).all()
    # unit middle column
    assert m[0, k_prev] == 1
    assert (m[1:, k_prev] == 0).all()
    core = prev.entries[1:]
    h = core.shape[0]
    assert (m[2:2 + h, :k_prev] == core).all()
    assert (m[2 + h:, :k_prev] == 0).all()
    assert (m[2:2 + h, k_prev + 1:] == 0).all()
    assert (m[2 + h:, k_prev + 1:] == core).all()


def test_entries_ternary_everywhere():
    for level in range(1, 7):
        c = build_codebook(level)
        assert np.isin(c.entries, (-1, 0, 1)).all()


def test_level_bounds():
    with pytest.raises(ValueError):
        build_codebook(0)
    with pytest.raises(ValueError):
        build_codebook(99)
    with pytest.raises(TypeError):
        build_codebook(2.0)


def test_verify_ud_level2():
    assert verify_ud(build_codebook(2).entries).verdict


def test_verify_ud_equal_columns():
    w = verify_ud([[1, 1], [1, 1]])
    assert not w.verdict
    assert w.counterexample.tolist() == [1, -1]


def test_verify_ud_all_four_columns():
    # all four sign-distinct nonzero length-2 columns cannot coexist
    m = np.array([[0, 1, 1, 1], [1, 0, -1, 1]])
    w = verify_ud(m)
    assert not w.verdict
    assert (m @ w.counterexample == 0).all()
    # lexicographically first counterexample, oracle-checked
    _, oracle_first = brute_first_witness(m)
    assert w.counterexample.tolist() == list(oracle_first)


def brute_first_witness(matrix):
    """All-candidates lexicographic scan restricted to first-nonzero = +1."""
    m = np.asarray(matrix)
    cands = []
    for d in itertools.product((-1, 0, 1), repeat=m.shape[1]):
        nz = [v for v in d if v]
        if nz and nz[0] == 1:
            cands.append(d)
    cands.sort()
    for d in cands:
        if not (m @ np.array(d)).any():
            return False, d
    return True, None


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 3), st.integers(2, 6), st.randoms(use_true_random=False))
def test_verify_ud_matches_brute_oracle(rows, cols, rnd):
    m = np.array([[rnd.choice((-1, 0, 1)) for _ in range(cols)] for _ in range(rows)])
    verdict, _ = brute_ud(m)
    assert verify_ud(m).verdict == verdict


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 3), st.integers(2, 6), st.data())
def test_verify_ud_sign_symmetric(rows, cols, data):
    rnd = data.draw(st.randoms(use_true_random=False))
    m = np.array([[rnd.choice((-1, 0, 1)) for _ in range(cols)] for _ in range(rows)])
    col = data.draw(st.integers(0, cols - 1))
    flipped = m.copy()
    flipped[:, col] *= -1
    assert verify_ud(m).verdict == verify_ud(flipped).verdict


def test_verify_ud_witness_really_annihilates():
    m = np.array([[1, 1, 0], [1, 1, 0], [0, 0, 1]])
    w = verify_ud(m)
    assert not w.verdict
    assert not (m @ w.counterexample).any()


def test_verify_ud_bound_refused():
    big = np.ones((4, 18), dtype=np.int8)
    with pytest.raises(UdBoundError):
        verify_ud(big)


def test_max_ud_columns_lengths_2_and_3():
    r2 = max_ud_columns(2)
    assert r2.max_columns == 3
    assert verify_ud(r2.exemplar).verdict
    assert r2.exemplar.shape == (2, 3)
    r3 = max_ud_columns(3)
    assert r3.max_columns == 5
    assert verify_ud(r3.exemplar).verdict


def test_max_ud_columns_rejects_bad_length():
    for bad in (1, 5):
        with pytest.raises(ValueError):
            max_ud_columns(bad)


def test_csv_and_json_exports():
    c = build_codebook(1)
    assert matrix_to_csv(c.entries) == "1,1,1\n1,0,-1\n"
    payload = codebook_to_json(build_codebook(2))
    import json

    parsed = json.loads(payload)
    assert parsed["level"] == 2
    assert parsed["rows"] == 4
    assert parsed["cols"] == 8
    assert parsed["entries"] == LEVEL2
    assert list(parsed.keys()) == ["level", "rows", "cols", "entries"]
