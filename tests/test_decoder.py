import io
import math
import os
import shutil
import subprocess
import sys
import warnings
from fractions import Fraction
from importlib.resources import files
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from udcdma.channel import spread_many
from udcdma.codebook import build_codebook, level_users
import fda_recursion
import leaf_oracle
import ml_pin
from leaf_oracle import _D_HI, _D_LO, cell_reps, chip_reps, leaf_rules, quantize
from udcdma import decoder
from udcdma.decoder import (
    _LEAF_CUTS,
    _LEAF_SIDES,
    MlDecoder,
    _all_words,
    _decode_block,
    _leaf_cells,
    _leaf_table,
    _unit_chips,
    fda_decode,
    fda_decode_batch,
    fda_decode_batch8,
)

C2 = build_codebook(2)
C3 = build_codebook(3)
C4 = build_codebook(4)
WORDS8 = _all_words(8)
CHIPS8 = spread_many(C2, WORDS8).astype(np.float64)
GOLDEN = Path(__file__).parent / "data" / "fda_golden.npz"


def brute_nearest(y, lo, hi, step):
    """Oracle: scan the grid for the closest point, ties to the lower one,
    with distances in exact rationals."""
    y = Fraction(y)
    pts = list(range(lo, hi + 1, step))
    best = pts[0]
    for p in pts[1:]:
        if abs(y - p) < abs(y - best) or (abs(y - p) == abs(y - best) and p < best):
            best = p
    return best


def q_one(y: float, lo: int, hi: int, step: int = 2):
    """(z, zeta, comparisons) of ``_q_grid`` for one statistic."""
    z, zeta, comps = quantize(np.array([float(y)]), lo, hi, step)
    return int(z[0]), int(zeta[0]), int(comps[0])


def test_quantize_top_saturation():
    assert q_one(7.8, -8, 8, 2) == (8, 1, 1)


def test_quantize_bottom_clamp():
    z, _, comps = q_one(-9.3, -8, 8, 2)
    assert z == -8
    assert comps == 1


def test_quantize_interior():
    assert q_one(0.4, -8, 8, 2) == (0, 5, 5)


def test_quantize_ties_go_low():
    assert q_one(1.0, -2, 2, 2)[0] == 0
    assert q_one(-1.0, -2, 2, 2)[0] == -2
    assert q_one(0.5, 0, 1, 1)[0] == 0
    assert q_one(0.0, -1, 1, 2)[0] == -1
    # one ulp past a midpoint, where (y - lo) / step rounds onto the tie,
    # the nearer point wins
    assert q_one(1e-20, -1, 1, 2)[0] == 1
    assert q_one(1e-300, -17, 17, 2)[0] == 1
    assert q_one(1.0000000000000002, -2, 2, 2)[0] == 2
    assert q_one(np.nextafter(-1.0, 0.0), -2, 2, 2)[0] == 0
    assert q_one(np.nextafter(0.5, 0.0), 0, 1, 1)[0] == 0
    assert q_one(-1e-300, -1, 1, 2)[0] == -1


@settings(max_examples=200, deadline=None)
@given(
    st.floats(-12, 12, allow_nan=False),
    st.integers(-6, 0),
    st.integers(0, 6),
    st.sampled_from([1, 2]),
)
def test_quantize_matches_nearest_oracle(y, lo, hi, step):
    if (hi - lo) % step:
        hi += 1
    z, zeta, comps = q_one(y, lo, hi, step)
    assert z == brute_nearest(y, lo, hi, step)
    m = (hi - lo) // step + 1
    assert 1 <= zeta <= m
    assert z == hi - step * (zeta - 1)
    assert comps >= 1
    assert comps == max(1, min(zeta, m + 1 - zeta))


def _q_reference(y: float, lo: int, hi: int, step: int):
    """The per-value quantizer in exact rationals, which neither round nor overflow."""
    m = (hi - lo) // step + 1
    i_lo = min(max(math.ceil((Fraction(y) - lo) / step - Fraction(1, 2)), 0), m - 1)
    zeta = m - i_lo
    return lo + step * i_lo, zeta, min(zeta, m + 1 - zeta)


_NEAR_TIES = st.integers(-90, 90).flatmap(lambda k: st.sampled_from(
    [k / 2, float(np.nextafter(k / 2, np.inf)), float(np.nextafter(k / 2, -np.inf))]))


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False), _NEAR_TIES,
                       st.floats(-1e-15, 1e-15)), min_size=1, max_size=8),
    st.integers(-40, 0),
    st.integers(0, 40),
    st.sampled_from([1, 2]),
)
def test_quantize_saturates_on_every_finite_float(ys, lo, hi, step):
    # one grid, a block of arbitrary finite statistics (1e300 included, and
    # floats one ulp either side of a midpoint): the array quantizer, its
    # one-value form and the exact reference all agree
    if (hi - lo) % step:
        hi += 1
    z, zeta, comps = quantize(np.array(ys), lo, hi, step)
    for i, y in enumerate(ys):
        ref = _q_reference(y, lo, hi, step)
        assert (int(z[i]), int(zeta[i]), int(comps[i])) == ref
        assert q_one(y, lo, hi, step) == ref


def test_first_quantize_cost_law():
    # a level-2 word with j entries of -1 (j <= 4) pays j+1 tests up front,
    # and the mirrored words pay the same by the two-sided search
    for j in range(0, 9):
        y1 = 8 - 2 * j
        assert q_one(y1, -8, 8, 2)[2] == min(j, 8 - j) + 1


def _half_up(numer: int, denom: int = 5) -> int:
    return (2 * numer + denom) // (2 * denom)


def test_delta_params_frozen_values():
    # the leaf's third-chip scan offsets per left count n_l
    assert (_D_LO[0], _D_HI[0]) == (-1, 0)
    assert (_D_LO[4], _D_HI[4]) == (-3, 0)
    for n_l in range(5):
        assert _D_LO[n_l] == -_half_up(3 * (n_l + 1))
        assert _D_HI[n_l] == _half_up(3 * n_l) % 2


def test_sub_decode8_zero_counts():
    # a child leaf handed its count pays no first quantize; zero -1s costs nothing
    words, comps = _decode_block(np.array([[8.0, 1.0, 1.0, 0.0]]), 8, np.array([0]))
    assert words.tolist() == [[1] * 8]
    assert comps.tolist() == [0]


def test_sub_decode8_saturated_counts():
    # every count, every word: a known count saves exactly the first-quantize
    # cost min(n+1, 9-n), so the two saturated counts cost nothing at all
    n = (WORDS8 == -1).sum(axis=1)
    top_words, top_comps = fda_decode_batch8(CHIPS8)
    words, comps = _decode_block(CHIPS8, 8, n)
    assert np.array_equal(words, WORDS8) and np.array_equal(top_words, WORDS8)
    assert np.array_equal(comps, top_comps - np.minimum(n + 1, 9 - n))
    assert (comps[(n == 0) | (n == 8)] == 0).all()
    assert (comps[(n > 0) & (n < 8)] >= 1).all()


def test_right_decode_single_negative_at_slot6():
    # left side saturated at zero, right side decoded by one third-chip test
    x = np.array([1, 1, 1, 1, 1, -1, 1, 1])
    out = fda_decode(C2, spread_many(C2, x[None, :])[0])
    assert np.array_equal(out.word, x)
    assert out.comparisons == 2 + 1 + 1   # first, split, right-side quantize


def test_lr_decode_first_candidate_beats_sentinel():
    x = np.array([1, -1, 1, 1, 1, -1, 1, 1])   # one -1 each side: the offset scan
    out = fda_decode(C2, spread_many(C2, x[None, :])[0])
    assert np.array_equal(out.word, x)
    assert out.comparisons >= 3


def test_fda_saturation_branches():
    out = fda_decode(C2, [8.0, 1.0, 1.0, 0.0])
    assert out.word.tolist() == [1] * 8
    assert out.comparisons == 1
    out = fda_decode(C2, [-8.0, -1.0, -1.0, 0.0])
    assert out.word.tolist() == [-1] * 8
    assert out.comparisons == 1


def test_fda_level2_exhaustive_roundtrip():
    total = 0
    for x, y in zip(WORDS8, CHIPS8):
        out = fda_decode(C2, y)
        assert np.array_equal(out.word, x)
        total += out.comparisons
    assert total == 2215  # regression pin for this decoder's cost accounting


def test_fda_amplitude_normalization():
    x = WORDS8[173]
    y = spread_many(C2, x[None, :], amplitude=2.5)[0]
    out = fda_decode(C2, y, amplitude=2.5)
    assert np.array_equal(out.word, x)


def test_fda_level3_random_roundtrip():
    rng = np.random.default_rng(17)
    x = (2 * rng.integers(0, 2, size=(3000, 17)) - 1).astype(np.int8)
    words, _ = fda_decode_batch(C3, spread_many(C3, x))
    assert np.array_equal(words, x)


def test_fda_level4_random_roundtrip():
    rng = np.random.default_rng(23)
    x = (2 * rng.integers(0, 2, size=(2000, 35)) - 1).astype(np.int8)
    words, _ = fda_decode_batch(C4, spread_many(C4, x))
    assert np.array_equal(words, x)


def test_count_consistency_invariant():
    # on any input, noisy or extreme, the decoded word holds exactly the -1
    # count read off the first chip: the splits and the leaf conserve it
    golden = np.load(GOLDEN)
    for level in (2, 3, 4, 5):
        c = build_codebook(level)
        ys = golden[f"chips{level}"]
        words, _ = fda_decode_batch(c, ys)
        z1, _, _ = quantize(ys[:, 0], -c.cols, c.cols)
        assert np.array_equal((words == -1).sum(axis=1), (c.cols - z1) // 2)


@pytest.mark.parametrize("level", [2, 3, 4, 5])
def test_batch_matches_golden_file(level):
    # (word, comparisons) frozen from the per-word recursive decoder that the
    # batch recursion replaced, on seeded inputs: noiseless and at sigma 0.7
    # and 2.0 (sets 0-2), lattice points moved by whole and half units onto
    # the quantizer thresholds (set 3), and noisy chips with some replaced by
    # 0, +-1e-300, +-0.5, +-3, +-1e18 or +-1e300 (set 4).  Set-4 rows were
    # refrozen from the exact table leaf, where float rounding had misplaced
    # tiny and huge chips (test_golden_rows_match_exact_oracle_leaf)
    golden = np.load(GOLDEN)
    c = build_codebook(level)
    words, comps = fda_decode_batch(c, golden[f"chips{level}"])
    assert np.bincount(golden[f"set{level}"]).tolist() == [128, 128, 128, 128, 64]
    assert np.array_equal(np.packbits(words < 0, axis=1), golden[f"words{level}"])
    assert np.array_equal(comps, golden[f"comparisons{level}"])


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([C2, C3]).flatmap(lambda c: st.tuples(
        st.just(c),
        hnp.arrays(np.float64, st.tuples(st.integers(1, 6), st.just(c.rows)),
                   elements=st.one_of(_FINITE, st.floats(-20, 20))))),
    st.one_of(st.just(1.0), st.floats(1e-300, 1e300)),
)
def test_batch_and_batch_of_one_agree_on_every_finite_float(case, amplitude):
    c, ys = case
    words, comps = fda_decode_batch(c, ys, amplitude)
    assert np.isin(words, (-1, 1)).all() and (comps >= 1).all()
    for i, y in enumerate(ys):
        out = fda_decode(c, y, amplitude)
        assert np.array_equal(out.word, words[i]) and out.comparisons == comps[i]
        # a first chip past either end of its grid saturates the whole word
        with np.errstate(over="ignore"):
            first = y[0] / amplitude
        if abs(first) > c.cols:
            assert (words[i] == np.sign(first)).all() and comps[i] == 1


def test_fda_saturates_on_huge_and_rescaled_chips():
    for y, a in (([1e300, 1.0, 1.0, 0.0], 1.0), ([8.0, 8.0, 4.0, 4.0], 1e-300),
                 ([1e300, 1.0, 1.0, 0.0], 1e-300)):
        out = fda_decode(C2, y, amplitude=a)
        assert out.word.tolist() == [1] * 8 and out.comparisons == 1
        words, comps = fda_decode_batch8([y], amplitude=a)
        assert words.tolist() == [[1] * 8] and comps.tolist() == [1]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_chips_rejected(bad):
    y = np.array([[1.0, 1.0, bad, 0.0]])
    for decode in (lambda: fda_decode(C2, y[0]), lambda: fda_decode_batch(C2, y),
                   lambda: fda_decode_batch(C3, np.hstack([y, y])),
                   lambda: fda_decode_batch8(y), lambda: MlDecoder(C2).decode_batch(y)):
        with pytest.raises(ValueError, match=r"finite.*row 0, chip 2"):
            decode()
    for decode in (lambda: fda_decode(C2, [8.0, 1.0, 1.0, 0.0], amplitude=bad),
                   lambda: MlDecoder(C3, bad)):
        with pytest.raises(ValueError, match="amplitude"):
            decode()
    with pytest.raises(ValueError, match="float32"):
        MlDecoder(C2).decode_batch([[1e300, 1.0, 1.0, 0.0]])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("at", ["first", "middle", "last"])
def test_finiteness_screen_names_the_first_bad_entry(bad, at):
    # the block's sum screens it; a sum that is not finite falls back to the
    # entry scan, which names the first bad entry in row-major order
    rng = np.random.default_rng(79)
    y = spread_many(C3, 2 * rng.integers(0, 2, size=(5, C3.cols)) - 1) + rng.normal(0, 1, (5, 8))
    row, col = {"first": (0, 0), "middle": (2, 3), "last": (4, 7)}[at]
    y[row, col] = bad
    if at != "last":
        y[4, 7 - (at == "first")] = -bad              # a later bad entry is not named
    for decode, what in ((lambda: fda_decode_batch(C3, y), "chips must be finite"),
                         (lambda: MlDecoder(C3).decode_batch(y), "chips must be finite in float32")):
        with pytest.raises(ValueError) as err:
            decode()
        assert str(err.value) == f"{what}: row {row}, chip {col} is {bad}"


def test_blocks_whose_sum_overflows_decode_without_warning():
    # finite entries whose sum leaves the float range pass the entry scan
    rng = np.random.default_rng(83)
    huge = rng.choice([-1e308, 1e308], size=(64, C3.rows))
    huge[:8] = 1e308                                    # these rows' sums overflow alike
    big32 = np.full((16, C3.rows), 3e38)                # so do these in float32
    big32[8:] *= rng.choice([-1.0, 1.0], size=(8, C3.rows))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        words, comps = fda_decode_batch(C3, huge)
        ml_words = MlDecoder(C3).decode_batch(big32)
    assert _same((words, comps), fda_recursion.decode_block(huge, C3.cols, None))
    assert (words[:8] == 1).all() and (comps[:8] == 1).all()
    assert np.array_equal(ml_words, ml_oracle(C3, big32))


def _ml_amplitude_limit(c) -> float:
    """The largest amplitude with rows (A K)(A K + 2 f) below the float64
    maximum, f the float32 maximum: the bound ``MlDecoder`` enforces."""
    f = float(np.finfo(np.float32).max)
    x = math.sqrt(f * f + float(np.finfo(np.float64).max) / c.rows) - f
    return x / c.cols


@pytest.mark.parametrize("level", [2, 3, 4, 5])
def test_ml_amplitude_past_the_float_range_refused(level):
    c = build_codebook(level)
    top = _ml_amplitude_limit(c)
    with pytest.raises(ValueError, match=f"amplitude .* level-{level} ML scores past the float range"):
        MlDecoder(c, 1.001 * top)
    # just inside the bound, every float32-range chip scores finitely
    ml = MlDecoder(c, 0.999 * top)
    rng = np.random.default_rng(89 + level)
    ys = np.vstack((rng.uniform(-3e38, 3e38, size=(40, c.rows)), np.full((1, c.rows), 3e38),
                    np.full((1, c.rows), -3e38), rng.normal(0, 1, size=(40, c.rows))))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        words = ml.decode_batch(ys)
    assert np.isin(words, (-1, 1)).all()
    if level <= 3:
        assert np.array_equal(words, ml_oracle(c, ys, ml.amplitude))


def test_fda_rejects_level1_and_bad_shapes():
    with pytest.raises(ValueError):
        fda_decode(build_codebook(1), [1.0, 1.0])
    with pytest.raises(ValueError):
        fda_decode(C2, [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        fda_decode_batch(C3, np.zeros((5, 4)))
    with pytest.raises(ValueError):
        fda_decode(C2, [8.0, 1.0, 1.0, 0.0], amplitude=0.0)


def test_batch_matches_scalar_noiseless():
    words, comps = fda_decode_batch8(CHIPS8)
    for i, y in enumerate(CHIPS8):
        out = fda_decode(C2, y)
        assert np.array_equal(out.word, words[i])
        assert out.comparisons == comps[i]


def test_batch_matches_scalar_noisy():
    # a block decodes row for row as each row alone does
    rng = np.random.default_rng(31)
    for c in (C2, C3, C4):
        x = (2 * rng.integers(0, 2, size=(4000, c.cols)) - 1).astype(np.int8)
        ys = spread_many(c, x) + rng.normal(0, 1.4, size=(4000, c.rows))
        words, comps = fda_decode_batch(c, ys)
        for i in range(0, 4000, 7):
            out = fda_decode(c, ys[i])
            assert np.array_equal(out.word, words[i])
            assert out.comparisons == comps[i]


def test_batch_emits_antipodal_under_heavy_noise():
    rng = np.random.default_rng(37)
    ys = rng.normal(0, 6.0, size=(2000, 4))
    words, comps = fda_decode_batch8(ys)
    assert np.isin(words, (-1, 1)).all()
    assert (comps >= 1).all()


def test_ml_noiseless_exact_and_comparisons():
    ml = MlDecoder(C2)
    assert ml.comparisons == 256
    for i in range(0, 256, 17):
        out = ml.decode(CHIPS8[i])
        assert np.array_equal(out.word, WORDS8[i])
        assert out.comparisons == 256
    assert MlDecoder(C3).comparisons == 2**17


def test_ml_agrees_with_fda_level2_noiseless():
    ml = MlDecoder(C2)
    decoded = ml.decode_batch(CHIPS8)
    for x, w in zip(WORDS8, decoded):
        assert np.array_equal(x, w)


def test_ml_residual_optimality():
    ml = MlDecoder(C2)
    rng = np.random.default_rng(41)
    x = (2 * rng.integers(0, 2, size=(500, 8)) - 1).astype(np.int8)
    ys = spread_many(C2, x) + rng.normal(0, 2.0, size=(500, 4))
    ml_words = ml.decode_batch(ys)
    fda_words, _ = fda_decode_batch8(ys)
    t = C2.entries.T.astype(np.float64)
    r_ml = ((ys - ml_words @ t) ** 2).sum(axis=1)
    r_fda = ((ys - fda_words @ t) ** 2).sum(axis=1)
    assert (r_ml <= r_fda + 1e-9).all()


def test_ml_tie_breaks_to_lexicographically_smallest():
    # equidistant between the spreads of two words: the all -1 word is the
    # lexicographically smallest hypothesis and must win
    y = (CHIPS8[0] + CHIPS8[1]) / 2.0
    out = MlDecoder(C2).decode(y)
    d0 = ((y - CHIPS8[0]) ** 2).sum()
    d1 = ((y - CHIPS8[1]) ** 2).sum()
    assert d0 == d1
    assert np.array_equal(out.word, WORDS8[0])


def test_ml_bound_refused():
    with pytest.raises(ValueError, match="levels 2 to 5"):
        MlDecoder(build_codebook(6))


def ml_oracle(c, ys, amplitude=1.0):
    """Brute-force ML in float64: per row, the first word in index order with
    the least |t|^2 - 2 y.t over all 2^K spreads t, from float32-cast chips."""
    words = _all_words(c.cols)
    t = amplitude * spread_many(c, words)
    norms = (t ** 2).sum(axis=1)
    y = np.asarray(ys, dtype=np.float32).astype(np.float64)
    best = [np.argmin(norms - 2.0 * (y[i:i + 16] @ t.T), axis=1) for i in range(0, len(y), 16)]
    return words[np.concatenate(best)]


def _ml_inputs(c, kind, rng):
    if kind == "lattice":       # integer and half-integer chips: many exact ties
        return rng.integers(-2 * c.cols, 2 * c.cols + 1, size=(1200, c.rows)) / 2.0
    if kind == "large":         # finite float32 chips up to the float32 range
        scale = np.array([1e4, 1e12, 1e30, 1e36, 3e38])
        size = (len(scale), 120, c.rows)
        return (rng.uniform(-1, 1, size=size) * scale[:, None, None]).reshape(-1, c.rows)
    x = 2 * rng.integers(0, 2, size=(2100, c.cols)) - 1     # ends in a partial chunk
    return spread_many(c, x) + rng.normal(0, rng.choice([0.35, 0.7, 1.5], size=(2100, 1)),
                                         size=(2100, c.rows))


@pytest.mark.parametrize("kind", ["noisy", "lattice", "large"])
@pytest.mark.parametrize("level", [2, 3])
def test_ml_matches_brute_force_oracle(level, kind):
    c = build_codebook(level)
    ys = _ml_inputs(c, kind, np.random.default_rng(53 + level))
    assert np.array_equal(MlDecoder(c).decode_batch(ys), ml_oracle(c, ys))
    if kind == "noisy":
        y = 2.5 * ys[:300]
        assert np.array_equal(MlDecoder(c, 2.5).decode_batch(y), ml_oracle(c, y, 2.5))
    if kind == "lattice" and level == 2:
        # an amplitude float32 cannot hold: level 2 scores the oracle's own
        # float64 sum, while the min-sum above it adds in another order and
        # may break rounding-level ties otherwise
        y = 0.7 * ys
        assert np.array_equal(MlDecoder(c, 0.7).decode_batch(y), ml_oracle(c, y, 0.7))


@pytest.mark.parametrize("amplitude", [1.0, 0.7])
@pytest.mark.parametrize("n", [0, 1, 255, 256, 257, 600])
def test_ml_level2_matches_oracle_at_chunk_edges(n, amplitude):
    # one score buffer serves every 256-row chunk, sliced on a short last one
    rng = np.random.default_rng(71 + n)
    x = 2 * rng.integers(0, 2, size=(n, 8)) - 1
    ys = amplitude * (spread_many(C2, x) + rng.normal(0, 0.7, size=(n, 4)))
    ys[::3] = amplitude * rng.integers(-16, 17, size=ys[::3].shape) / 2.0    # lattice rows tie
    words = MlDecoder(C2, amplitude).decode_batch(ys)
    assert words.shape == (n, 8) and words.dtype == np.int8
    if n:
        assert np.array_equal(words, ml_oracle(C2, ys, amplitude))


@pytest.mark.parametrize("amplitude", [0.7, 1.3])
def test_ml_level2_fused_scores_equal_oracle_sum(amplitude):
    # the unit fifth chip adds |t|^2 as the product's last inner term, so a
    # score is the oracle's norms - 2 y.t bit for bit; a BLAS that split the
    # inner sum would fail here rather than move rounding-level ties
    t = amplitude * CHIPS8
    y = (amplitude * np.random.default_rng(73).normal(0, 2, size=(2000, 4))).astype(np.float32)
    y = y.astype(np.float64)
    scores = np.hstack((y, np.ones((len(y), 1)))) @ MlDecoder(C2, amplitude)._table
    assert np.array_equal(scores, (t ** 2).sum(axis=1) - 2.0 * (y @ t.T))


def test_ml_half_tables_match_brute_force():
    # the minima that go up from a level-2 half (the seven-user leaf, in a
    # level-3 code) and a level-3 half (in a level-4 code), per -1 count, and
    # the least word that reaches each, against all 256 and 2^17 half-words,
    # on half-integer chips where exact ties are common
    for half, code in ((C2, C3), (C3, C4)):
        words = _all_words(half.cols)
        t = spread_many(half, words)[:, 1:]
        norms = (t ** 2).sum(axis=1)
        groups = [np.flatnonzero((words < 0).sum(axis=1) == n) for n in range(half.cols + 1)]
        ys = np.random.default_rng(61).integers(-6, 7, size=(256, code.rows)) / 2.0
        ml = MlDecoder(code)
        nodes = ml._up(np.ascontiguousarray(ys.T))
        low = nodes[code.level][2][:half.cols + 1, 0]       # the top's left half
        least = []
        for n in range(half.cols + 1):
            only = np.arange(half.cols + 1)[:, None] == np.full(len(ys), n)
            got, counts = ml._least(nodes, half.level, 0, only, np.arange(len(ys)))
            assert (counts == n).all()
            least.append(got)
        for lo in range(0, len(ys), 32):
            scores = norms - 2.0 * (ys[lo:lo + 32, 2:half.rows + 1] @ t.T)
            for n, g in enumerate(groups):
                assert np.array_equal(low[n, lo:lo + 32], scores[:, g].min(axis=1))
                assert np.array_equal(least[n][lo:lo + 32], words[g[np.argmin(scores[:, g], axis=1)]])


def _count_wise_top(ml, y):
    """The top as a min over -1 counts n: t(n) (t(n) - 2 y0) plus the least
    residual of rows 1 on at count n, from the minima that go up, and the
    lexicographically least word over the least counts; the reference for
    the min over cells."""
    nodes = ml._up(np.ascontiguousarray(y.T))
    pair = nodes[ml.level][1][:, 0]
    rest = np.minimum(pair[:-1], pair[1:])[:ml.users + 1]
    t = ml.amplitude * (ml.users - 2.0 * np.arange(ml.users + 1))[:, None]
    total = t * (t - 2.0 * y[:, 0]) + rest
    return ml._least(nodes, ml.level, 0, total == total.min(axis=0), np.arange(len(y)))[0]


@pytest.mark.parametrize("kind", ["noisy", "lattice"])
@pytest.mark.parametrize("level", [3, 4, 5])
def test_ml_top_matches_count_wise_top(level, kind):
    c = build_codebook(level)
    ys = _ml_inputs(c, kind, np.random.default_rng(67 + level))
    for amplitude in (1.0, 2.5):
        y = (amplitude * ys).astype(np.float32).astype(np.float64)
        ml = MlDecoder(c, amplitude)
        assert np.array_equal(ml.decode_batch(y), _count_wise_top(ml, y))


@pytest.mark.parametrize("kind", ml_pin.KINDS)
@pytest.mark.parametrize("level", ml_pin.LEVELS)
def test_ml_matches_pinned_words(level, kind):
    # tests/data/ml_golden.npz holds the words of the earlier min-sum over
    # packed half indices, which this one must reproduce, ties included
    pin = np.load(ml_pin.PIN)
    for amplitude in ml_pin.AMPLITUDES:
        words = MlDecoder(build_codebook(level), amplitude).decode_batch(
            ml_pin.inputs(level, kind, amplitude))
        assert np.array_equal(np.packbits(words > 0, axis=1), pin[ml_pin.key(level, kind, amplitude)])


@pytest.mark.parametrize("level", ml_pin.LEVELS)
def test_ml_ties_alone_take_the_lexicographic_path(level, monkeypatch):
    # noisy rows never tie exactly, so the descent decides them alone; a
    # midpoint between two codewords ties, and the lexicographic pass decides
    # it, as the brute-force oracle does at level 3
    tied = []
    least_pair = MlDecoder._least_pair

    def spy(self, nodes, j, k, minus, plus, cols):
        if j == self.level:
            tied.extend(cols)
        return least_pair(self, nodes, j, k, minus, plus, cols)

    monkeypatch.setattr(MlDecoder, "_least_pair", spy)
    c = build_codebook(level)
    ml = MlDecoder(c)
    ml.decode_batch(ml_pin.inputs(level, "noisy", 1.0))
    assert tied == []
    ys = ml_pin.inputs(level, "midpoint", 1.0)
    words = ml.decode_batch(ys)
    assert len(tied) > len(ys) // 2
    if level == 3:
        assert np.array_equal(words, ml_oracle(c, ys))


@pytest.mark.parametrize("level", [4, 5])
def test_ml_residual_never_above_truth_or_fda(level):
    # 2^35 and 2^71 hypotheses rule out the oracle: ML must still beat every word we can name
    c = build_codebook(level)
    rng = np.random.default_rng(59 + level)
    x = (2 * rng.integers(0, 2, size=(1500, c.cols)) - 1).astype(np.int8)
    ys = spread_many(c, x) + rng.normal(0, rng.choice([0.3, 0.8, 2.0], size=(1500, 1)),
                                        size=(1500, c.rows))
    ml_words = MlDecoder(c).decode_batch(ys)
    fda_words, _ = fda_decode_batch(c, ys)
    residual = lambda w: ((ys - spread_many(c, w)) ** 2).sum(axis=1)
    r_ml = residual(ml_words)
    assert (r_ml <= residual(x) + 1e-9).all()
    assert (r_ml <= residual(fda_words) + 1e-9).all()
    assert (r_ml < residual(fda_words) - 1e-9).any()
    noiseless = MlDecoder(c).decode_batch(spread_many(c, x[:200]))
    assert np.array_equal(noiseless, x[:200])


def test_constellation_points_descending():
    # zeta ranks the grid {hi, hi-step, ..., lo} from the high end
    z, zeta, _ = quantize(np.arange(8.0, -9.0, -2.0), -8, 8)
    assert z.tolist() == [8, 6, 4, 2, 0, -2, -4, -6, -8]
    assert zeta.tolist() == list(range(1, 10))
    assert q_one(5.0, 0, 0, 1) == (0, 1, 1)


def _same(a, b):
    return np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def test_leaf_table_regenerates_from_oracle():
    buf = io.BytesIO()
    np.save(buf, leaf_oracle.build_table())
    assert buf.getvalue() == leaf_oracle.TABLE.read_bytes()


def test_leaf_oracle_rewrites_a_missing_table(tmp_path):
    # the oracle imports the decoder, which must not need the table to load
    shutil.copytree(Path(decoder.__file__).parent, tmp_path / "src" / "udcdma",
                    ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "tests").mkdir()
    shutil.copy(leaf_oracle.__file__, tmp_path / "tests")
    table = tmp_path / "src" / "udcdma" / "leaf8.npy"
    table.unlink()
    done = subprocess.run([sys.executable, str(tmp_path / "tests" / "leaf_oracle.py")],
                          env=dict(os.environ, PYTHONPATH=str(tmp_path / "src")),
                          capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr.decode()
    assert table.read_bytes() == leaf_oracle.TABLE.read_bytes()


def test_leaf_table_ships_as_package_data():
    resource = files("udcdma") / "leaf8.npy"
    assert resource.is_file()
    with resource.open("rb") as f:
        assert np.array_equal(np.load(f), _leaf_table())
    assert _leaf_table().shape == tuple(len(chip_reps(k)) for k in range(4)) + (2,)
    assert not _leaf_table().flags.writeable


def test_leaf_cells_hold_their_representatives():
    reps = cell_reps()
    cells = _leaf_cells(reps.reshape(-1, 4))
    grid = np.indices(reps.shape[:-1]).reshape(4, -1)
    assert all(np.array_equal(c, g) for c, g in zip(cells, grid))


def test_every_leaf_cut_is_needed():
    # neighbouring cells of any chip differ somewhere, so no cut can go
    table = _leaf_table()
    for k in range(4):
        for i in range(table.shape[k] - 1):
            assert not np.array_equal(np.take(table, i, axis=k), np.take(table, i + 1, axis=k))


def _searched_cells(y):
    """The binary search that ``_leaf_cells`` replaces: the oracle for its cells."""
    return tuple(np.searchsorted(cuts, y[:, k], side)
                 for k, (cuts, side) in enumerate(zip(_LEAF_CUTS, _LEAF_SIDES)))


def _assert_cells_match_search(values):
    # every value in every chip position, beside other values in the others
    v = np.asarray(values, dtype=np.float64)
    y = np.stack([np.roll(v, k) for k in range(4)], axis=1)
    for got, want in zip(_leaf_cells(y), _searched_cells(y)):
        assert np.array_equal(got, want)


def test_leaf_cells_match_binary_search_at_integers_and_extremes():
    ints = np.arange(-12.0, 13.0)
    big = np.finfo(np.float64).max
    extremes = [s * v for v in (0.0, 5e-324, 1e-300, 1e18, 1e300, big) for s in (-1, 1)]
    _assert_cells_match_search(np.concatenate((
        ints, np.nextafter(ints, -np.inf), np.nextafter(ints, np.inf), extremes)))


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(np.float64, st.integers(1, 64),
                  elements=st.floats(allow_nan=False, allow_infinity=False)))
def test_leaf_cells_match_binary_search_on_finite_floats(values):
    _assert_cells_match_search(values)


_OFF_CUT = st.floats(-20, 20).filter(lambda v: abs(v - round(v)) >= 1e-6)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_OFF_CUT, _OFF_CUT, _OFF_CUT, _OFF_CUT), min_size=1, max_size=16))
def test_leaf_rules_are_constant_on_cells(rows):
    # the cuts are complete: away from every integer, the rules answer as at
    # the representative of the chip's cell
    y = np.array(rows)
    assert _same(leaf_rules(y), leaf_rules(cell_reps()[_leaf_cells(y)]))


def test_leaf_table_matches_rules_on_cuts_noisy_and_lattice_rows():
    # every combination of cuts and representatives, where float arithmetic
    # is exact, then seeded noisy rows and a half-integer lattice
    values = [np.union1d(cuts, chip_reps(k)) for k, cuts in enumerate(_LEAF_CUTS)]
    on_cuts = np.stack(np.meshgrid(*values, indexing="ij"), axis=-1).reshape(-1, 4)
    rng = np.random.default_rng(67)
    x = WORDS8[rng.integers(0, 256, size=6000)]
    noisy = spread_many(C2, x) + rng.normal(0, rng.choice([0.3, 0.7, 1.5, 4.0], size=(6000, 1)),
                                            size=(6000, 4))
    lattice = rng.integers(-24, 25, size=(6000, 4)) / 2.0
    for y in (on_cuts, noisy, lattice):
        assert _same(fda_decode_batch8(y), leaf_rules(y))


def test_leaf_table_is_exact_where_rounding_bites():
    # one chip at a cut's ulp neighbour, a tiny or a huge value; the rules,
    # evaluated with that chip moved 1e-6 further the same way (a huge chip
    # to its edge cell's representative), give the exact answer there
    reps = cell_reps().reshape(-1, 4)
    base = reps[np.random.default_rng(71).choice(len(reps), 400)]
    big = np.finfo(np.float64).max
    for k, cuts in enumerate(_LEAF_CUTS):
        edges = chip_reps(k)[[0, -1]]
        cases = [(np.nextafter(t, t + s), t + s * 1e-6) for t in cuts for s in (-1, 1)]
        cases += [(s * v, s * 1e-6) for v in (5e-324, 1e-300) for s in (-1, 1)]
        cases += [(s * v, edges[int(s > 0)]) for v in (1e18, 1e300, big) for s in (-1, 1)]
        for chip, moved in cases:
            y, ref = base.copy(), base.copy()
            y[:, k], ref[:, k] = chip, moved
            assert _same(fda_decode_batch8(y), leaf_rules(ref)), (k, chip)


def _exact_leaf(ys, amplitude=1.0):
    """The rules at chips moved out of float rounding's reach of a cut: a
    tiny nonzero chip to 1e-6 of its sign, a huge one past the outer cuts."""
    y = _unit_chips(ys, 4, amplitude)
    tiny = (y != 0) & (np.abs(y) < 1e-6)
    return leaf_rules(np.where(tiny, np.copysign(1e-6, y), np.clip(y, -20.0, 20.0)))


@pytest.mark.parametrize("level", [2, 3, 4, 5])
def test_golden_rows_match_exact_oracle_leaf(level, monkeypatch):
    golden = np.load(GOLDEN)
    c = build_codebook(level)
    monkeypatch.setattr(decoder, "fda_decode_batch8", _exact_leaf)
    words, comps = fda_decode_batch(c, golden[f"chips{level}"])
    assert np.array_equal(np.packbits(words < 0, axis=1), golden[f"words{level}"])
    assert np.array_equal(comps, golden[f"comparisons{level}"])


# ---------------------------------------------------------------------------
# The level passes against the recursion they replaced (tests/fda_recursion.py)

_ROW_KINDS = ("noiseless", "noisy", "half", "midpoint", "subnormal", "huge")


def _fda_rows(c, kind, rng, n=160):
    """Seeded (n, rows) chips of one kind: codewords, noisy codewords,
    half-integers, integers moved one ulp either way (every grid midpoint
    is an integer), subnormal and zero chips among small integers, and
    +-1e308 among small integers."""
    k = c.cols
    x = 2 * rng.integers(0, 2, size=(n, k)) - 1
    if kind in ("noiseless", "noisy"):
        y = spread_many(c, x)
        return y + rng.normal(0, rng.choice([0.5, 1.5, 4.0], size=(n, 1)), size=y.shape) \
            if kind == "noisy" else y
    ints = rng.integers(-k - 3, k + 4, size=(n, c.rows)).astype(np.float64)
    if kind == "half":
        return ints + rng.choice([0.0, 0.5], size=ints.shape)
    if kind == "midpoint":
        return np.nextafter(ints, rng.choice([-np.inf, np.inf], size=ints.shape))
    special = (5e-324, -5e-324, 1e-310, -1e-310, 0.0) if kind == "subnormal" else (1e308, -1e308)
    pick = rng.random(ints.shape) < 0.4
    return np.where(pick, rng.choice(special, size=ints.shape), ints)


@pytest.mark.parametrize("kind", _ROW_KINDS)
@pytest.mark.parametrize("level", range(2, 9))
def test_level_passes_match_the_recursion(level, kind):
    # words and per-row comparisons, from chip 0 and from known counts
    c = build_codebook(level)
    rng = np.random.default_rng(97 + level)
    y = _fda_rows(c, kind, rng)
    assert _same(fda_decode_batch(c, y), fda_recursion.decode_block(y, c.cols, None))
    n = rng.integers(0, c.cols + 1, size=len(y))
    y[:, 0] = c.cols - 2 * n
    assert _same(_decode_block(y, c.cols, n), fda_recursion.decode_block(y, c.cols, n))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([C3, C4]).flatmap(lambda c: st.tuples(
    st.just(c), hnp.arrays(np.float64, st.tuples(st.integers(1, 6), st.just(c.rows)),
                           elements=st.one_of(_FINITE, st.floats(-40, 40), _NEAR_TIES)))))
def test_level_passes_match_the_recursion_on_every_finite_float(case):
    c, y = case
    assert _same(fda_decode_batch(c, y), fda_recursion.decode_block(y, c.cols, None))


@pytest.mark.parametrize("level", range(3, 10))
def test_split_counts_need_no_clip(level):
    # at every count n and split point i of a level's grid, the halves'
    # counts (2n -+ z) // 4, z = 2i - bound, already lie in the ranges the
    # recursion clipped them to, and add up to n or n - 1
    k, h = level_users(level), level_users(level - 1)
    n, i = np.arange(k + 1)[:, None], np.arange(k + 1)
    bound = 2 * np.minimum(n, k - n)
    z = 2 * i - bound
    n_l, n_r = (2 * n - z) // 4, (2 * n + z) // 4
    inside = i <= bound
    assert ((n_l >= np.maximum(0, n - h - 1)) & (n_l <= np.minimum(h, n)))[inside].all()
    assert ((n_r >= np.maximum(0, n - n_l - 1)) & (n_r <= np.minimum(h, n - n_l)))[inside].all()


@pytest.mark.parametrize("level", [3, 5])
def test_every_leaf_goes_through_one_leaf_call(level, monkeypatch):
    # a leaf that flips its first user flips exactly the first user of every
    # leaf in the word, and a block makes one leaf call
    c = build_codebook(level)
    rng = np.random.default_rng(101 + level)
    y = _fda_rows(c, "noisy", rng)
    words, comps = fda_decode_batch(c, y)
    calls = []

    def flip_first(ys, amplitude=1.0):
        calls.append(len(ys))
        leaf, leaf_comps = fda_decode_batch8(ys, amplitude)
        leaf = leaf.copy()
        leaf[:, 0] *= -1
        return leaf, leaf_comps

    monkeypatch.setattr(decoder, "fda_decode_batch8", flip_first)
    flipped, flipped_comps = fda_decode_batch(c, y)
    # leaves and middle users alternate along a word, so leaf l starts at 9 l
    first = 9 * np.arange(1 << (level - 2))
    expected = words.copy()
    expected[:, first] *= -1
    assert np.array_equal(flipped, expected) and np.array_equal(flipped_comps, comps)
    assert calls == [len(y) << (level - 2)]
