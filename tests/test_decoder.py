import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from udcdma.channel import spread_many
from udcdma.codebook import build_codebook
from udcdma.decoder import (
    MlDecoder,
    _D_HI,
    _D_LO,
    _all_words,
    _decode_block,
    _q_grid,
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
    z, zeta, comps = _q_grid(np.array([float(y)]), lo, hi, step)
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
    z, zeta, comps = _q_grid(np.array(ys), lo, hi, step)
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
        z1, _, _ = _q_grid(ys[:, 0], -c.cols, c.cols, 2)
        assert np.array_equal((words == -1).sum(axis=1), (c.cols - z1) // 2)


@pytest.mark.parametrize("level", [2, 3, 4, 5])
def test_batch_matches_golden_file(level):
    # (word, comparisons) frozen from the per-word recursive decoder that the
    # batch recursion replaced, on seeded inputs: noiseless and at sigma 0.7
    # and 2.0 (sets 0-2), lattice points moved by whole and half units onto
    # the quantizer thresholds (set 3), and noisy chips with some replaced by
    # 0, +-1e-300, +-0.5, +-3, +-1e18 or +-1e300 (set 4)
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
        scale = np.array([1e4, 1e12, 1e30, 1e36] + ([3e38] if c.level > 2 else []))
        size = (len(scale), 120, c.rows)
        return (rng.uniform(-1, 1, size=size) * scale[:, None, None]).reshape(-1, c.rows)
    x = 2 * rng.integers(0, 2, size=(2100, c.cols)) - 1     # crosses a 2048-row chunk
    return spread_many(c, x) + rng.normal(0, rng.choice([0.35, 0.7, 1.5], size=(2100, 1)),
                                         size=(2100, c.rows))


@pytest.mark.parametrize("kind", ["noisy", "lattice", "large"])
@pytest.mark.parametrize("level", [2, 3])
def test_ml_matches_brute_force_oracle(level, kind):
    # level-2 float32 products overflow past about 2e37, so its large chips stop at 1e36
    c = build_codebook(level)
    ys = _ml_inputs(c, kind, np.random.default_rng(53 + level))
    assert np.array_equal(MlDecoder(c).decode_batch(ys), ml_oracle(c, ys))
    if kind == "noisy":
        y = 2.5 * ys[:300]
        assert np.array_equal(MlDecoder(c, 2.5).decode_batch(y), ml_oracle(c, y, 2.5))


def test_ml_half_tables_match_brute_force():
    # a level-3 half (rows 1 on): per -1 count, the least score and the first
    # word reaching it, on half-integer chips where exact ties are common
    words = _all_words(17)
    t = spread_many(C3, words)[:, 1:]
    norms = (t ** 2).sum(axis=1)
    groups = [np.flatnonzero((words < 0).sum(axis=1) == n) for n in range(18)]
    ys = np.random.default_rng(61).integers(-6, 7, size=(256, 7)) / 2.0
    low, first = MlDecoder(C3)._half(ys, 3)
    for lo in range(0, len(ys), 32):
        scores = norms - 2.0 * (ys[lo:lo + 32] @ t.T)
        for n, g in enumerate(groups):
            assert np.array_equal(low[lo:lo + 32, n], scores[:, g].min(axis=1))
            assert np.array_equal(first[lo:lo + 32, n], g[np.argmin(scores[:, g], axis=1)])


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
    z, zeta, _ = _q_grid(np.arange(8.0, -9.0, -2.0), -8, 8, 2)
    assert z.tolist() == [8, 6, 4, 2, 0, -2, -4, -6, -8]
    assert zeta.tolist() == list(range(1, 10))
    assert q_one(5.0, 0, 0, 1) == (0, 1, 1)
