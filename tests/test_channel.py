import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from udcdma import channel
from udcdma.channel import (
    NOISE_BLOCK,
    ChannelConfig,
    _rng,
    ebn0_to_sigma,
    noise_block,
    random_words,
    spread_many,
)
from udcdma.codebook import build_codebook

C2 = build_codebook(2)
C3 = build_codebook(3)


def test_spread_all_ones():
    y = spread_many(C2, np.ones((1, 8), dtype=np.int8))
    assert y.dtype == np.float64
    assert y.tolist() == [[8.0, 1.0, 1.0, 0.0]]


def test_spread_negation_and_scaling():
    y = spread_many(C2, -np.ones((1, 8), dtype=np.int8))
    assert y.tolist() == [[-8.0, -1.0, -1.0, 0.0]]
    y2 = spread_many(C2, np.ones((1, 8), dtype=np.int8), amplitude=2.0)
    assert y2.tolist() == [[16.0, 2.0, 2.0, 0.0]]


def test_spread_matches_manual_product():
    rng = np.random.default_rng(5)
    x = 2 * rng.integers(0, 2, size=(20, 17)) - 1
    chips = spread_many(C3, x)
    for row, w in zip(chips, x):
        manual = [sum(int(C3.entries[r, j]) * int(w[j]) for j in range(17)) for r in range(8)]
        assert row.tolist() == manual


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**8 - 1), st.floats(0.25, 4.0, allow_nan=False))
def test_spread_linitivity(bits, amp):
    x = np.array([[1 if bits >> j & 1 else -1 for j in range(8)]])
    base = spread_many(C2, x)
    assert np.allclose(spread_many(C2, x, amp), amp * base)
    assert np.allclose(spread_many(C2, -x), -base)


@pytest.mark.parametrize("pieces", ["rows", "one"])
@pytest.mark.parametrize("level", [2, 3, 4, 5, 6, 7])
def test_spread_is_the_integer_product_times_the_amplitude(level, pieces, monkeypatch):
    # every partial sum of the float64 product is an integer of size at most
    # K, so each piece, on either side of a piece boundary, is exact; past
    # the float range the chips overflow to inf, as the amplitude times the
    # integer chips do.  "one": a row alone passes the limit, so the block is
    # one product
    c = build_codebook(level)
    if pieces == "one":
        monkeypatch.setattr(channel, "_SPREAD_MACS", c.entries.size - 1)
    step = channel._SPREAD_MACS // c.entries.size
    rng = np.random.default_rng(97 + level)
    for n in sorted({0, 1, max(step - 1, 0), step, step + 1, 4096}):
        words = (2 * rng.integers(0, 2, size=(n, c.cols)) - 1).astype(np.int8)
        exact = (words.astype(np.int64) @ c.entries.T.astype(np.int64)).astype(np.float64)
        for amplitude in (1.0, 0.7, 2.5, 1e308):
            with np.errstate(over="ignore"):
                want = amplitude * exact
            got = spread_many(c, words, amplitude)
            assert got.dtype == np.float64 and got.shape == (n, c.rows)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert np.isinf(spread_many(c, words, 1e308)).any()


def test_spread_injective_on_level2():
    words = np.array([[1 if i >> j & 1 else -1 for j in range(8)] for i in range(256)])
    chips = spread_many(C2, words)
    assert len({tuple(row) for row in chips.tolist()}) == 256


def test_awgn_zero_sigma_identity():
    # zero sigma draws an all-zero block, so adding it leaves the chips as they are
    cfg = ChannelConfig(noise_sigma=0.0, rng_seed=3)
    y = np.array([[1.0, -2.0, 3.0, 0.0]])
    noise = noise_block(cfg, stream=0, block=5, nchips=4, trials=7)
    assert noise.shape == (7, 4) and not noise.any()
    assert (y + noise).tolist() == [y[0].tolist()] * 7


def test_awgn_deterministic_per_trial():
    cfg = ChannelConfig(noise_sigma=1.0, rng_seed=42)
    a = noise_block(cfg, stream=1, block=0, nchips=4)
    b = noise_block(cfg, stream=1, block=0, nchips=4)
    assert a.shape == (NOISE_BLOCK, 4)
    assert a.tolist() == b.tolist()
    assert a[9].tolist() != a[10].tolist()
    assert a.tolist() != noise_block(cfg, stream=2, block=0, nchips=4).tolist()
    assert a.tolist() != noise_block(cfg, stream=1, block=1, nchips=4).tolist()
    other_seed = ChannelConfig(noise_sigma=1.0, rng_seed=43)
    assert a.tolist() != noise_block(other_seed, stream=1, block=0, nchips=4).tolist()


def test_awgn_moments():
    # law-of-large-numbers bounds at roughly 3 sigma of the estimators
    cfg = ChannelConfig(noise_sigma=1.0, rng_seed=7)
    samples = np.concatenate(
        [noise_block(cfg, stream=0, block=b, nchips=8).ravel() for b in range(31)]
    )[:1_000_000]
    assert abs(samples.mean()) < 0.005
    assert abs(samples.var() - 1.0) < 0.01


def test_block_prefix_property():
    # a short draw is the first rows of the full block, scaled by sigma
    cfg = ChannelConfig(noise_sigma=0.7, rng_seed=11)
    block = noise_block(cfg, stream=0, block=0, nchips=4)
    rows = noise_block(cfg, stream=0, block=0, nchips=4, trials=3)
    assert rows.tolist() == block[:3].tolist()
    unit = noise_block(ChannelConfig(noise_sigma=1.0, rng_seed=11), 0, 0, 4, trials=3)
    assert rows.tolist() == (0.7 * unit).tolist()


@pytest.mark.parametrize("rows", [1, 37, 128, 4095])
def test_short_draws_are_prefixes_of_a_full_block(rows):
    # a sweep draws only the trials it keeps; that must give the values of a full block
    full = _rng(5, 0, 2).integers(0, 2, size=(NOISE_BLOCK, 17))
    assert np.array_equal(_rng(5, 0, 2).integers(0, 2, size=(rows, 17)), full[:rows])
    full = _rng(5, 1, 2).standard_normal((NOISE_BLOCK, 8))
    assert np.array_equal(_rng(5, 1, 2).standard_normal((rows, 8)), full[:rows])
    assert np.array_equal(random_words(5, 0, 2, rows, 17),
                          random_words(5, 0, 2, NOISE_BLOCK, 17)[:rows])
    cfg = ChannelConfig(noise_sigma=0.3, rng_seed=5)
    assert np.array_equal(noise_block(cfg, 1, 2, 8, rows), noise_block(cfg, 1, 2, 8)[:rows])


def test_random_words_shape_and_determinism():
    a = random_words(1, 0, 0, NOISE_BLOCK, 8)
    b = random_words(1, 0, 0, NOISE_BLOCK, 8)
    assert (a == b).all()
    assert np.isin(a, (-1, 1)).all()


def test_ebn0_frozen_value():
    # Eb = A^2 * 3 for the 4x8 codebook, N0 = 2 sigma^2: at 0 dB sigma = sqrt(1.5)
    assert math.isclose(ebn0_to_sigma(0.0, C2), math.sqrt(1.5), rel_tol=1e-12)


def test_ebn0_monotone_and_limit():
    sigmas = [ebn0_to_sigma(db, C2) for db in np.arange(-5, 30, 0.5)]
    assert all(a > b for a, b in zip(sigmas, sigmas[1:]))
    assert ebn0_to_sigma(200.0, C2) < 1e-9


@pytest.mark.parametrize("db, amplitude", [(8.0, 1e160), (4000.0, 1.0), (-4000.0, 1.0),
                                           (-3000.0, 1e300)])
def test_ebn0_past_the_float_range_refused(db, amplitude):
    # amplitude**2 or 10**(dB/10) overflows, or the quotient does
    with pytest.raises(ValueError, match="no finite noise sigma"):
        ebn0_to_sigma(db, C2, amplitude)


def test_ebn0_formula_unchanged_where_accepted():
    for db, amplitude in ((3.0, 1.0), (-300.0, 1e-100), (300.0, 1e150), (12.0, 2.5)):
        w = float(np.count_nonzero(C2.entries)) / C2.cols
        want = float(np.sqrt(amplitude**2 * w / (2.0 * 10.0 ** (db / 10.0))))
        assert ebn0_to_sigma(db, C2, amplitude) == want


def test_channel_config_validation():
    with pytest.raises(ValueError):
        ChannelConfig(noise_sigma=-1.0)
    assert ChannelConfig(noise_sigma=0.0, rng_seed=4) == ChannelConfig(0.0, 4)


@pytest.mark.parametrize("sigma", [math.nan, math.inf, -math.inf])
def test_channel_config_rejects_non_finite_sigma(sigma):
    with pytest.raises(ValueError, match="finite"):
        ChannelConfig(noise_sigma=sigma)
