"""Tests of the benchmark's own code.  Run with ``python3 -m pytest bench/tests``."""
import itertools
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from reference import (BLOCK, all_words, code_matrix, ebn0_sigma, first_stage_floor,  # noqa: E402
                       ml_reference, sweep_block)
from spans import SpanRecorder, self_times  # noqa: E402


def span(name, start, end, parent):
    return [name, start, end, parent, 0, 0]


def test_self_time_on_hand_built_tree():
    spans = [
        span("cli.cli_main", 0.0, 10.0, -1),
        span("harness.run_ber_sweep", 1.0, 9.0, 0),
        span("channel.random_words", 2.0, 3.0, 1),
        span("decoder.fda_decode", 4.0, 6.0, 1),
        span("decoder.fda_decode", 5.0, 7.0, 1),      # overlaps its sibling: union is 4..7
        span("codebook.build_codebook", 8.5, 9.5, 1),  # runs past its parent: clipped at 9
        span("cli.cli_main", 20.0, 21.0, -1),
    ]
    assert self_times(spans) == pytest.approx([2.0, 3.5, 1.0, 2.0, 2.0, 1.0, 1.0])


def test_recorder_rebinds_and_restores_every_holder():
    from udcdma import channel, complexity, harness

    original = channel.spread_many
    rec = SpanRecorder()
    rec.wrap(channel, "spread_many", "channel.spread_many", words=lambda a, r: len(r))
    assert harness.spread_many is channel.spread_many is complexity.spread_many
    assert channel.spread_many is not original
    matrix = code_matrix(2)
    from udcdma.codebook import build_codebook
    out = harness.spread_many(build_codebook(2), all_words(8))
    rec.restore()
    assert harness.spread_many is original and complexity.spread_many is original
    assert np.array_equal(out, all_words(8) @ matrix.T)
    (name, start, end, parent, words, comps), = rec.spans
    assert (name, parent, words) == ("channel.spread_many", -1, 256) and end >= start


def test_code_matrix_shapes():
    for level, (rows, cols) in {2: (4, 8), 3: (8, 17), 4: (16, 35)}.items():
        assert code_matrix(level).shape == (rows, cols)


def test_ml_reference_recovers_noiseless_words():
    matrix = code_matrix(2)
    words = all_words(8)
    decoded, gaps = ml_reference(matrix, (words @ matrix.T).astype(float), chunk=7)
    assert np.array_equal(decoded, words)
    # Unique decodability: two words differ by 2 C d with d ternary and
    # nonzero, an integer vector at squared distance >= 4.
    assert gaps.min() >= 4.0


def test_ml_reference_breaks_exact_ties_lexicographically():
    matrix = np.array([[1, 1]])          # (-1, +1) and (+1, -1) both send 0
    decoded, gaps = ml_reference(matrix, np.zeros((1, 1)))
    assert decoded.tolist() == [[-1, 1]] and gaps[0] == 0.0


def test_ml_reference_matches_a_loop_on_noisy_input():
    matrix = code_matrix(2)
    rng = np.random.default_rng(0)
    ys = (all_words(8)[rng.integers(0, 256, 50)] @ matrix.T) + rng.normal(0, 1.5, (50, 4))
    decoded, _ = ml_reference(matrix, ys)
    for y, x in zip(ys, decoded):
        best = min(itertools.product((-1, 1), repeat=8),
                   key=lambda w: float(((y - matrix @ np.array(w)) ** 2).sum()))
        assert tuple(x) == best


def test_sweep_block_matches_the_program_keying():
    from udcdma import channel
    from udcdma.codebook import build_codebook

    assert BLOCK == channel.NOISE_BLOCK
    matrix = code_matrix(2)
    sigma = ebn0_sigma(matrix, 3.0)
    assert sigma == channel.ebn0_to_sigma(3.0, build_codebook(2))
    words, ys = sweep_block(matrix, seed=9, point=1, block=0, trials=100, sigma=sigma)
    assert np.array_equal(words, channel.random_words(9, 2, 0, channel.NOISE_BLOCK, 8)[:100])
    noise = channel.noise_block(channel.ChannelConfig(noise_sigma=sigma, rng_seed=9), 3, 0, 4)
    assert np.array_equal(ys, words @ matrix.T + noise[:100])


def test_first_stage_floor_level3():
    assert first_stage_floor(all_words(17)) == 1_026_394
    assert first_stage_floor(np.array([[1, 1, 1], [-1, 1, -1]])) == 1 + 2
