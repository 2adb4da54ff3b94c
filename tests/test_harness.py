import json
import math
import os
from dataclasses import replace

import pytest

from udcdma import decoder, harness
from udcdma.channel import NOISE_BLOCK
from udcdma.codebook import build_codebook
from udcdma.decoder import MlDecoder
from udcdma.harness import (
    MAX_WORKERS_PER_CPU,
    SimConfig,
    curve_to_csv,
    curve_to_json,
    grid_points,
    run_ber_sweep,
    wilson_interval,
)


def small_cfg(**kw):
    base = dict(level=2, trials_per_point=6000, rng_seed=5,
                snr_db_grid=(6.0, 9.0), decoders=("fda", "ml"), workers=1)
    base.update(kw)
    return SimConfig(**base)


def test_wilson_basics():
    lo, hi = wilson_interval(0, 1000)
    assert lo == 0.0 and hi < 0.01
    lo, hi = wilson_interval(500, 1000)
    assert lo < 0.5 < hi
    assert wilson_interval(5, 0) == (0.0, 1.0)


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(level=2, trials_per_point=0, rng_seed=1, snr_db_grid=(1.0,))
    with pytest.raises(ValueError):
        SimConfig(level=2, trials_per_point=10, rng_seed=1, snr_db_grid=(1.0,), decoders=())
    with pytest.raises(ValueError):
        SimConfig(level=2, trials_per_point=10, rng_seed=1, snr_db_grid=(1.0,),
                  decoders=("pda",))
    with pytest.raises(ValueError, match="one grid is required"):
        SimConfig(level=2, trials_per_point=10, rng_seed=1)
    with pytest.raises(ValueError, match="not both"):
        SimConfig(level=2, trials_per_point=10, rng_seed=1, snr_db_grid=(3.0,), sigma_grid=(0.1,))


def test_snr_convention_follows_the_grid():
    assert small_cfg().snr_convention == "ebn0"
    cfg = small_cfg(snr_db_grid=None, sigma_grid=(0.1,))
    assert cfg.snr_convention == "raw_sigma"
    with pytest.raises(TypeError):
        small_cfg(snr_convention="raw_sigma")


def test_worker_count_capped_per_cpu():
    # constructing a config starts no process, whatever the count
    most = MAX_WORKERS_PER_CPU * (os.cpu_count() or 1)
    assert small_cfg(workers=most).workers == most
    for workers in (0, most + 1, 100_000):
        with pytest.raises(ValueError, match="workers must be between 1 and"):
            small_cfg(workers=workers)


@pytest.mark.parametrize("grid", [
    dict(snr_db_grid=(1.0, math.nan)),
    dict(snr_db_grid=(math.inf,)),
    dict(sigma_grid=(0.5, math.nan)),
    dict(sigma_grid=(math.inf,)),
    dict(sigma_grid=(0.5, -1.0)),
    dict(sigma_grid=(-1e-300,)),
])
def test_bad_grid_values_rejected(grid):
    with pytest.raises(ValueError, match="finite|>= 0"):
        SimConfig(level=2, trials_per_point=10, rng_seed=1, **grid)


def test_grid_points_never_pass_the_end():
    assert grid_points(0, 2, 7) == (0.0, 2.0, 4.0, 6.0)
    assert grid_points(0, 2, 5) == (0.0, 2.0, 4.0)
    assert grid_points(3, 1, 3) == (3.0,)
    # the span is rounded before its floor, so a float quotient a hair under
    # a whole number keeps its end
    assert len(grid_points(0, 0.1, 1)) == 11
    assert grid_points(0, 0.1, 0.3)[-1] == 0.3
    assert len(grid_points(0, 1e-4, 0.9999)) == 10_000
    assert grid_points(10.5, 0.25, 13) == tuple(10.5 + 0.25 * i for i in range(11))


@pytest.mark.parametrize("lo, step, hi, message", [
    (0, 1, math.inf, "grid values must be finite, got 0:1:inf"),
    (math.nan, 1, 2, "grid values must be finite, got nan:1:2"),
    (0, 0, 1, "grid step must be positive, got 0"),
    (0, -1, 1, "grid step must be positive, got -1"),
    (12, 1, 10, "grid end 10 is below its start 12"),
    (0, 1e-5, 1, "the grid has more than 10000 points"),
    (0, 1, 10_000, "the grid has more than 10000 points"),
    (-1e308, 1e-300, 1e308, "the grid has more than 10000 points"),
])
def test_grid_points_refusals(lo, step, hi, message):
    with pytest.raises(ValueError) as exc:
        grid_points(lo, step, hi)
    assert str(exc.value) == message


def test_ml_bound_checked_before_work():
    cfg = SimConfig(level=6, trials_per_point=10, rng_seed=1, snr_db_grid=(5.0,),
                    decoders=("fda", "ml"))
    with pytest.raises(ValueError):
        run_ber_sweep(cfg)


def test_zero_sigma_gives_zero_ber():
    cfg = SimConfig(level=2, trials_per_point=2000, rng_seed=3, sigma_grid=(0.0,),
                    decoders=("fda", "ml"))
    pts = run_ber_sweep(cfg)
    assert all(p.ber == 0.0 and p.wer == 0.0 for p in pts)


def test_sweep_point_shape_and_fields():
    pts = run_ber_sweep(small_cfg())
    assert len(pts) == 4  # 2 points x 2 decoders
    for p in pts:
        assert 0.0 <= p.ber <= 1.0
        assert p.bit_errors <= p.trials * 8
        assert p.ci_low <= p.ber <= p.ci_high
        assert p.trials == 6000
    ml_pts = [p for p in pts if p.decoder == "ml"]
    assert all(p.mean_comparisons == 256 for p in ml_pts)


def test_ml_not_worse_than_fda_with_common_noise():
    pts = run_ber_sweep(small_cfg(trials_per_point=20000))
    by = {(p.snr_db, p.decoder): p for p in pts}
    for db in (6.0, 9.0):
        fda, ml = by[(db, "fda")], by[(db, "ml")]
        slack = 2 * ((fda.ci_high - fda.ci_low) + (ml.ci_high - ml.ci_low)) / 2
        assert ml.ber <= fda.ber + slack


def test_determinism_across_worker_counts():
    a = run_ber_sweep(small_cfg(workers=1))
    b = run_ber_sweep(small_cfg(workers=3))
    assert curve_to_csv(a) == curve_to_csv(b)


def test_determinism_across_runs():
    a = run_ber_sweep(small_cfg())
    b = run_ber_sweep(small_cfg())
    assert curve_to_csv(a) == curve_to_csv(b)


def test_trial_prefix_reproducibility():
    # doubling the trial budget reproduces the error events of the first half
    short = run_ber_sweep(small_cfg(trials_per_point=4096, snr_db_grid=(6.0,)))
    long = run_ber_sweep(small_cfg(trials_per_point=8192, snr_db_grid=(6.0,)))
    # the first block of the longer run is identical, so errors only grow
    by_s = {p.decoder: p for p in short}
    by_l = {p.decoder: p for p in long}
    for dec in ("fda", "ml"):
        assert by_l[dec].bit_errors >= by_s[dec].bit_errors


def test_min_errors_stopping_deterministic():
    cfg1 = small_cfg(trials_per_point=500_000, snr_db_grid=(4.0,), min_errors=200, workers=1)
    cfg2 = small_cfg(trials_per_point=500_000, snr_db_grid=(4.0,), min_errors=200, workers=2)
    a = run_ber_sweep(cfg1)
    b = run_ber_sweep(cfg2)
    assert curve_to_csv(a) == curve_to_csv(b)
    assert all(p.trials < 500_000 for p in a)       # stopped early
    assert all(p.bit_errors >= 200 for p in a)


def test_min_errors_below_one_rejected():
    for min_errors in (0, -3):
        with pytest.raises(ValueError, match="min_errors must be >= 1"):
            small_cfg(min_errors=min_errors)


def test_huge_trial_budget_stops_after_its_first_wave():
    # a budget of about 2.4e11 blocks: only block sizes taken per wave keep
    # "run until one error" within memory
    cfg = SimConfig(level=2, trials_per_point=10**15, rng_seed=1, sigma_grid=(0.5,),
                    decoders=("fda",), min_errors=1)
    (point,) = run_ber_sweep(cfg)
    assert point.trials == NOISE_BLOCK
    assert point.bit_errors >= 1


@pytest.mark.parametrize("level, amplitude", [(2, 1.0), (3, 1.7)])
def test_stacked_pieces_tally_as_pieces_alone(level, amplitude):
    # pieces from different points, sigmas 0 and above, one of them partial
    c = build_codebook(level)
    state = (c, amplitude, ("fda", "ml"), MlDecoder(c, amplitude))
    pieces = [(5, 0, 0, 700, 0.0), (5, 3, 2, 1000, 0.6), (5, 1, 0, 37, 1.3), (9, 2, 1, 900, 0.9)]
    stacked = harness._run_batch(state, pieces)
    alone = [harness._run_batch(state, [piece])[0] for piece in pieces]
    assert stacked == alone
    assert stacked[0]["fda"][:2] == stacked[0]["ml"][:2] == (0, 0)
    assert all(t["fda"][0] > 0 for t in stacked[1:])


def test_fast_decoder_runs_once_per_stack_in_any_order(monkeypatch):
    # the harness's decode and ML's own guess decode both reach _decode_block
    calls = []
    decode_block = decoder._decode_block

    def counted(y):
        calls.append(len(y))
        return decode_block(y)

    monkeypatch.setattr(decoder, "_decode_block", counted)
    c = build_codebook(2)
    ml = MlDecoder(c)
    pieces = [(5, 0, 0, 700, 0.6), (5, 1, 0, 300, 1.3)]
    tallies = {}
    for order in [("fda", "ml"), ("ml", "fda"), ("ml",)]:
        calls.clear()
        tallies[order] = harness._run_batch((c, 1.0, order, ml), pieces)
        assert calls == [1000]
    assert tallies[("ml", "fda")] == tallies[("fda", "ml")]
    assert tallies[("ml",)] == [{"ml": t["ml"]} for t in tallies[("fda", "ml")]]


@pytest.mark.parametrize("level, grid, trials, want", [(2, range(13), 4096, 13333),
                                                      (3, (4, 8, 12), 128, 184)])
def test_ml_scores_only_the_rows_its_certificate_leaves(level, grid, trials, want, monkeypatch):
    # the ber-l2 and ber-l3 sweeps at seed 1: a narrower certificate scores
    # more rows (26,763 and 298 with the ball r^2 < 0.99 a^2 alone)
    scored = []
    score = MlDecoder._score

    def spy(self, ys):
        scored.append(len(ys))
        return score(self, ys)

    monkeypatch.setattr(MlDecoder, "_score", spy)
    run_ber_sweep(SimConfig(level=level, trials_per_point=trials, rng_seed=1,
                            snr_db_grid=tuple(map(float, grid)), workers=1))
    assert sum(scored) == want


def test_batches_hold_at_most_one_noise_block(monkeypatch):
    rows = []
    run_batch = harness._run_batch

    def counted(state, pieces):
        rows.append(sum(piece[3] for piece in pieces))
        return run_batch(state, pieces)

    monkeypatch.setattr(harness, "_run_batch", counted)
    # 13 points of 1000 trials stack four to a batch, the remainder alone
    run_ber_sweep(small_cfg(trials_per_point=1000, snr_db_grid=tuple(range(13)),
                            decoders=("fda",)))
    assert rows == [4000, 4000, 4000, 1000]
    rows.clear()
    # a full block fills a batch, so the two 5-trial tails are never adjacent
    run_ber_sweep(small_cfg(trials_per_point=2 * NOISE_BLOCK + 5, decoders=("fda",)))
    assert rows == [NOISE_BLOCK, NOISE_BLOCK, 5] * 2


def test_one_batch_sweep_starts_no_pool(monkeypatch):
    def refuse(method):
        raise AssertionError("a one-batch sweep must not fork")

    monkeypatch.setattr(harness.multiprocessing, "get_context", refuse)
    # 13 points x 300 trials stack into one batch of 3,900 rows
    pts = run_ber_sweep(small_cfg(level=5, trials_per_point=300, snr_db_grid=tuple(range(13)),
                                  decoders=("fda",), workers=2))
    assert len(pts) == 13


def test_pool_holds_no_more_workers_than_batches(monkeypatch):
    sizes = []

    class SerialPool:
        def __init__(self, processes):
            sizes.append(processes)

        def map(self, fn, items):
            return [fn(item) for item in items]

        def close(self):
            pass

        def join(self):
            pass

    class Context:
        Pool = SerialPool

    monkeypatch.setattr(harness.multiprocessing, "get_context", lambda method: Context)
    # one point of 5,000 trials: 2 blocks, so 2 batches in the one wave
    cfg = small_cfg(trials_per_point=5000, snr_db_grid=(6.0,), decoders=("fda",))
    assert run_ber_sweep(replace(cfg, workers=4)) == run_ber_sweep(cfg)
    assert sizes == [2]


def test_csv_shape_and_header():
    pts = run_ber_sweep(small_cfg(trials_per_point=1000, snr_db_grid=(8.0,),
                                  decoders=("fda",)))
    text = curve_to_csv(pts)
    lines = text.strip().split("\n")
    assert lines[0] == ("snr_db,sigma,decoder,trials,bit_errors,ber,ci_low,ci_high,"
                        "word_errors,wer,mean_comparisons")
    assert len(lines) == 2
    assert lines[1].split(",")[2] == "fda"


def test_emit_json_round_trip():
    cfg = small_cfg(trials_per_point=1000, snr_db_grid=(8.0,))
    pts = run_ber_sweep(cfg)
    parsed = json.loads(curve_to_json(pts, cfg))
    assert parsed["config"]["rng_seed"] == 5
    assert parsed["config"]["snr_convention"] == "ebn0"
    assert len(parsed["points"]) == len(pts)
    for raw, p in zip(parsed["points"], pts):
        assert raw["bit_errors"] == p.bit_errors
        assert math.isclose(raw["ber"], p.ber)


def test_raw_sigma_mode_csv_has_empty_snr_column(tmp_path):
    cfg = SimConfig(level=2, trials_per_point=1000, rng_seed=1, sigma_grid=(0.5,),
                    decoders=("fda",))
    pts = run_ber_sweep(cfg)
    text = curve_to_csv(pts)
    row = text.strip().split("\n")[1]
    assert row.startswith(",0.5,fda")


def test_ber_monotone_in_snr():
    # statistical invariant: 3 dB more SNR cannot raise the error rate once
    # both estimates carry at least 100 error events
    cfg = small_cfg(trials_per_point=60_000, snr_db_grid=(5.0, 8.0), decoders=("fda", "ml"))
    pts = run_ber_sweep(cfg)
    by = {(p.snr_db, p.decoder): p for p in pts}
    for dec in ("fda", "ml"):
        low, high = by[(5.0, dec)], by[(8.0, dec)]
        assert low.bit_errors >= 100 and high.bit_errors >= 100
        assert high.ber <= low.ber
