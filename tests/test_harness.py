import json
import math

import pytest

from udcdma.harness import (
    CSV_COLUMNS,
    SimConfig,
    curve_to_csv,
    emit_results,
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
    with pytest.raises(ValueError):
        SimConfig(level=2, trials_per_point=10, rng_seed=1, snr_convention="ebn0")


@pytest.mark.parametrize("grid", [
    dict(snr_db_grid=(1.0, math.nan)),
    dict(snr_db_grid=(math.inf,)),
    dict(sigma_grid=(0.5, math.nan), snr_convention="raw_sigma"),
    dict(sigma_grid=(math.inf,), snr_convention="raw_sigma"),
    dict(sigma_grid=(0.5, -1.0), snr_convention="raw_sigma"),
    dict(sigma_grid=(-1e-300,), snr_convention="raw_sigma"),
])
def test_bad_grid_values_rejected(grid):
    with pytest.raises(ValueError, match="finite|>= 0"):
        SimConfig(level=2, trials_per_point=10, rng_seed=1, **grid)


def test_ml_bound_checked_before_work():
    cfg = SimConfig(level=6, trials_per_point=10, rng_seed=1, snr_db_grid=(5.0,),
                    decoders=("fda", "ml"))
    with pytest.raises(ValueError):
        run_ber_sweep(cfg)


def test_zero_sigma_gives_zero_ber():
    cfg = SimConfig(level=2, trials_per_point=2000, rng_seed=3, sigma_grid=(0.0,),
                    snr_convention="raw_sigma", decoders=("fda", "ml"))
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


def test_csv_shape_and_header():
    pts = run_ber_sweep(small_cfg(trials_per_point=1000, snr_db_grid=(8.0,),
                                  decoders=("fda",)))
    text = curve_to_csv(pts)
    lines = text.strip().split("\n")
    assert lines[0] == CSV_COLUMNS
    assert len(lines) == 2
    assert lines[1].split(",")[2] == "fda"


def test_emit_json_round_trip(tmp_path):
    cfg = small_cfg(trials_per_point=1000, snr_db_grid=(8.0,))
    pts = run_ber_sweep(cfg)
    path = tmp_path / "curve.json"
    emit_results(pts, "json", str(path), cfg)
    parsed = json.loads(path.read_text())
    assert parsed["config"]["rng_seed"] == 5
    assert parsed["config"]["snr_convention"] == "ebn0"
    assert len(parsed["points"]) == len(pts)
    for raw, p in zip(parsed["points"], pts):
        assert raw["bit_errors"] == p.bit_errors
        assert math.isclose(raw["ber"], p.ber)


def test_emit_refuses_empty(tmp_path):
    with pytest.raises(ValueError):
        emit_results([], "csv", str(tmp_path / "x.csv"))


def test_raw_sigma_mode_csv_has_empty_snr_column(tmp_path):
    cfg = SimConfig(level=2, trials_per_point=1000, rng_seed=1, sigma_grid=(0.5,),
                    snr_convention="raw_sigma", decoders=("fda",))
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
