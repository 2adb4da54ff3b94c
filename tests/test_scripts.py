import os
import subprocess
import sys
from pathlib import Path

import pytest

import udcdma

ROOT = Path(__file__).resolve().parent.parent
SRC = Path(udcdma.__file__).resolve().parent.parent


def run_script(script, args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args.split()],
                          env=env, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("script, args, first_line", [
    ("ber_gap.py", "--level 2 --trials 4096 --snr-lo 8 --snr-hi 14 --step 2 --workers 2",
     "  8.00 dB  fda  ber="),
    # the two-split ML of level 4, end to end through the script
    ("ber_gap.py", "--level 4 --trials 512 --snr-lo 8 --snr-hi 12 --step 4 --workers 2",
     "  8.00 dB  fda  ber="),
    ("complexity_table.py", "--samples 1000",
     f"{'level':>5} {'users':>6} {'analytic':>10} {'measured':>10} {'mode':>12}"),
])
def test_script_runs_with_tiny_arguments(script, args, first_line):
    done = run_script(script, args)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    assert done.stdout.startswith(first_line)


def test_ber_gap_grid_stops_at_its_end():
    done = run_script("ber_gap.py", "--level 2 --trials 64 --snr-lo 0 --snr-hi 7 --step 2 "
                                    "--workers 1")
    assert done.returncode == 0, done.stderr
    # one line per decoder and point, and none at 8 dB
    sweep = [line[:9] for line in done.stdout.splitlines() if " dB  " in line]
    assert sweep == [f"{db:6.2f} dB" for db in (0, 0, 2, 2, 4, 4, 6, 6)]


def test_ber_gap_flat_segment_at_the_target_crosses_at_its_start():
    # ML's BER is exactly the target at 10 and 10.5 dB (8, 8 and 0 bit errors)
    done = run_script("ber_gap.py", "--level 2 --trials 125 --snr-lo 10 --snr-hi 11 --step 0.5 "
                                    "--workers 1 --seed 7 --target 8e-3")
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stderr
    assert "ML reaches BER 0.008 at 10.000 dB" in done.stdout.splitlines()


def test_ber_gap_fall_to_zero_errors_bounds_the_crossing():
    # the fast decoder's BER falls from 1.0e-2 at 10.5 dB to 0 errors at 11 dB
    done = run_script("ber_gap.py", "--level 2 --trials 125 --snr-lo 10 --snr-hi 11 --step 0.5 "
                                    "--workers 1 --seed 7 --target 8e-3")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[-3:] == [
        "fast decoder reaches BER 0.008 by 11.000 dB (0 errors there, not interpolated)",
        "ML reaches BER 0.008 at 10.000 dB",
        "no SNR penalty: a crossing is not interpolated; raise --trials or refine --step",
    ]


@pytest.mark.parametrize("script, args, message", [
    ("ber_gap.py", "--step 0", "grid step must be positive, got 0"),
    ("ber_gap.py", "--snr-lo 12 --snr-hi 10", "grid end 10 is below its start 12"),
    ("ber_gap.py", "--snr-lo nan", "grid values must be finite, got nan:0.25:13"),
    ("ber_gap.py", "--step 1e-12", "the grid has more than 10000 points"),
    ("ber_gap.py", "--snr-hi=1e308 --snr-lo=-1e308", "the grid has more than 10000 points"),
    ("ber_gap.py", "--trials 0", "trials_per_point must be >= 1"),
    ("complexity_table.py", "--samples 0", "count (--samples) must be >= 1, got 0"),
    ("complexity_table.py", "--seed -1", "seed (--seed) must be >= 0, got -1"),
    ("complexity_table.py", "--samples 1000000001",
     "--samples 1000000001 exceeds the maximum 1000000000"),
])
def test_script_bad_arguments_end_in_a_usage_error(script, args, message):
    done = run_script(script, args)
    assert done.returncode == 2
    assert done.stdout == ""
    assert "Traceback" not in done.stderr
    assert f"{script}: error: {message}" in done.stderr
