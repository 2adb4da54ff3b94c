import os
import subprocess
import sys
from pathlib import Path

import pytest

import udcdma

ROOT = Path(__file__).resolve().parent.parent
SRC = Path(udcdma.__file__).resolve().parent.parent


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
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args.split()],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    assert done.stdout.startswith(first_line)
