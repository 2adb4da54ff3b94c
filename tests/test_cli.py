import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from udcdma import cli, harness
from udcdma import codebook as cb
from udcdma import complexity as cx
from udcdma.cli import cli_main


def run_cli(capsys, *argv):
    code = cli_main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_level1(capsys):
    code, out, _ = run_cli(capsys, "gen", "--level", "1")
    assert code == 0
    assert out == "1,1,1\n1,0,-1\n"


def test_gen_level2(capsys):
    code, out, _ = run_cli(capsys, "gen", "--level", "2")
    assert code == 0
    assert out.splitlines() == [
        "1,1,1,1,1,1,1,1",
        "1,1,1,1,0,-1,-1,-1",
        "1,1,0,-1,0,1,0,-1",
        "1,0,0,-1,0,-1,0,1",
    ]


def test_gen_json(capsys):
    code, out, _ = run_cli(capsys, "gen", "--level", "1", "--format", "json")
    assert code == 0
    parsed = json.loads(out)
    assert parsed["rows"] == 2 and parsed["cols"] == 3


def test_verify(capsys):
    code, out, _ = run_cli(capsys, "verify", "--level", "2")
    assert code == 0
    assert "uniquely decodable" in out


def test_verify_over_bound_is_diagnosed(capsys):
    # the table cap refuses every level past 3 in one line
    for level in range(4, 13):
        code, out, err = run_cli(capsys, "verify", "--level", str(level))
        assert (code, out) == (1, "")
        assert err.startswith("error: UD scan of a ") and err.endswith("; cap is 64 MiB\n")
        assert err.count("\n") == 1


def test_verify_over_table_cap_is_diagnosed(capsys):
    code, out, err = run_cli(capsys, "verify", "--level", "4")
    assert code == 1
    assert out == ""
    assert err == "error: UD scan of a 16x35 matrix needs ~1.26e+04 MiB of tables; cap is 64 MiB\n"


def test_verify_cost_past_float_range_is_diagnosed(capsys):
    # 3^1152 (1024 + 1152) bytes = 10^552.98 overflow a float
    code, _, err = run_cli(capsys, "verify", "--level", "10")
    assert code == 1
    assert err == ("error: UD scan of a 1024x2303 matrix needs ~9.14e+546 MiB of tables; "
                   "cap is 64 MiB\n")


def test_ft_length2(capsys):
    code, out, _ = run_cli(capsys, "ft", "--length", "2")
    assert code == 0
    assert "f_t(2) = 3" in out


def test_decode_saturation(capsys):
    code, out, _ = run_cli(capsys, "decode", "--level", "2", "--y", "8,1,1,0")
    assert code == 0
    assert "x_hat: +1 +1 +1 +1 +1 +1 +1 +1" in out
    assert "comparisons: 1" in out


def test_decode_ml(capsys):
    code, out, _ = run_cli(capsys, "decode", "--level", "2", "--y", "8,1,1,0",
                           "--decoder", "ml")
    assert code == 0
    assert "comparisons: 256" in out


def test_complexity_analytic(capsys):
    code, out, _ = run_cli(capsys, "complexity", "--level", "3", "--mode", "analytic")
    assert code == 0
    parsed = json.loads(out)
    assert abs(parsed["T"] - 17.98) < 0.01


def test_complexity_both_level2(capsys):
    code, out, _ = run_cli(capsys, "complexity", "--level", "2", "--mode", "both")
    assert code == 0
    parsed = json.loads(out)
    assert parsed["G"] == "500"
    assert parsed["empirical_T"] is not None


def test_complexity_empirical_exhaustive_level2(capsys):
    code, out, _ = run_cli(capsys, "complexity", "--level", "2", "--mode", "empirical")
    assert code == 0
    assert out == '{"level": 2, "empirical_T": 8.65234375}\n'     # 2215 / 256


def test_complexity_empirical_sampled_level2(capsys):
    code, out, _ = run_cli(capsys, "complexity", "--level", "2", "--mode", "empirical",
                           "--samples", "1000", "--seed", "3")
    assert code == 0
    expected = cx.empirical_avg_comparisons(cb.build_codebook(2), "sampled", 1000, 3)
    assert json.loads(out) == {"level": 2, "empirical_T": expected}


def test_ber_writes_deterministic_csv(tmp_path, capsys):
    args = ["ber", "--level", "2", "--snr", "8:1:9", "--trials", "3000",
            "--seed", "13", "--decoders", "fda"]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    code1, _, _ = run_cli(capsys, *args, "--out", str(p1))
    code2, _, _ = run_cli(capsys, *args, "--workers", "2", "--out", str(p2))
    assert code1 == code2 == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_ber_json_points_do_not_depend_on_the_worker_count(capsys):
    # the config echo records --workers; the points must not
    args = ["ber", "--level", "2", "--sigma", "0.5", "--trials", "5000", "--seed", "1",
            "--format", "json"]
    runs = []
    for workers in ("1", "2"):
        code, out, _ = run_cli(capsys, *args, "--workers", workers)
        assert code == 0
        runs.append(json.loads(out))
    one, two = runs
    assert one["points"] == two["points"]
    assert (one["config"]["workers"], two["config"]["workers"]) == (1, 2)
    assert {**one["config"], "workers": 2} == two["config"]


def test_ber_negative_snr_start_parses_in_the_equals_form(capsys):
    # argparse reads a separate "-2:2:2" as an option; "--snr=-2:2:2" is one word
    code, out, _ = run_cli(capsys, "ber", "--level", "2", "--snr=-2:2:2", "--trials", "50",
                           "--decoders", "fda")
    assert code == 0
    rows = out.splitlines()
    assert rows[0].startswith("snr_db,")
    assert [float(row.split(",")[0]) for row in rows[1:]] == [-2.0, 0.0, 2.0]


@pytest.mark.parametrize("level, trials", [(2, 5000), (3, 600), (4, 300)])
def test_ber_ml_rows_do_not_depend_on_the_guess(level, trials, capsys):
    # ML returns its guess on the rows the guess certifies: fda's words where
    # fda ran first on a stack, else its own fast decode; both give the same rows
    rows = {}
    for decoders in ("fda,ml", "ml,fda", "ml"):
        code, out, _ = run_cli(capsys, "ber", "--level", str(level), "--snr", "0:4:12",
                               "--trials", str(trials), "--seed", "17", "--decoders", decoders)
        assert code == 0
        rows[decoders] = [line for line in out.splitlines() if ",ml," in line]
    assert len(rows["ml"]) == 4
    assert rows["fda,ml"] == rows["ml,fda"] == rows["ml"]


def test_ber_stdout_csv(capsys):
    code, out, _ = run_cli(capsys, "ber", "--level", "2", "--sigma", "0",
                           "--trials", "100", "--decoders", "fda")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("snr_db,sigma,decoder")
    assert ",0,0" in lines[1] or "0.0" in lines[1]


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli_main(["gen", "--levle", "2"])
    assert exc.value.code == 2


def test_shared_parser_keeps_no_state_between_calls(capsys):
    code, out, _ = run_cli(capsys, "decode", "--level", "2", "--y", "8,1,1,0",
                           "--decoder", "ml")
    assert code == 0 and "comparisons: 256" in out
    with pytest.raises(SystemExit):
        cli_main(["gen", "--levle", "2"])
    capsys.readouterr()
    code, out, _ = run_cli(capsys, "decode", "--level", "2", "--y", "8,1,1,0")
    assert code == 0 and "comparisons: 1\n" in out
    ber = ["ber", "--level", "2", "--sigma", "0.5", "--trials", "20", "--decoders", "fda"]
    code, out, _ = run_cli(capsys, *ber, "--format", "json")
    assert code == 0 and json.loads(out)
    code, out, _ = run_cli(capsys, *ber)
    assert code == 0 and out.startswith("snr_db,sigma,decoder")


def test_import_reads_no_table_and_builds_no_parser_or_pool():
    # start-up cost: the leaf table, the tree layouts, the ML split indices
    # and the parser wait for their first use, and no process pool is loaded
    probe = ("import sys, udcdma.cli as cli, udcdma.decoder as d\n"
             "caches = (d._leaf_table, d._layout, d._split_index, cli._parser)\n"
             "print([f.cache_info().currsize for f in caches],\n"
             "      'multiprocessing.pool' in sys.modules)")
    src = Path(cli.__file__).resolve().parent.parent
    done = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[0, 0, 0, 0] False\n"


def test_cli_main_builds_the_parser_once(capsys):
    cli._parser.cache_clear()
    for _ in range(2):
        assert run_cli(capsys, "gen", "--level", "1")[0] == 0
    assert cli._parser.cache_info().misses == 1


def test_closed_stdout_ends_without_a_traceback():
    # the reader closes the pipe before the child writes, as `| head` may:
    # the console script exits 1 and prints no traceback
    src = Path(cli.__file__).resolve().parent.parent
    argv = ["ber", "--level", "2", "--sigma", "0.5", "--trials", "50", "--seed", "1"]
    for fmt in ("csv", "json"):
        child = subprocess.Popen([sys.executable, "-c", "from udcdma.cli import main; main()",
                                  *argv, "--format", fmt],
                                 env=dict(os.environ, PYTHONPATH=str(src)),
                                 stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        child.stdout.close()
        err = child.communicate(timeout=120)[1]
        assert child.returncode == 1, err
        assert "Traceback" not in err and "Exception ignored" not in err


def test_missing_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli_main([])
    assert exc.value.code == 2


def test_bad_grid_diagnosed(capsys):
    code, _, err = run_cli(capsys, "ber", "--level", "2", "--snr", "5::", "--trials", "10")
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize("grid", ["0:1:inf", "0:1:nan"])
def test_non_finite_grid_diagnosed(capsys, grid):
    code, out, err = run_cli(capsys, "ber", "--level", "2", "--snr", grid, "--trials", "10")
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    assert "finite" in err


def test_grid_past_the_cap_refused():
    # checked before any point is built, so a tiny step cannot run away
    with pytest.raises(ValueError, match="more than 10000 points"):
        cli._parse_grid("0:1e-5:1")
    assert len(cli._parse_grid("0:1e-4:0.9999")) == 10_000


def test_grid_without_three_parts_refused():
    with pytest.raises(ValueError, match="grid must look like a:step:b"):
        cli._parse_grid("0:1")


def test_ber_grid_stops_at_its_end(capsys):
    code, out, err = run_cli(capsys, "ber", "--level", "2", "--snr", "0:2:7", "--trials", "16",
                             "--decoders", "fda")
    assert code == 0 and err == ""
    assert [row.split(",")[0] for row in out.splitlines()[1:]] == ["0", "2", "4", "6"]


def test_grid_span_past_the_float_range_diagnosed(capsys):
    code, out, err = run_cli(capsys, "ber", "--level", "2", "--snr=-1.7e308:1:1.7e308",
                             "--trials", "10")
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")


def test_unwritable_out_diagnosed(tmp_path, capsys):
    target = tmp_path / "missing" / "x.csv"
    code, out, err = run_cli(capsys, "ber", "--level", "2", "--snr", "0:1:2", "--trials", "10",
                             "--out", str(target))
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    assert str(target) in err
    assert not target.exists()


def test_huge_worker_count_diagnosed(capsys, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(harness.multiprocessing, "get_context", no_pool)
    code, out, err = run_cli(capsys, "ber", "--level", "2", "--snr", "0:1:2", "--trials", "10",
                             "--workers", "100000")
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    assert "workers" in err


def test_ml_past_its_maximum_level_diagnosed(capsys, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(harness.multiprocessing, "get_context", no_pool)
    code, out, err = run_cli(capsys, "ber", "--level", "6", "--snr", "0:1:1", "--trials", "10",
                             "--decoders", "fda,ml")
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    assert "level 6" in err


@pytest.mark.parametrize("sigma", ["-1", "nan", "0.5,-0.1", "inf"])
def test_bad_sigma_grid_diagnosed(capsys, sigma):
    code, out, err = run_cli(capsys, "ber", "--level", "2", "--sigma", sigma,
                             "--trials", "50")
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    assert "sigma" in err or "finite" in err


def test_duplicate_decoders_diagnosed(capsys):
    # a repeated decoder would count its errors and comparisons twice
    code, out, err = run_cli(capsys, "ber", "--level", "2", "--sigma", "0.5",
                             "--trials", "100", "--decoders", "fda,fda")
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    assert "distinct" in err


@pytest.mark.parametrize("mode", ["analytic", "empirical", "both"])
@pytest.mark.parametrize("samples", ["0", "-3"])
def test_complexity_samples_below_one_diagnosed(capsys, mode, samples):
    code, out, err = run_cli(capsys, "complexity", "--level", "2", "--mode", mode,
                             "--samples", samples)
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    assert "--samples" in err


@pytest.mark.parametrize("mode", ["analytic", "empirical", "both"])
def test_complexity_samples_past_the_maximum_diagnosed(capsys, mode, monkeypatch):
    # 10^12 words would run for weeks; the count is refused before any codebook exists
    monkeypatch.setattr(cb, "build_codebook", None)
    monkeypatch.setattr(cx, "build_codebook", None)
    code, out, err = run_cli(capsys, "complexity", "--level", "3", "--mode", mode,
                             "--samples", str(10 ** 12))
    assert code == 1
    assert out == ""
    assert err == f"error: --samples {10 ** 12} exceeds the maximum {cx.MAX_SAMPLES}\n"


def test_ber_negative_seed_diagnosed(capsys):
    code, out, err = run_cli(capsys, "ber", "--level", "2", "--sigma", "0.5",
                             "--trials", "10", "--seed", "-1")
    assert code == 1
    assert out == ""
    assert err == "error: rng_seed (--seed) must be >= 0, got -1\n"


@pytest.mark.parametrize("mode", ["empirical", "both"])
def test_complexity_negative_seed_diagnosed(capsys, mode, monkeypatch):
    # refused before any codebook exists
    monkeypatch.setattr(cb, "build_codebook", None)
    monkeypatch.setattr(cx, "build_codebook", None)
    code, out, err = run_cli(capsys, "complexity", "--level", "2", "--mode", mode,
                             "--samples", "5", "--seed", "-1")
    assert code == 1
    assert out == ""
    assert err == "error: seed (--seed) must be >= 0, got -1\n"


@pytest.mark.parametrize("argv", [["--mode", "analytic", "--samples", "5"],
                                  ["--mode", "empirical"], ["--mode", "both"]])
def test_complexity_negative_seed_unread_is_ignored(capsys, argv):
    # analytic numbers and the exhaustive census read no seed
    code, out, err = run_cli(capsys, "complexity", "--level", "2", *argv, "--seed", "-1")
    assert code == 0 and err == ""
    assert json.loads(out)["level"] == 2


@pytest.mark.parametrize("mode", ["analytic", "empirical", "both"])
def test_complexity_level_past_the_maximum_diagnosed(capsys, mode):
    # the analytic recursion alone would run for minutes at level 13
    code, out, err = run_cli(capsys, "complexity", "--level", "13", "--mode", mode)
    assert code == 1
    assert out == ""
    assert err == "error: level 13 exceeds the supported maximum 12\n"


@pytest.mark.parametrize("mode", ["analytic", "empirical", "both"])
@pytest.mark.parametrize("samples", [[], ["--samples", "3"]])
def test_complexity_level1_refused_alike_in_every_mode(capsys, mode, samples):
    code, out, err = run_cli(capsys, "complexity", "--level", "1", "--mode", mode, *samples)
    assert (code, out) == (1, "")
    assert err == "error: complexity accounting starts at level 2\n"


@pytest.mark.parametrize("decoder", ["fda", "ml"])
@pytest.mark.parametrize("chips, shape", [("1,2,3", "(3,)"), ("5", "(1,)")])
def test_decode_wrong_chip_count_diagnosed(capsys, decoder, chips, shape):
    code, out, err = run_cli(capsys, "decode", "--level", "2", "--y", chips,
                             "--decoder", decoder)
    assert (code, out) == (1, "")
    assert err == f"error: expected a chip vector of length 4, got shape {shape}\n"


@pytest.mark.parametrize("decoder", ["fda", "ml"])
@pytest.mark.parametrize("chips", ["inf,1,1,0", "nan,1,1,0"])
def test_decode_non_finite_chips_diagnosed(capsys, chips, decoder):
    code, out, err = run_cli(capsys, "decode", "--level", "2", "--y", chips,
                             "--decoder", decoder)
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    assert "finite" in err


@pytest.mark.parametrize("amplitude", ["inf", "nan", "0", "-1"])
def test_bad_amplitude_diagnosed(capsys, amplitude):
    # refused before any block runs, so no numpy warning precedes the error
    code, out, err = run_cli(capsys, "ber", "--level", "2", "--sigma", "0.5", "--trials", "10",
                             "--decoders", "fda", "--amplitude", amplitude)
    assert code == 1
    assert out == ""
    assert err == f"error: amplitude must be finite and positive, got {float(amplitude)}\n"


def test_huge_amplitude_sweep_diagnosed(capsys):
    # amplitude**2 leaves the float range inside the Eb/N0 conversion
    code, out, err = run_cli(capsys, "ber", "--level", "3", "--snr", "8:1:8", "--trials", "10",
                             "--amplitude", "1e160")
    assert code == 1
    assert out == ""
    assert err == "error: Eb/N0 8.0 dB at amplitude 1e+160 has no finite noise sigma\n"


@pytest.mark.parametrize("huge", [["--sigma", "0.5", "--amplitude", "1e308"], ["--sigma", "1e308"]])
def test_chips_past_the_float_range_end_in_one_line(capsys, huge):
    # spreading or noise past the float range gives infinite chips, which the
    # decoder's finiteness check reports; no numpy warning precedes it
    code, out, err = run_cli(capsys, "ber", "--level", "3", "--trials", "10", "--decoders", "fda",
                             *huge)
    assert (code, out) == (1, "")
    assert err.startswith("error: chips must be finite: row ") and err.count("\n") == 1


def test_huge_ml_amplitude_diagnosed(capsys):
    # refused before any score is formed, so no numpy warning precedes the error
    code, out, err = run_cli(capsys, "decode", "--level", "3", "--decoder", "ml",
                             "--amplitude", "1e200", "--y", "1,2,3,4,5,6,7,8")
    assert code == 1
    assert out == ""
    assert err == "error: amplitude 1e+200 puts level-3 ML scores past the float range\n"


PINNED = Path(__file__).parent / "data" / "pinned"


@pytest.mark.parametrize("argv, name", [
    ("ber --level 2 --snr 0:4:12 --trials 600 --seed 3 --decoders fda,ml",
     "ber_l2_snr0-4-12_t600_s3.csv"),
    ("ber --level 3 --snr 4:4:12 --trials 128 --seed 0 --decoders fda,ml",
     "ber_l3_snr4-4-12_t128_s0.csv"),
    ("ber --level 3 --sigma 0.5,1.5 --amplitude 2.5 --trials 300 --seed 7 --format json",
     "ber_l3_sigma_amp2.5_t300_s7.json"),
    # 0-6 dB stop after block 0; 9 and 12 dB run 4096 + 4096 + 808 trials
    *((f"ber --level 2 --snr 0:3:12 --trials 9000 --seed 4 --min-errors 2000 --workers {w}",
       "ber_l2_snr0-3-12_t9000_s4_min2000.csv") for w in (1, 2)),
])
def test_fixed_seed_output_is_pinned(capsys, argv, name):
    # fixed-seed sweeps must reproduce the frozen output byte for byte
    code, out, err = run_cli(capsys, *argv.split())
    assert code == 0 and err == ""
    assert out == (PINNED / name).read_text(encoding="utf-8")


@pytest.mark.parametrize("argv, name, tail", [
    ("ber --level 2 --snr 0:4:12 --trials 600 --seed 3 --decoders fda,ml",
     "ber_l2_snr0-4-12_t600_s3.csv", ""),
    # stdout ends the JSON text in a newline, the file does not
    ("ber --level 3 --sigma 0.5,1.5 --amplitude 2.5 --trials 300 --seed 7 --format json",
     "ber_l3_sigma_amp2.5_t300_s7.json", "\n"),
])
def test_out_file_is_pinned(tmp_path, capsys, argv, name, tail):
    path = tmp_path / name
    code, out, err = run_cli(capsys, *argv.split(), "--out", str(path))
    assert code == 0 and err == ""
    assert path.read_bytes().decode("utf-8") + tail == (PINNED / name).read_text(encoding="utf-8")


def test_ml_comparison_totals_exact_past_int64(capsys):
    # 5 trials x 2^71 comparisons overflow any fixed-width integer; only
    # exact integer tallies give the mean back as 2^71
    argv = "ber --level 5 --sigma 0.5 --trials 5 --decoders ml".split()
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    assert out.splitlines()[1].split(",")[-1] == "2.36118324143e+21"
    cfg = harness.SimConfig(level=5, trials_per_point=5, rng_seed=0, sigma_grid=(0.5,),
                            decoders=("ml",))
    assert [p.mean_comparisons for p in harness.run_ber_sweep(cfg)] == [2.0 ** 71]


def test_readme_command_examples_parse():
    # a renamed or removed flag fails here, not in a reader's shell
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    lines = [shlex.split(line, comments=True)
             for line in block.replace("\\\n", " ").splitlines()]
    commands = [words for words in lines if words and words[0] == "udcdma"]
    assert commands
    for words in commands:
        cli._parser().parse_args(words[1:])
