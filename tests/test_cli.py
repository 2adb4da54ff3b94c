import json
from pathlib import Path

import pytest

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
    code, _, err = run_cli(capsys, "verify", "--level", "4")
    assert code == 1
    assert "bound" in err


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


def test_ber_writes_deterministic_csv(tmp_path, capsys):
    args = ["ber", "--level", "2", "--snr", "8:1:9", "--trials", "3000",
            "--seed", "13", "--decoders", "fda"]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    code1, _, _ = run_cli(capsys, *args, "--out", str(p1))
    code2, _, _ = run_cli(capsys, *args, "--workers", "2", "--out", str(p2))
    assert code1 == code2 == 0
    assert p1.read_bytes() == p2.read_bytes()


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


@pytest.mark.parametrize("sigma", ["-1", "nan", "0.5,-0.1", "inf"])
def test_bad_sigma_grid_diagnosed(capsys, sigma):
    code, out, err = run_cli(capsys, "ber", "--level", "2", "--sigma", sigma,
                             "--trials", "50")
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    assert "sigma" in err or "finite" in err


@pytest.mark.parametrize("mode", ["analytic", "empirical", "both"])
@pytest.mark.parametrize("samples", ["0", "-3"])
def test_complexity_samples_below_one_diagnosed(capsys, mode, samples):
    code, out, err = run_cli(capsys, "complexity", "--level", "2", "--mode", mode,
                             "--samples", samples)
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    assert "--samples" in err


@pytest.mark.parametrize("decoder", ["fda", "ml"])
@pytest.mark.parametrize("chips", ["inf,1,1,0", "nan,1,1,0"])
def test_decode_non_finite_chips_diagnosed(capsys, chips, decoder):
    code, out, err = run_cli(capsys, "decode", "--level", "2", "--y", chips,
                             "--decoder", decoder)
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    assert "finite" in err


PINNED = Path(__file__).parent / "data" / "pinned"


@pytest.mark.parametrize("argv, name", [
    ("ber --level 2 --snr 0:4:12 --trials 600 --seed 3 --decoders fda,ml",
     "ber_l2_snr0-4-12_t600_s3.csv"),
    ("ber --level 3 --snr 4:4:12 --trials 128 --seed 0 --decoders fda,ml",
     "ber_l3_snr4-4-12_t128_s0.csv"),
    ("ber --level 3 --sigma 0.5,1.5 --amplitude 2.5 --trials 300 --seed 7 --format json",
     "ber_l3_sigma_amp2.5_t300_s7.json"),
])
def test_fixed_seed_output_is_pinned(capsys, argv, name):
    # fixed-seed sweeps must reproduce the frozen output byte for byte
    code, out, err = run_cli(capsys, *argv.split())
    assert code == 0 and err == ""
    assert out == (PINNED / name).read_text(encoding="utf-8")
