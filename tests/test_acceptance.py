"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the pass/fail lines.
The slow-marked tests cover the long-running searches and the million-trial
error-rate sweep; deselect them with ``-m "not slow"`` during development.
"""
import os

import numpy as np
import pytest

from udcdma.channel import spread_many
from udcdma.cli import cli_main
from udcdma.codebook import build_codebook, max_ud_columns, verify_ud
from udcdma.complexity import (
    REFERENCE_CENSUS_4X8,
    analytic_T,
    comparison_census,
    empirical_avg_comparisons,
)
from udcdma.decoder import MlDecoder, _all_words, fda_decode_batch, fda_decode_batch8
from udcdma.harness import SimConfig, run_ber_sweep

WORKERS = min(4, os.cpu_count() or 1)


def _line(num: int, ok: bool, detail: str) -> bool:
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    return ok


# -- criterion 1: construction fidelity -------------------------------------

def test_criterion_1_construction(capsys):
    assert cli_main(["gen", "--level", "1"]) == 0
    out1 = capsys.readouterr().out
    assert cli_main(["gen", "--level", "2"]) == 0
    out2 = capsys.readouterr().out
    ok = out1 == "1,1,1\n1,0,-1\n"
    ok &= out2 == ("1,1,1,1,1,1,1,1\n"
                   "1,1,1,1,0,-1,-1,-1\n"
                   "1,1,0,-1,0,1,0,-1\n"
                   "1,0,0,-1,0,-1,0,1\n")
    for level in (3, 4, 5):
        c = build_codebook(level)
        prev = build_codebook(level - 1)
        k_prev = prev.cols
        m = c.entries
        ok &= (c.rows, c.cols) == (2 ** level, 2 ** (level + 1) + 2 ** (level - 2) - 1)
        ok &= bool((m[0] == 1).all())
        ok &= bool((m[1, :k_prev] == 1).all() and m[1, k_prev] == 0
                   and (m[1, k_prev + 1:] == -1).all())
        ok &= m[0, k_prev] == 1 and bool((m[1:, k_prev] == 0).all())
        core = prev.entries[1:]
        h = core.shape[0]
        ok &= bool((m[2:2 + h, :k_prev] == core).all())
        ok &= bool((m[2 + h:, k_prev + 1:] == core).all())
        ok &= bool((m[2 + h:, :k_prev] == 0).all())
        ok &= bool((m[2:2 + h, k_prev + 1:] == 0).all())
    assert _line(1, ok, "levels 1/2 bit-exact; levels 3-5 structural invariants")


# -- criterion 2: UD certification -------------------------------------------

def test_criterion_2_ud_certification():
    ok = verify_ud(build_codebook(2).entries).verdict
    ok &= verify_ud(build_codebook(3).entries).verdict
    counter = np.array([[0, 1, 1, 1], [1, 0, -1, 1]])
    w = verify_ud(counter)
    ok &= (not w.verdict) and not (counter @ w.counterexample).any()
    assert _line(2, ok, "levels 2 and 3 certified; 2x4 counterexample witnessed")


# -- criterion 3: maximal column counts ---------------------------------------

def test_criterion_3_ft_small():
    ok = max_ud_columns(2).max_columns == 3
    ok &= max_ud_columns(3).max_columns == 5
    assert _line(3, ok, "f_t(2)=3 and f_t(3)=5")


@pytest.mark.slow
def test_criterion_3_ft_length4():
    res = max_ud_columns(4)
    ok = res.max_columns == 8 and verify_ud(res.exemplar).verdict
    assert _line(3, ok, "f_t(4)=8 with UD exemplar (long-running search)")


# -- criterion 4: noiseless round-trip ----------------------------------------

def test_criterion_4_roundtrip_levels_2_and_3():
    c2 = build_codebook(2)
    w2 = _all_words(8)
    dec2, _ = fda_decode_batch8(spread_many(c2, w2).astype(np.float64))
    ok = bool((dec2 == w2).all())
    c3 = build_codebook(3)
    w3 = _all_words(17)
    dec3, _ = fda_decode_batch(c3, spread_many(c3, w3).astype(np.float64))
    ok &= bool((dec3 == w3).all())
    assert _line(4, ok, "exact recovery of all 256 and all 131072 words")


@pytest.mark.slow
def test_criterion_4_roundtrip_level4_random():
    c4 = build_codebook(4)
    rng = np.random.default_rng(12345)
    words = (2 * rng.integers(0, 2, size=(100_000, 35)) - 1).astype(np.int8)
    chips = spread_many(c4, words).astype(np.float64)
    decoded, _ = fda_decode_batch(c4, chips)
    ok = bool((decoded == words).all())
    assert _line(4, ok, "exact recovery of 100000 random level-4 words")


# -- criterion 5: comparison census -------------------------------------------

def test_criterion_5_comparison_census():
    census = comparison_census(build_codebook(2))
    expected = list(REFERENCE_CENSUS_4X8)
    ok = census == expected and sum(census) == 1500
    _line(5, ok, f"expected {expected} (sum 1500); measured {census} "
                 f"(sum {sum(census)})")
    assert ok, (
        "reference census totals are not reproducible by a comparison-complete "
        "decoder: their n=3 row averages 5.16 comparisons over 56 equiprobable "
        "words, below the log2 C(8,3) = 5.81 information bound, and below the "
        "224 first-stage + 138 split-stage floor implied by the j+1 first-call "
        f"cost; this decoder measures {census}"
    )


# -- criterion 6: complexity reconciliation -----------------------------------

def test_criterion_6_analytic_values():
    t3, t4 = analytic_T(3), analytic_T(4)
    ok = abs(t3 - 17.98) <= 0.01 and abs(t4 - 50.24) <= 0.01
    assert _line(6, ok, f"analytic averages {t3:.4f} and {t4:.4f} within 0.01 "
                        "of 17.98 / 50.24")


def test_criterion_6_empirical_reconciliation():
    t3 = analytic_T(3)
    emp = empirical_avg_comparisons(build_codebook(3), mode="exhaustive")
    diff = abs(t3 - emp)
    ok = diff <= 0.01
    _line(6, ok, f"analytic {t3:.4f} vs exhaustive {emp:.4f} (diff {diff:.4f})")
    assert ok, (
        "unattainable window: the analytic recursion is anchored to the "
        "level-2 reference totals (1500/256), which lie below the information "
        "bound for any comparison-complete decoder, so a decoder measuring its "
        "real comparisons must exceed the anchored value (here by "
        f"{diff:.3f}); even a hypothetical decoder reproducing the reference "
        "census exactly would still miss this window by ~0.015 because the "
        "recursion undercounts the recursive half-decodes and divides the "
        "first-call-free average by 2^7 - 1 instead of 2^7"
    )


# -- criterion 7: ML agreement --------------------------------------------------

def test_criterion_7_ml_agreement_level2():
    c2 = build_codebook(2)
    w2 = _all_words(8)
    chips = spread_many(c2, w2).astype(np.float64)
    ml = MlDecoder(c2)
    # the negated words certify no row, so every row is scored
    ok = bool((ml.decode_batch(chips, -w2) == w2).all())
    fda_words, _ = fda_decode_batch8(chips)
    ok &= bool((fda_words == w2).all())
    assert _line(7, ok, "ML equals the fast decoder on all 256 noiseless words")


@pytest.mark.slow
def test_criterion_7_ml_agreement_level3():
    c3 = build_codebook(3)
    w3 = _all_words(17)
    # the negated words certify no row, so every row is scored
    ok = bool((MlDecoder(c3).decode_batch(spread_many(c3, w3), -w3) == w3).all())
    assert _line(7, ok, "ML recovers every noiseless level-3 word "
                        "(equals the fast decoder by criterion 4)")


def test_criterion_7_ml_residual_optimality():
    c2 = build_codebook(2)
    ml = MlDecoder(c2)
    rng = np.random.default_rng(99)
    x = (2 * rng.integers(0, 2, size=(10_000, 8)) - 1).astype(np.int8)
    ys = spread_many(c2, x) + rng.normal(0, 1.5, size=(10_000, 4))
    mw = ml.decode_batch(ys)
    fw, _ = fda_decode_batch8(ys)
    t = c2.entries.T.astype(np.float64)
    r_ml = ((ys - mw @ t) ** 2).sum(axis=1)
    r_fda = ((ys - fw @ t) ** 2).sum(axis=1)
    ok = bool((r_ml <= r_fda + 1e-9).all())
    assert _line(7, ok, "ML residual never exceeds the fast decoder residual "
                        "on 10000 noisy vectors")


# -- criterion 8: BER gap ---------------------------------------------------------

def _crossing(points, decoder, target=1e-3):
    xs = [p.snr_db for p in points if p.decoder == decoder and p.bit_errors > 0]
    ys = [p.ber for p in points if p.decoder == decoder and p.bit_errors > 0]
    for i in range(len(xs) - 1):
        if ys[i] >= target >= ys[i + 1]:
            t = (np.log(target) - np.log(ys[i])) / (np.log(ys[i + 1]) - np.log(ys[i]))
            return xs[i] + t * (xs[i + 1] - xs[i])
    return None


@pytest.mark.slow
def test_criterion_8_ber_gap_level2():
    grid = tuple(round(10.5 + 0.25 * i, 4) for i in range(11))
    cfg = SimConfig(level=2, trials_per_point=1_000_000, rng_seed=2024,
                    snr_db_grid=grid, decoders=("fda", "ml"), workers=WORKERS)
    pts = run_ber_sweep(cfg)
    s_fda = _crossing(pts, "fda")
    s_ml = _crossing(pts, "ml")
    ok = s_fda is not None and s_ml is not None
    gap = (s_fda - s_ml) if ok else float("nan")
    ok = ok and 0.3 <= gap <= 2.0
    assert _line(8, ok, f"SNR gap at BER 1e-3 is {gap:.3f} dB (window [0.3, 2.0], "
                        "common random numbers, 1e6 trials/point)")


@pytest.mark.slow
def test_criterion_8_ml_dominance_level3():
    cfg = SimConfig(level=3, trials_per_point=8192, rng_seed=77,
                    snr_db_grid=(8.0, 10.0), decoders=("fda", "ml"),
                    workers=1)
    pts = run_ber_sweep(cfg)
    by = {(p.snr_db, p.decoder): p for p in pts}
    ok = True
    for db in (8.0, 10.0):
        fda, ml = by[(db, "fda")], by[(db, "ml")]
        slack = (fda.ci_high - fda.ci_low) + (ml.ci_high - ml.ci_low)
        ok &= ml.ber <= fda.ber + slack
    assert _line(8, ok, "level-3 ML dominates the fast decoder at reduced trials")


# -- criterion 9: determinism ------------------------------------------------------

def test_criterion_9_byte_identical_output(tmp_path, capsys):
    args = ["ber", "--level", "2", "--snr", "7:1:9", "--trials", "6000",
            "--seed", "3", "--decoders", "fda,ml", "--format", "csv"]
    files = []
    for run, workers in enumerate(("1", "2", "1", "2")):
        path = tmp_path / f"out_{run}.csv"
        assert cli_main(args + ["--workers", workers, "--out", str(path)]) == 0
        capsys.readouterr()
        files.append(path.read_bytes())
    ok = files[0] == files[1] == files[2] == files[3]
    assert _line(9, ok, "byte-identical CSV across repeat runs and worker counts 1/2")
