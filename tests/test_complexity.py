import json
from fractions import Fraction
from math import ceil, comb, floor

import pytest

from udcdma import complexity
from udcdma.channel import spread_many
from udcdma.cli import cli_main
from udcdma.codebook import UdBoundError, build_codebook
from udcdma.complexity import (
    REFERENCE_CENSUS_4X8,
    analytic_G,
    analytic_T,
    comparison_census,
    complexity_report,
    empirical_avg_comparisons,
    _recursion,
    _split_sums,
)
from udcdma.decoder import _all_words, _ceil, _q_grid


def _half(i):
    return 2 ** i + 2 ** (i - 3) - 1


def reference_G(i):
    """The paper's sum: a word with j <= (K-1)/2 minority symbols pays j+1."""
    return sum(comb(2 * _half(i) + 1, j) * (j + 1) for j in range(_half(i) + 1))


def reference_H(i):
    """The paper's double sum over j minority symbols split (k, j-k)."""
    h = _half(i)
    total = 0
    for j in range(1, h + 1):
        total += comb(h, ceil((j - 1) / 2)) ** 2 * (j + 1)
        total += 2 * sum(comb(h, k) * comb(h, j - k) * (2 * k + 1)
                         for k in range(0, floor((j - 1) / 2) + 1))
        total += 2 * sum(comb(h, k) * comb(h, j - k - 1) * (2 * k + 2)
                         for k in range(0, floor((j - 2) / 2) + 1))
    return total


def reference_U(i):
    """The paper's double sum of recursive half-decode invocations."""
    h = _half(i)
    total = 4 * (2 ** (2 ** i - 1) - 2)
    for j in range(2, h + 1):
        total += 2 * (
            comb(h, ceil((j - 1) / 2)) ** 2
            + 2 * sum(comb(h, k) * comb(h, j - k) for k in range(1, floor((j - 1) / 2) + 1))
            + 2 * sum(comb(h, k) * comb(h, j - k - 1) for k in range(1, floor((j - 2) / 2) + 1))
        )
    return total


@pytest.mark.parametrize("level", range(3, 11))
def test_analytic_G_closed_form_equals_the_sum(level):
    assert analytic_G(level) == reference_G(level)


@pytest.mark.parametrize("level", range(3, 9))
def test_analytic_H_and_U_single_sums_equal_the_double_sums(level):
    assert _split_sums(level) == (reference_H(level), reference_U(level))


def test_analytic_G_level2_operational():
    # the decoder's own first quantize of all 256 noiseless first chips, halved
    first_chip = spread_many(build_codebook(2), _all_words(8))[:, 0]
    total = int(_q_grid(_ceil(first_chip, 10), -8, 8)[1].sum())
    assert total == 2 * analytic_G(2) == 1000


def test_analytic_G_level3_closed_form_vs_direct():
    # direct evaluation of the same weighted-binomial sum, written out longhand
    expected = 0
    for j in range(0, 9):
        expected += comb(17, j) * (j + 1)
    assert analytic_G(3) == expected == 513197


def test_binomial_identity_full_range():
    # over the full range the weight telescopes: sum C(K,j)(j+1) = K 2^(K-1) + 2^K
    K = 17
    assert sum(comb(K, j) * (j + 1) for j in range(K + 1)) == K * 2 ** (K - 1) + 2**K


def test_analytic_H_and_U_frozen():
    assert _split_sums(3) == (410236, 129536)


def test_analytic_U_leading_term():
    assert 4 * (2 ** (2**3 - 1) - 2) == 504
    assert _split_sums(3)[1] >= 504


def test_analytic_levels_4_and_5_evaluate_exactly():
    # arbitrary-precision integers keep the higher levels exact
    assert _split_sums(4) == (237318165313, 34358820864)
    assert analytic_G(4) > 0
    assert analytic_T(5) > analytic_T(4)


def test_analytic_T_anchor_and_table_values():
    assert _recursion(2)[-1][3] == Fraction(1500, 256)
    assert abs(analytic_T(3) - 17.98) <= 0.01
    assert abs(analytic_T(4) - 50.24) <= 0.01


def test_t_hat_level2():
    assert _recursion(2)[-1][4] == Fraction(250, 127)


def test_analytic_T_monotone():
    values = [analytic_T(i) for i in range(2, 6)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_reference_census_totals():
    assert sum(REFERENCE_CENSUS_4X8) == 1500
    assert len(REFERENCE_CENSUS_4X8) == 9


def test_census_is_stable_and_consistent():
    c2 = build_codebook(2)
    census = comparison_census(c2)
    # regression pin of this decoder's exhaustive totals per -1 count
    assert census == [1, 34, 191, 498, 767, 498, 191, 34, 1]
    assert sum(census) == 2215
    avg = empirical_avg_comparisons(c2, mode="exhaustive")
    assert avg == sum(census) / 256


def test_empirical_sampled_mode():
    c2 = build_codebook(2)
    a = empirical_avg_comparisons(c2, mode="sampled", count=2000, seed=9)
    b = empirical_avg_comparisons(c2, mode="sampled", count=2000, seed=9)
    assert a == b
    exhaustive = empirical_avg_comparisons(c2, mode="exhaustive")
    assert abs(a - exhaustive) < 0.5


@pytest.mark.parametrize("count, seed, message", [
    (0, 0, "count (--samples) must be >= 1, got 0"),
    (-3, 0, "count (--samples) must be >= 1, got -3"),
    (5, -1, "seed (--seed) must be >= 0, got -1"),
])
def test_empirical_sampled_refuses_bad_count_and_seed(count, seed, message):
    # a zero count divided by zero; a negative seed was a numpy traceback
    with pytest.raises(ValueError) as exc:
        empirical_avg_comparisons(build_codebook(2), mode="sampled", count=count, seed=seed)
    assert str(exc.value) == message


def test_empirical_exhaustive_bound():
    with pytest.raises(UdBoundError):
        empirical_avg_comparisons(build_codebook(4), mode="exhaustive")


def test_sampled_words_drawn_block_by_block_equal_one_draw(monkeypatch):
    c3 = build_codebook(3)
    one_block = empirical_avg_comparisons(c3, mode="sampled", count=1000, seed=5)
    # 300 words a block: 1000 samples span four blocks
    monkeypatch.setattr(complexity, "_BLOCK_BYTES", 300 * 8 * (c3.cols + c3.rows))
    assert complexity._block_rows(c3) == 300
    assert empirical_avg_comparisons(c3, mode="sampled", count=1000, seed=5) == one_block


def test_blocks_shrink_only_past_level_3():
    assert [complexity._block_rows(build_codebook(i)) for i in (2, 3)] == [1 << 16] * 2
    assert complexity._block_rows(build_codebook(8)) * 8 * (575 + 256) <= complexity._BLOCK_BYTES


def test_level_12_report_finishes(capsys):
    assert cli_main(["complexity", "--level", "12"]) == 0
    parsed = json.loads(capsys.readouterr().out)
    assert parsed["level"] == 12
    assert all(parsed[term].isdigit() for term in "GHU")
    assert parsed["T"] > analytic_T(11) > parsed["T_hat_prev"] > 0


def test_report_json_round_trip():
    rep = complexity_report(3)
    parsed = json.loads(json.dumps(rep))
    assert parsed["level"] == 3
    assert parsed["G"] == "513197"
    assert parsed["H"] == "410236"
    assert parsed["U"] == "129536"
    assert abs(parsed["T"] - 17.9813) < 1e-3
    assert parsed["empirical_T"] is None


def test_empirical_report_runs_no_recursion(monkeypatch):
    monkeypatch.setattr(complexity, "_recursion", None)
    rep = complexity_report(2, "empirical", 1000, 3)
    assert rep == {"level": 2, "empirical_T": empirical_avg_comparisons(
        build_codebook(2), mode="sampled", count=1000, seed=3)}


def test_report_both_names_its_sample_mode():
    assert complexity_report(2, "both")["sample_mode"] == "exhaustive"
    assert complexity_report(2, "both", 50, 1)["sample_mode"] == "sampled(50)"


@pytest.mark.parametrize("mode, count, seed, message", [
    ("analytic", 0, 0, "count (--samples) must be >= 1, got 0"),
    ("both", 10 ** 12, -1, "--samples 1000000000000 exceeds the maximum 1000000000"),
    ("empirical", 5, -1, "seed (--seed) must be >= 0, got -1"),
    ("sampled", 5, 0, "unknown mode 'sampled'"),
])
def test_report_refuses_before_building_a_codebook(monkeypatch, mode, count, seed, message):
    # the sampling arguments are checked before the level, here 13, is
    monkeypatch.setattr(complexity, "build_codebook", None)
    with pytest.raises(ValueError) as exc:
        complexity_report(13, mode, count, seed)
    assert str(exc.value) == message
