"""The benchmark's workloads: what one operation runs, and how its output is checked.

An operation is one ``udcdma`` command line passed to ``udcdma.cli.cli_main``.
Every operation of a run uses the same arguments, so every output of a run
must be byte-identical.  The checks compare the output with the independent
computations in ``reference.py`` or with properties the method must have.
"""
from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

from udcdma import channel, codebook, decoder
from reference import (BLOCK, all_words, code_matrix, ebn0_sigma, first_stage_floor,
                       float32_tie_tolerance, ml_reference, sweep_block)

# Exhaustive level-3 census total (empirical_T x 2^17), as in ROADMAP.md.
CENSUS_L3_TOTAL = 3_091_026


class BerSweep:
    """``udcdma ber`` with fda and ML over one Eb/N0 grid, in a single trial block."""

    decoders = ("fda", "ml")

    def __init__(self, name: str, level: int, grid: str, trials: int):
        a, step, b = (float(v) for v in grid.split(":"))
        self.name, self.level, self.grid, self.trials = name, level, grid, trials
        self.points = [a + i * step for i in range(int(round((b - a) / step)) + 1)]
        if trials > BLOCK:
            raise ValueError("the ML reference covers one trial block per point")
        self.words_per_decoder = trials * len(self.points)
        self.words_per_op = self.words_per_decoder * len(self.decoders)

    def argv(self, seed: int, trials: int | None = None) -> list:
        return ["ber", "--level", str(self.level), "--snr", self.grid,
                "--trials", str(trials or self.trials), "--seed", str(seed),
                "--decoders", ",".join(self.decoders)]

    def setup_argv(self, seed: int) -> list:
        return self.argv(seed, trials=1)

    @staticmethod
    def _rows(text: str) -> dict:
        return {(float(r["snr_db"]), r["decoder"]): r for r in csv.DictReader(io.StringIO(text))}

    def comparisons_per_word(self, text: str) -> float:
        rows = self._rows(text)
        return sum(float(rows[(db, "fda")]["mean_comparisons"]) for db in self.points) / len(self.points)

    def noise_replay(self, seed: int):
        """The (config, stream, block, chips) of every noise block one operation draws."""
        matrix = code_matrix(self.level)
        for p, db in enumerate(self.points):
            cfg = channel.ChannelConfig(noise_sigma=ebn0_sigma(matrix, db), rng_seed=seed)
            yield cfg, 2 * p + 1, 0, matrix.shape[0]

    def check(self, text: str, seed: int) -> list:
        """Problems with one operation's CSV; an empty list means it passed."""
        matrix = code_matrix(self.level)
        users = matrix.shape[1]
        rows = self._rows(text)
        if set(rows) != {(db, d) for db in self.points for d in self.decoders}:
            return [f"CSV holds points {sorted(rows)}"]
        problems = []
        errors = {d: [] for d in self.decoders}
        for p, db in enumerate(self.points):
            sigma = ebn0_sigma(matrix, db)
            fda, ml = rows[(db, "fda")], rows[(db, "ml")]
            for r in (fda, ml):
                if int(r["trials"]) != self.trials:
                    problems.append(f"{db} dB {r['decoder']}: {r['trials']} trials")
                if not math.isclose(float(r["sigma"]), sigma, rel_tol=1e-11):
                    problems.append(f"{db} dB {r['decoder']}: sigma {r['sigma']} != {sigma!r}")
                errors[r["decoder"]].append(int(r["bit_errors"]))
            words, ys = sweep_block(matrix, seed, p, 0, self.trials, sigma)
            ref, gaps = ml_reference(matrix, ys)
            near = int((gaps < float32_tie_tolerance(matrix, ys)).sum())
            wrong = ref != words
            ref_bits, ref_words = int(wrong.sum()), int(wrong.any(axis=1).sum())
            ml_bits, ml_words = int(ml["bit_errors"]), int(ml["word_errors"])
            if abs(ml_bits - ref_bits) > users * near or abs(ml_words - ref_words) > near:
                problems.append(f"{db} dB: ML errors {ml_bits} bits / {ml_words} words, "
                                f"reference {ref_bits} / {ref_words}, {near} near-ties")
            # ML minimises word error probability; with common random numbers
            # the paired difference has spread at most sqrt(discordant pairs).
            fda_words = int(fda["word_errors"])
            if ml_words > fda_words + 4.0 * math.sqrt(ml_words + fda_words) + 1:
                problems.append(f"{db} dB: ML word errors {ml_words} > fda {fda_words}")
        for d, errs in errors.items():
            # Points draw independent noise, so allow four standard deviations.
            for db, lo, hi in zip(self.points[1:], errs, errs[1:]):
                if hi > lo + 4.0 * math.sqrt(lo + hi) + 1:
                    problems.append(f"{d}: bit errors rise to {hi} at {db} dB from {lo}")
            if not errs[-1] < errs[0]:
                problems.append(f"{d}: BER does not fall over the grid ({errs[0]} -> {errs[-1]})")
        return problems

    def run_checks(self, seed: int, run) -> list:
        return _matrix_check(self.level)


class Census:
    """``udcdma complexity --mode empirical``: noiseless words through the scalar decoder.

    An operation averages the comparisons over ``sample`` seeded uniform
    words; the exhaustive pass over all 2^K words runs once per run, untimed,
    as a check of the pinned total.
    """

    def __init__(self, name: str, level: int, sample: int, roundtrip: int):
        self.name, self.level, self.sample, self.roundtrip = name, level, sample, roundtrip
        self.users = code_matrix(level).shape[1]
        self.words_per_decoder = self.words_per_op = sample

    def argv(self, seed: int, sample: int | None = None) -> list:
        args = ["complexity", "--level", str(self.level), "--mode", "empirical"]
        return args + ([] if sample == 0 else
                       ["--samples", str(sample or self.sample), "--seed", str(seed)])

    def setup_argv(self, seed: int) -> list:
        return self.argv(seed, sample=1)

    def comparisons_per_word(self, text: str) -> float:
        return float(json.loads(text)["empirical_T"])

    def noise_replay(self, seed: int):
        return ()

    def _total(self, text: str, words: int):
        total = self.comparisons_per_word(text) * words
        return round(total) if abs(total - round(total)) < 1e-6 else None

    def check(self, text: str, seed: int) -> list:
        """The sample's total is whole and at least its first-stage floor."""
        total = self._total(text, self.sample)
        if total is None:
            return [f"sampled mean {text.strip()} is not a whole total over {self.sample} words"]
        # ``--samples N --seed S`` draws N uniform words from numpy's default_rng(S).
        words = 2 * np.random.default_rng(seed).integers(0, 2, size=(self.sample, self.users)) - 1
        if total < first_stage_floor(words):
            return [f"sampled total {total} below the first-stage floor {first_stage_floor(words)}"]
        return []

    def run_checks(self, seed: int, run) -> list:
        """The exhaustive census total, and a seeded sample of noiseless words
        decoding back to themselves."""
        problems = _matrix_check(self.level)
        _, rc, text = run(self.argv(seed, sample=0))
        total = self._total(text, 1 << self.users) if rc == 0 else None
        floor = first_stage_floor(all_words(self.users))
        if total is None or total < floor:
            problems.append(f"exhaustive census {text.strip()!r} (exit {rc}) is not a whole "
                            f"total of at least the first-stage floor {floor}")
        elif self.level == 3 and total != CENSUS_L3_TOTAL:
            problems.append(f"exhaustive census total {total} != {CENSUS_L3_TOTAL}")
        matrix = code_matrix(self.level)
        words = 2 * np.random.default_rng(seed).integers(0, 2, size=(self.roundtrip, self.users)) - 1
        c = codebook.build_codebook(self.level)
        bad = sum(not np.array_equal(decoder.fda_decode(c, y).word, x)
                  for x, y in zip(words, (words @ matrix.T).astype(np.float64)))
        if bad:
            problems.append(f"{bad} of {self.roundtrip} noiseless words do not decode to themselves")
        return problems


def _matrix_check(level: int) -> list:
    if np.array_equal(codebook.build_codebook(level).entries, code_matrix(level)):
        return []
    return [f"build_codebook({level}) differs from the paper's recursion"]


WORKLOADS = {w.name: w for w in (
    # 13 points x 4096 trials: one full block per point, every stage vectorised.
    BerSweep("ber-l2", level=2, grid="0:1:12", trials=4096),
    # 3 points x 128 trials: ML over 2^17 hypotheses is most of the work and
    # its 128 x 2^17 float32 score matrices set peak memory.
    BerSweep("ber-l3", level=3, grid="4:4:12", trials=128),
    # 1024 seeded noiseless words per operation, so that a run holds hundreds
    # of operations; the exhaustive 2^17-word pass is the run's check.
    Census("census-l3", level=3, sample=1024, roundtrip=512),
)}
