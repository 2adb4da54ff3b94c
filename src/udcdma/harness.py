"""Seeded BER sweeps over the AWGN channel and their CSV and JSON text.

Trials are organised in fixed-size blocks keyed by (seed, point, role,
block).  A sweep runs in waves: each wave takes the next blocks of every
grid point that has not stopped and decodes them as stacks of at most
NOISE_BLOCK rows.  A block's words and noise depend only on its key, never
on the stack that holds it, and each point merges its blocks in block order,
so the points are identical for any worker count (the JSON config echo alone
records ``workers``).  Both decoders see the same words and the same noise
(common random numbers).  fda decodes each stack once, and its words are
ML's guess whatever the order of ``decoders``, which sets only the order of
the tallies and of the output rows.
"""
from __future__ import annotations

import functools
import json
import math
import multiprocessing
import os
from dataclasses import asdict, dataclass, field, fields
from itertools import accumulate
from typing import Optional, Sequence

import numpy as np

from .channel import (NOISE_BLOCK, ChannelConfig, ebn0_to_sigma, noise_block, random_words,
                      spread_many)
from .codebook import build_codebook
from .decoder import MlDecoder, fda_decode_batch

_ROLE_DATA = 0
_ROLE_NOISE = 1
MAX_WORKERS_PER_CPU = 4
# A sweep grid is refused past this many points, before any is built.
MAX_GRID_POINTS = 10_000


def grid_points(lo: float, step: float, hi: float) -> tuple:
    """The inclusive grid lo, lo + step, ... that never passes hi, each point
    rounded to 12 decimals; the span is rounded to 9 first, so 0:0.1:1 keeps 1."""
    if not all(math.isfinite(v) for v in (lo, step, hi)):
        raise ValueError(f"grid values must be finite, got {lo:g}:{step:g}:{hi:g}")
    if step <= 0:
        raise ValueError(f"grid step must be positive, got {step:g}")
    if hi < lo:
        raise ValueError(f"grid end {hi:g} is below its start {lo:g}")
    span = round((hi - lo) / step, 9)
    if not span < MAX_GRID_POINTS:     # also refuses a span that overflows to inf
        raise ValueError(f"the grid has more than {MAX_GRID_POINTS} points")
    return tuple(round(lo + i * step, 12) for i in range(math.floor(span) + 1))


@dataclass(frozen=True)
class SimConfig:
    """One BER sweep: grid, trial budget, seed, decoders, amplitude.

    Give exactly one grid: ``snr_db_grid`` (Eb/N0 in dB) or ``sigma_grid``
    (raw noise sigmas).  ``snr_convention`` records which, as ``"ebn0"`` or
    ``"raw_sigma"``.
    """

    level: int
    trials_per_point: int
    rng_seed: int
    snr_db_grid: Optional[tuple] = None
    sigma_grid: Optional[tuple] = None
    decoders: tuple = ("fda", "ml")
    amplitude: float = 1.0
    snr_convention: str = field(init=False)
    workers: int = 1
    min_errors: Optional[int] = None

    def __post_init__(self):
        if self.trials_per_point < 1:
            raise ValueError("trials_per_point must be >= 1")
        if self.rng_seed < 0:
            raise ValueError(f"rng_seed (--seed) must be >= 0, got {self.rng_seed}")
        if self.min_errors is not None and self.min_errors < 1:
            raise ValueError(f"min_errors must be >= 1, got {self.min_errors}")
        if not self.decoders:
            raise ValueError("at least one decoder is required")
        for d in self.decoders:
            if d not in ("fda", "ml"):
                raise ValueError(f"unknown decoder {d!r}")
        if len(set(self.decoders)) != len(self.decoders):
            raise ValueError(f"decoders must be distinct, got {self.decoders}")
        if not (math.isfinite(self.amplitude) and self.amplitude > 0):
            raise ValueError(f"amplitude must be finite and positive, got {self.amplitude}")
        if self.snr_db_grid and self.sigma_grid:
            raise ValueError("give one grid, snr_db_grid or sigma_grid, not both")
        if not (self.snr_db_grid or self.sigma_grid):
            raise ValueError("one grid is required: snr_db_grid or sigma_grid")
        object.__setattr__(self, "snr_convention", "ebn0" if self.snr_db_grid else "raw_sigma")
        # each worker is a forked process: past a few per CPU they only
        # crowd the machine, and a huge count would exhaust process ids
        most = MAX_WORKERS_PER_CPU * (os.cpu_count() or 1)
        if not 1 <= self.workers <= most:
            raise ValueError(f"workers must be between 1 and {most} "
                             f"({MAX_WORKERS_PER_CPU} per CPU), got {self.workers}")
        grid = (*(self.snr_db_grid or ()), *(self.sigma_grid or ()))
        if not all(math.isfinite(v) for v in grid):
            raise ValueError(f"grid values must be finite, got {grid}")
        if any(s < 0 for s in self.sigma_grid or ()):
            raise ValueError(f"sigma values must be >= 0, got {self.sigma_grid}")


@dataclass(frozen=True)
class BerPoint:
    """Error statistics for one (grid point, decoder) pair."""

    snr_db: Optional[float]
    sigma: float
    decoder: str
    trials: int
    bit_errors: int
    ber: float
    ci_low: float
    ci_high: float
    word_errors: int
    wer: float
    mean_comparisons: float


def wilson_interval(errors: int, total: int) -> tuple:
    """95 % Wilson score interval for a binomial proportion."""
    if total == 0:
        return (0.0, 1.0)
    z = 1.96
    p = errors / total
    denom = 1.0 + z * z / total
    centre = (p + z * z / (2 * total)) / denom
    half = z * math.sqrt(p * (1 - p) / total + z * z / (4 * total * total)) / denom
    return (max(0.0, centre - half), min(1.0, centre + half))


def _run_batch(state: tuple, pieces) -> list:
    """Decode a stack of trial pieces, one (seed, point, block, trials, sigma)
    each, and return one ``{decoder: (bit errors, word errors, comparisons)}``
    tally per piece; ``state`` is the sweep's (codebook, amplitude, decoders,
    ML decoder or None).  A pure function of its arguments."""
    c, amplitude, decoders, ml = state
    # a short piece draws only its first rows, the same values as a full block
    words = [random_words(seed, 2 * point_idx + _ROLE_DATA, block, trials, c.cols)
             for seed, point_idx, block, trials, _ in pieces]
    words = np.concatenate(words)
    chips = spread_many(c, words, amplitude)
    bounds = [0, *accumulate(piece[3] for piece in pieces)]
    for (seed, point_idx, block, trials, sigma), lo in zip(pieces, bounds):
        if sigma > 0.0:
            noise_cfg = ChannelConfig(noise_sigma=sigma, rng_seed=seed)
            stream = 2 * point_idx + _ROLE_NOISE
            chips[lo:lo + trials] += noise_block(noise_cfg, stream, block, c.rows, trials)
    # fda decodes each stack once, and its words are ML's guess in any order
    # of ``decoders``: the certificate keeps a guess only where it is the ML word
    fast, comps = fda_decode_batch(c, chips, amplitude)
    decoded = {"fda": fast}
    if "ml" in decoders:
        decoded["ml"] = ml.decode_batch(chips, fast)
    # both decoders decode each row on its own, so a piece's tally does not
    # depend on the pieces stacked beside it
    out = [{} for _ in pieces]
    for dec in decoders:
        wrong = decoded[dec] != words
        # users on rows: a piece's word errors are one sweep over its columns
        by_user = np.ascontiguousarray(wrong.T)
        for tally, lo, hi in zip(out, bounds, bounds[1:]):
            total_comps = (int(comps[lo:hi].sum()) if dec == "fda"
                           else (hi - lo) * ml.comparisons)
            tally[dec] = (int(np.count_nonzero(wrong[lo:hi])),
                          int(np.count_nonzero(by_user[:, lo:hi].any(axis=0))), total_comps)
    return out


def _batches(pieces: list) -> list:
    """Group consecutive pieces into stacks of at most NOISE_BLOCK rows."""
    batches, rows = [], NOISE_BLOCK
    for piece in pieces:
        if rows + piece[3] > NOISE_BLOCK:
            batches.append([])
            rows = 0
        batches[-1].append(piece)
        rows += piece[3]
    return batches


def run_ber_sweep(cfg: SimConfig) -> list[BerPoint]:
    """Run every (grid point, decoder) cell and return its statistics.

    Each wave lists the next blocks of every point that has not stopped and
    decodes them in stacks of at most NOISE_BLOCK rows, so small points share
    one decoder call.  Deterministic for a fixed config: a block's trials are
    derived from (seed, point, block) alone, whichever stack decodes them, and
    each point merges its blocks in block order and evaluates the optional
    early-stop rule on that same ordering.
    """
    c = build_codebook(cfg.level)
    if cfg.snr_convention == "ebn0":
        points = [(float(db), ebn0_to_sigma(db, c, cfg.amplitude)) for db in cfg.snr_db_grid]
    else:
        points = [(None, float(s)) for s in cfg.sigma_grid]

    n_blocks = (cfg.trials_per_point + NOISE_BLOCK - 1) // NOISE_BLOCK
    per_wave = max(cfg.workers * 4, 8)
    tallies = [{d: [0, 0, 0] for d in cfg.decoders} for _ in points]
    trials_done = [0] * len(points)

    ml = MlDecoder(c, cfg.amplitude) if "ml" in cfg.decoders else None
    run_batch = functools.partial(_run_batch, (c, cfg.amplitude, cfg.decoders, ml))
    pool = None
    try:
        active = list(range(len(points)))
        for first in range(0, n_blocks, per_wave):
            wave = range(first, min(first + per_wave, n_blocks))
            # sized per wave: a huge budget that stops early on min_errors
            # must not list every block up front
            sizes = [min(NOISE_BLOCK, cfg.trials_per_point - b * NOISE_BLOCK) for b in wave]
            pieces = [(cfg.rng_seed, p, b, n, points[p][1])
                      for p in active for b, n in zip(wave, sizes)]
            batches = _batches(pieces)
            # no later wave has more batches than the first: fork no more
            # workers than it holds, and none for a single batch
            if first == 0 and cfg.workers > 1 and len(batches) > 1:
                pool = multiprocessing.get_context("fork").Pool(min(cfg.workers, len(batches)))
            if pool is not None:
                outs = pool.map(run_batch, batches)
            else:
                outs = [run_batch(batch) for batch in batches]
            stopped = set()
            for (_, p, _, size, _), out in zip(pieces, (t for o in outs for t in o)):
                if p in stopped:
                    continue
                trials_done[p] += size
                for d in cfg.decoders:
                    for i, v in enumerate(out[d]):
                        tallies[p][d][i] += v
                if cfg.min_errors is not None and all(
                        tallies[p][d][0] >= cfg.min_errors for d in cfg.decoders):
                    stopped.add(p)
            active = [p for p in active if p not in stopped]
            if not active:
                break
    finally:
        if pool is not None:
            pool.close()
            pool.join()

    results = []
    for (snr_db, sigma), done, tally in zip(points, trials_done, tallies):
        for d in cfg.decoders:
            be, we, comps = tally[d]
            bits = done * c.cols
            lo, hi = wilson_interval(be, bits)
            results.append(BerPoint(
                snr_db=snr_db,
                sigma=sigma,
                decoder=d,
                trials=done,
                bit_errors=be,
                ber=be / bits,
                ci_low=lo,
                ci_high=hi,
                word_errors=we,
                wer=we / done,
                mean_comparisons=comps / done,
            ))
    return results


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def curve_to_csv(points: Sequence[BerPoint]) -> str:
    """The curve as CSV: BerPoint's fields in declaration order, one row per point."""
    # getattr, not astuple: astuple deep-copies every value, which tripled
    # the cost of a 26-point curve
    names = [f.name for f in fields(BerPoint)]
    lines = [",".join(names)]
    lines += [",".join(_fmt(getattr(p, n)) for n in names) for p in points]
    return "\n".join(lines) + "\n"


def curve_to_json(points: Sequence[BerPoint], cfg: SimConfig) -> str:
    """The curve as JSON with the sweep's config echoed; no final newline."""
    return json.dumps({"config": asdict(cfg), "points": [asdict(p) for p in points]}, indent=1)
