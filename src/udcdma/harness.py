"""Seeded BER sweeps over the AWGN channel plus machine-readable emission.

Trials are organised in fixed-size blocks keyed by (seed, point, role,
block); workers always process whole blocks and results merge in block
order, so output bytes are identical for any worker count.  Both decoders
see the same words and the same noise (common random numbers).
"""
from __future__ import annotations

import json
import math
import multiprocessing
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

from .channel import (NOISE_BLOCK, ChannelConfig, ebn0_to_sigma, noise_block, random_words,
                      spread_many)
from .codebook import TernaryCodebook, build_codebook
from .decoder import ML_MAX_LEVEL, MlDecoder, fda_decode_batch

_ROLE_DATA = 0
_ROLE_NOISE = 1


@dataclass(frozen=True)
class SimConfig:
    """One BER sweep: grid, trial budget, seed, decoders, conventions."""

    level: int
    trials_per_point: int
    rng_seed: int
    snr_db_grid: Optional[tuple] = None
    sigma_grid: Optional[tuple] = None
    decoders: tuple = ("fda", "ml")
    amplitude: float = 1.0
    snr_convention: str = "ebn0"
    workers: int = 1
    min_errors: Optional[int] = None

    def __post_init__(self):
        if self.trials_per_point < 1:
            raise ValueError("trials_per_point must be >= 1")
        if not self.decoders:
            raise ValueError("at least one decoder is required")
        for d in self.decoders:
            if d not in ("fda", "ml"):
                raise ValueError(f"unknown decoder {d!r}")
        if self.snr_convention not in ("ebn0", "raw_sigma"):
            raise ValueError("snr_convention must be 'ebn0' or 'raw_sigma'")
        if self.snr_convention == "ebn0" and not self.snr_db_grid:
            raise ValueError("ebn0 convention needs snr_db_grid")
        if self.snr_convention == "raw_sigma" and not self.sigma_grid:
            raise ValueError("raw_sigma convention needs sigma_grid")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
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


def wilson_interval(errors: int, total: int, z: float = 1.96) -> tuple:
    """Wilson score interval for a binomial proportion."""
    if total == 0:
        return (0.0, 1.0)
    p = errors / total
    denom = 1.0 + z * z / total
    centre = (p + z * z / (2 * total)) / denom
    half = z * math.sqrt(p * (1 - p) / total + z * z / (4 * total * total)) / denom
    return (max(0.0, centre - half), min(1.0, centre + half))


_STATE: dict = {}


def _init_state(level: int, amplitude: float, decoders: Sequence[str]):
    c = build_codebook(level)
    ml = MlDecoder(c, amplitude) if "ml" in decoders else None
    _STATE["codebook"] = c
    _STATE["amplitude"] = amplitude
    _STATE["ml"] = ml
    _STATE["decoders"] = tuple(decoders)


def _run_block(args) -> dict:
    """Decode one trial block; pure function of its arguments and _STATE."""
    seed, point_idx, block, trials, sigma = args
    c: TernaryCodebook = _STATE["codebook"]
    amplitude = _STATE["amplitude"]
    # a short block draws only its first rows, the same values as a full one
    words = random_words(seed, 2 * point_idx + _ROLE_DATA, block, trials, c.cols)
    chips = spread_many(c, words, amplitude)
    if sigma > 0.0:
        chips = chips + noise_block(ChannelConfig(noise_sigma=sigma, rng_seed=seed),
                                    2 * point_idx + _ROLE_NOISE, block, c.rows, trials)
    out = {}
    for dec in _STATE["decoders"]:
        if dec == "fda":
            decoded, comps = fda_decode_batch(c, chips, amplitude)
            total_comps = int(comps.sum())
        else:
            decoded = _STATE["ml"].decode_batch(chips)
            total_comps = trials * _STATE["ml"].comparisons
        wrong = decoded != words
        out[dec] = (int(wrong.sum()), int(wrong.any(axis=1).sum()), total_comps)
    return out


def run_ber_sweep(cfg: SimConfig) -> list[BerPoint]:
    """Run every (grid point, decoder) cell and return its statistics.

    Deterministic for a fixed config: trial blocks are derived from
    (seed, point, block) alone and merged in block order, and the optional
    early-stop rule is evaluated on that same ordering.
    """
    c = build_codebook(cfg.level)
    if "ml" in cfg.decoders and cfg.level > ML_MAX_LEVEL:
        raise ValueError(f"ml decoder requested at level {cfg.level}; "
                         f"ML decodes levels up to {ML_MAX_LEVEL}")
    if cfg.snr_convention == "ebn0":
        points = [(float(db), ebn0_to_sigma(db, c, cfg.amplitude)) for db in cfg.snr_db_grid]
    else:
        points = [(None, float(s)) for s in cfg.sigma_grid]

    n_blocks = (cfg.trials_per_point + NOISE_BLOCK - 1) // NOISE_BLOCK
    block_sizes = [
        min(NOISE_BLOCK, cfg.trials_per_point - b * NOISE_BLOCK) for b in range(n_blocks)
    ]

    _init_state(cfg.level, cfg.amplitude, cfg.decoders)
    pool = multiprocessing.get_context("fork").Pool(cfg.workers) if cfg.workers > 1 else None

    results = []
    try:
        for point_idx, (snr_db, sigma) in enumerate(points):
            tallies = {d: [0, 0, 0] for d in cfg.decoders}
            trials_done = 0
            next_block = 0
            stop = False
            while next_block < n_blocks and not stop:
                wave = range(next_block, min(next_block + max(cfg.workers * 4, 8), n_blocks))
                args = [(cfg.rng_seed, point_idx, b, block_sizes[b], sigma) for b in wave]
                if pool is not None:
                    outs = pool.map(_run_block, args)
                else:
                    outs = [_run_block(a) for a in args]
                for b, out in zip(wave, outs):
                    trials_done += block_sizes[b]
                    for d in cfg.decoders:
                        be, we, comps = out[d]
                        tallies[d][0] += be
                        tallies[d][1] += we
                        tallies[d][2] += comps
                    if cfg.min_errors is not None:
                        reached = all(tallies[d][0] >= cfg.min_errors for d in cfg.decoders)
                        if reached:
                            stop = True
                            break
                next_block = wave.stop
            for d in cfg.decoders:
                be, we, comps = tallies[d]
                bits = trials_done * c.cols
                lo, hi = wilson_interval(be, bits)
                results.append(BerPoint(
                    snr_db=snr_db,
                    sigma=sigma,
                    decoder=d,
                    trials=trials_done,
                    bit_errors=be,
                    ber=be / bits,
                    ci_low=lo,
                    ci_high=hi,
                    word_errors=we,
                    wer=we / trials_done,
                    mean_comparisons=comps / trials_done,
                ))
    finally:
        if pool is not None:
            pool.close()
            pool.join()
    return results


CSV_COLUMNS = "snr_db,sigma,decoder,trials,bit_errors,ber,ci_low,ci_high,word_errors,wer,mean_comparisons"


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def curve_to_csv(points: Sequence[BerPoint]) -> str:
    lines = [CSV_COLUMNS]
    for p in points:
        lines.append(",".join(_fmt(v) for v in (
            p.snr_db, p.sigma, p.decoder, p.trials, p.bit_errors, p.ber,
            p.ci_low, p.ci_high, p.word_errors, p.wer, p.mean_comparisons,
        )))
    return "\n".join(lines) + "\n"


def curve_to_json(points: Sequence[BerPoint], cfg: Optional[SimConfig] = None) -> str:
    payload = {
        "config": asdict(cfg) if cfg is not None else None,
        "points": [asdict(p) for p in points],
    }
    return json.dumps(payload, indent=1)


def emit_results(points: Sequence[BerPoint], fmt: str, path: str,
                 cfg: Optional[SimConfig] = None) -> None:
    """Write the curve as CSV (fixed column order) or JSON with config echo."""
    if not points:
        raise ValueError("refusing to emit an empty curve")
    if fmt == "csv":
        text = curve_to_csv(points)
    elif fmt == "json":
        text = curve_to_json(points, cfg)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)
