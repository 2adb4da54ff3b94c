"""BPSK spreading through a ternary codebook plus reproducible AWGN.

Words and noise are drawn in fixed-size trial blocks, each block keyed by
(rng_seed, stream, block index) through a SeedSequence spawn key.  Any
partitioning of trials across workers therefore sees identical samples, and
a longer run reproduces the prefix of a shorter one.  ``noise_block`` is the
only noise draw; a sweep asks it for just the rows it keeps, which are the
first rows of the full block.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codebook import TernaryCodebook

NOISE_BLOCK = 4096
# OpenBLAS runs a dgemm of at most 4 * 65536 multiply-adds on one thread.
# Threaded, the spread of 4096 level-3 words in one product took a median of
# 6.3 ms a call between ML decodes on a 2-CPU machine, against 0.14 ms in
# pieces below this size.
_SPREAD_MACS = 1 << 18


@dataclass(frozen=True)
class ChannelConfig:
    """Per-chip noise deviation and the master seed."""

    noise_sigma: float = 0.0
    rng_seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise ValueError(f"noise_sigma must be finite and nonnegative, got {self.noise_sigma}")


def spread_many(c: TernaryCodebook, words: np.ndarray, amplitude: float = 1.0) -> np.ndarray:
    """Row-wise spreading of a (trials, K) matrix of antipodal words.

    One float64 product, times the amplitude: every partial sum is an
    integer of size at most K, so the product is exact in any summation
    order.  Rows go in pieces of at most ``_SPREAD_MACS`` multiply-adds, or
    all at once where one row alone is larger.
    """
    entries = c.entries.T.astype(np.float64)
    step = _SPREAD_MACS // entries.size or max(len(words), 1)
    chips = np.empty((len(words), c.rows))
    for lo in range(0, len(words), step):
        np.matmul(words[lo:lo + step].astype(np.float64), entries, out=chips[lo:lo + step])
    with np.errstate(over="ignore"):            # the decoders refuse an inf chip
        chips *= amplitude
    return chips


def _rng(seed: int, stream: int, block: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(stream, block))
    return np.random.default_rng(ss)


def noise_block(cfg: ChannelConfig, stream: int, block: int, nchips: int,
                trials: int = NOISE_BLOCK) -> np.ndarray:
    """The first ``trials`` rows of the (NOISE_BLOCK, nchips) Gaussian block
    for one (stream, block) pair."""
    g = _rng(cfg.rng_seed, stream, block)
    with np.errstate(over="ignore"):            # the decoders refuse an inf chip
        return cfg.noise_sigma * g.standard_normal((trials, nchips))


def random_words(seed: int, stream: int, block: int, trials: int, users: int) -> np.ndarray:
    """A (trials, users) block of uniform antipodal words, same keying as noise."""
    g = _rng(seed, stream, block)
    return (2 * g.integers(0, 2, size=(trials, users)) - 1).astype(np.int8)


def ebn0_to_sigma(ebn0_db: float, c: TernaryCodebook, amplitude: float = 1.0) -> float:
    """Per-chip noise deviation for a target per-user Eb/N0 in dB.

    Convention: Eb = A^2 * mean signature energy, N0 = 2 sigma^2, so
    sigma = sqrt(A^2 * w / (2 * 10^(dB/10))) with w the mean squared column
    norm, for ternary entries the nonzeros per user.  Signature energies are
    unequal across users; w averages them.  Raises ValueError where the
    formula leaves the float range.
    """
    w = float(np.count_nonzero(c.entries)) / c.cols
    try:
        sigma = float(np.sqrt(amplitude**2 * w / (2.0 * 10.0 ** (ebn0_db / 10.0))))
    except (OverflowError, ZeroDivisionError):
        sigma = math.inf
    if not math.isfinite(sigma):
        raise ValueError(f"Eb/N0 {ebn0_db} dB at amplitude {amplitude} has no finite noise sigma")
    return sigma
