"""Seeded, splittable randomness plus the label-sampling and measurement
statistics shared by every Monte Carlo operation.

Stream contract (stable across versions): ``stream(seed, stream_id)`` is a
numpy Generator over the Philox4x64-10 counter-based bit generator keyed by
the pair (seed, stream_id) with a zero counter. Distinct ids give provably
non-overlapping streams; independent trial t of a seeded run draws from
substream (seed, t).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bell import BellDiagonal


def stream(seed: int, stream_id: int = 0) -> np.random.Generator:
    """Independent random stream for (seed, stream_id); see module docstring."""
    if not 0 <= int(seed) < 2**64:
        raise ValueError("seed must fit in an unsigned 64-bit integer")
    if not 0 <= int(stream_id) < 2**64:
        raise ValueError("stream_id must fit in an unsigned 64-bit integer")
    key = np.array([seed, stream_id], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def run_sharded(task, n_shards: int) -> list:
    """Run task(shard_index) for every shard, returning results in shard order."""
    return [task(i) for i in range(n_shards)]


@dataclass(frozen=True)
class EstimateWithError:
    mean: float
    std_error: float
    n: int


def _sample_labels(rng: np.random.Generator, d: BellDiagonal, n: int) -> np.ndarray:
    """n i.i.d. label draws via inverse CDF on the 4-vector (uint8 array)."""
    cdf = np.cumsum(d.p)
    u = rng.random(n)
    return np.minimum(np.searchsorted(cdf, u, side="right"), 3).astype(np.uint8)


def pack_bits(bits) -> int:
    """Pack a 0/1 sequence into an integer, element i as bit i."""
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


def subset_mask(rng: np.random.Generator, n: int) -> int:
    """Random subset of n positions packed into an integer bit mask
    (bit i set means position i is in the subset)."""
    return pack_bits(rng.integers(0, 2, size=n))


def random_axis_parallel_prob(d: BellDiagonal, n_trials: int, seed: int) -> EstimateWithError:
    """Estimate the probability of equal outcomes when both spins of a pair
    are measured along one shared random axis.

    Per trial: draw a random axis and a label, evaluate that label's parallel
    probability for the axis in closed form, then sample the outcome once.
    Sampling the outcome from the exact per-trial probability halves the
    variance of sampling both spins while staying unbiased.
    """
    if n_trials < 1:
        raise ValueError("need n_trials >= 1")
    rng = stream(seed)
    axes = rng.normal(size=(n_trials, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    labels = _sample_labels(rng, d, n_trials)
    n2 = axes**2
    # same-axis correlation <(n.s)(n.s)> per label; the singlet is perfectly
    # anti-correlated along every axis
    corr = np.stack(
        [
            n2[:, 0] - n2[:, 1] + n2[:, 2],
            -n2[:, 0] + n2[:, 1] + n2[:, 2],
            n2[:, 0] + n2[:, 1] - n2[:, 2],
            -np.ones(n_trials),
        ],
        axis=0,
    )
    p_par = 0.5 * (1.0 + corr[labels, np.arange(n_trials)])
    hits = (rng.random(n_trials) < p_par).astype(np.float64)
    se = float(hits.std(ddof=1) / math.sqrt(n_trials)) if n_trials > 1 else 0.0
    return EstimateWithError(float(hits.mean()), se, n_trials)
