"""Deterministic, parallelizable Monte Carlo estimator over channel draws.

Estimates are pure functions of ``(n_samples, seed)``.  Samples are generated
in fixed-size blocks; block ``b`` draws from its own counter-based substream
``Philox(key=(seed, b))``, and per-block sums are combined in block order
with numpy's pairwise reduction.  The worker count only changes scheduling,
never the result.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from .channel import sample_batch

# Fixed block size: results depend on it, so it is a module constant, never
# derived from n_samples or n_workers.
BLOCK_SIZE = 8192


class NonFiniteSampleError(RuntimeError):
    """An integrand returned a non-finite value; carries the sample and column."""

    scheme = None  # set by a caller that knows which scheme owns the column

    def __init__(self, index, column=0):
        super().__init__(f"integrand returned a non-finite value at sample index {index}")
        self.index = index
        self.column = column


@dataclass(frozen=True)
class McConfig:
    n_samples: int
    seed: int
    n_workers: int = 1

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError(f"n_samples must be positive, got {self.n_samples}")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        if self.n_workers < 1:
            raise ValueError(f"n_workers must be positive, got {self.n_workers}")


@dataclass(frozen=True)
class McEstimate:
    """Sample mean with its standard error; scalar or per-component arrays."""

    mean: object
    std_error: object
    n: int


def block_rng(seed, block):
    """Counter-based substream for one block: Philox keyed by (seed, block)."""
    return Generator(Philox(key=np.array([seed, block], dtype=np.uint64)))


def per_sample(fn):
    """Adapt a per-sample integrand (ChannelSample -> float) to batch form."""

    def wrapped(batch):
        return np.array([fn(batch.sample(i)) for i in range(batch.n)], dtype=float)

    return wrapped


def _run_block(f, cfg, csit, block):
    start = block * BLOCK_SIZE
    size = min(BLOCK_SIZE, cfg.n_samples - start)
    batch = sample_batch(block_rng(cfg.seed, block), csit, size)
    vals = np.asarray(f(batch), dtype=float)
    if vals.shape[0] != size:
        raise ValueError(
            f"integrand returned {vals.shape[0]} values for a batch of {size} samples"
        )
    finite = np.isfinite(vals)
    if not finite.all():
        bad_row, bad_col = np.argwhere(~finite.reshape(size, -1))[0]
        raise NonFiniteSampleError(start + int(bad_row), int(bad_col))
    return vals.sum(axis=0), (vals * vals).sum(axis=0)


def estimate(f, cfg, csit):
    """Monte Carlo expectation of a batch integrand over channel draws.

    ``f`` maps a ChannelBatch of size m to an array of per-sample values,
    shape (m,) for a scalar integrand or (m, k) for k components evaluated
    jointly.  The returned mean is bitwise identical for any ``n_workers``.
    """
    n = cfg.n_samples
    n_blocks = math.ceil(n / BLOCK_SIZE)
    if cfg.n_workers > 1 and n_blocks > 1:
        with ThreadPoolExecutor(max_workers=cfg.n_workers) as pool:
            results = list(pool.map(lambda b: _run_block(f, cfg, csit, b), range(n_blocks)))
    else:
        results = [_run_block(f, cfg, csit, b) for b in range(n_blocks)]

    total = np.sum(np.stack([r[0] for r in results]), axis=0)
    total_sq = np.sum(np.stack([r[1] for r in results]), axis=0)
    mean = total / n
    if n > 1:
        var = np.maximum(total_sq - n * mean * mean, 0.0) / (n - 1)
        std_error = np.sqrt(var / n)
    else:
        std_error = np.zeros_like(mean)
    if np.ndim(mean) == 0:
        return McEstimate(mean=float(mean), std_error=float(std_error), n=n)
    return McEstimate(mean=mean, std_error=std_error, n=n)
