"""Deterministic, parallelizable Monte Carlo estimator over channel draws.

Estimates are pure functions of ``(n_samples, seed)``.  Samples are generated
in fixed-size blocks; block ``b`` draws from its own counter-based substream
``Philox(key=(seed, b))``, and per-block sums are combined in block order
with numpy's pairwise reduction (within a block, ``einsum`` sums a C-ordered
(m, k > 1) array faster than, and bitwise as, ``sum(axis=0)``).  The worker
count only changes scheduling, never the result.  One estimate may cover a
grid of CSIT configs (say, every SNR of a sweep): the block keys do not
depend on the config, so each block is drawn once and every config is
evaluated from that draw.
"""

from __future__ import annotations

import contextlib
import ctypes
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from .channel import CsitConfig, sample_batch

# Fixed block size: results depend on it, so it is a module constant, never
# derived from n_samples or n_workers.
BLOCK_SIZE = 8192


class NonFiniteSampleError(RuntimeError):
    """An integrand returned a non-finite value; carries the sample, the
    column and the position of its config in the estimate's grid."""

    scheme = None  # set by a caller that knows which scheme owns the column

    def __init__(self, index, column=0, config_index=0):
        super().__init__(f"integrand returned a non-finite value at sample index {index}")
        self.index = index
        self.column = column
        self.config_index = config_index


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


def _run_block(f, cfg, grid, block):
    # Per config of the grid, in order: the block's sum and sum of squares.
    start = block * BLOCK_SIZE
    size = min(BLOCK_SIZE, cfg.n_samples - start)
    sums = []
    for i, batch in enumerate(sample_batch(block_rng(cfg.seed, block), grid, size)):
        vals = np.asarray(f(batch), dtype=float)
        if vals.shape[0] != size:
            raise ValueError(
                f"integrand returned {vals.shape[0]} values for a batch of {size} samples"
            )
        rowwise = vals.ndim == 2 and vals.shape[1] > 1 and vals.flags.c_contiguous
        total = np.einsum("ij->j", vals) if rowwise else vals.sum(axis=0)
        # A NaN or infinite value makes its column's sum non-finite, so only
        # then are the values searched; finite values whose sum overflows pass.
        if not np.isfinite(total).all():
            bad = ~np.isfinite(vals.reshape(size, -1))
            if bad.any():
                bad_row, bad_col = np.argwhere(bad)[0]
                raise NonFiniteSampleError(start + int(bad_row), int(bad_col), i)
        sums.append((total, np.einsum("ij,ij->j", vals, vals) if rowwise
                     else (vals * vals).sum(axis=0)))
        del batch, vals  # the next config runs without this one's arrays
    return sums


def _reduce(block_sums, n):
    # One config's McEstimate from its per-block sums, combined in block order.
    total = np.sum(np.stack([s[0] for s in block_sums]), axis=0)
    total_sq = np.sum(np.stack([s[1] for s in block_sums]), axis=0)
    mean = total / n
    if n > 1:
        var = np.maximum(total_sq - n * mean * mean, 0.0) / (n - 1)
        std_error = np.sqrt(var / n)
    else:
        std_error = np.zeros_like(mean)
    if np.ndim(mean) == 0:
        return McEstimate(mean=float(mean), std_error=float(std_error), n=n)
    return McEstimate(mean=mean, std_error=std_error, n=n)


def _keep_freed_heap():
    # Each block frees MiBs of temporaries that glibc would unmap and fault in again.
    with contextlib.suppress(OSError):  # not glibc: its defaults stay
        libc = ctypes.CDLL("libc.so.6")
        libc.mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD: block arrays use the heap
        libc.mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD: freed heap is kept


_keep_freed_heap()  # once per process, for estimates and the oracles' quadrature alike


def estimate(f, cfg, csit):
    """Monte Carlo expectation of a batch integrand over channel draws.

    ``f`` maps a ChannelBatch of size m to an array of per-sample values,
    shape (m,) for a scalar integrand or (m, k) for k components evaluated
    jointly.  ``csit`` is one CsitConfig, or a sequence of them (a grid) for
    a list of estimates, one per config.  Block keys do not depend on the
    config, so each block's normals are drawn once for the whole grid; ``f``
    sees one batch per config, all sharing them, and ``batch.csit`` names
    it.  Each estimate is bitwise identical to that config's own, and to
    itself for any ``n_workers``.
    """
    single = isinstance(csit, CsitConfig)
    grid = [csit] if single else list(csit)
    n = cfg.n_samples
    n_blocks = math.ceil(n / BLOCK_SIZE)
    if cfg.n_workers > 1 and n_blocks > 1:
        with ThreadPoolExecutor(max_workers=cfg.n_workers) as pool:
            results = list(pool.map(lambda b: _run_block(f, cfg, grid, b), range(n_blocks)))
    else:
        results = [_run_block(f, cfg, grid, b) for b in range(n_blocks)]
    estimates = [_reduce([r[i] for r in results], n) for i in range(len(grid))]
    return estimates[0] if single else estimates
