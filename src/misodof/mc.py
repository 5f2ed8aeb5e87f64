"""Deterministic, parallelizable Monte Carlo estimator over channel draws.

Estimates are pure functions of ``(n_samples, seed)``.  Samples are generated
in fixed-size blocks; block ``b`` draws from its own stream, an SFC64
generator seeded by ``SeedSequence([seed, b])``, and per-block sums are
combined in block order with numpy's pairwise reduction.  Within a block,
every integrand result is read as (k, m) rows, an (m,) one as one row, and
reduced by one pair of ``einsum`` calls over contiguous rows into (k,) sums
and sums of squares.  The worker count only changes scheduling, never the
result.  Workers are forked processes, never more than blocks or usable
CPUs: a block makes about 90 short numpy calls, and threads would wait on
the interpreter lock around each.  A fork costs the run its copy-on-write
faults and exit, so the caller runs block 0 first, times it and forks only
as many workers as the remaining blocks repay (``FORK_COST_S`` each): a
small estimate stays in the caller.  An estimate always covers a grid of CSIT
configs, one or many (say, every SNR of a sweep): the block keys do not
depend on the config, so each block is drawn once and every config is
evaluated from that draw.
"""

from __future__ import annotations

import contextlib
import ctypes
import math
import operator
import os
import pickle
import signal
import threading
import time
from dataclasses import dataclass

import numpy as np
from numpy.random import SFC64, Generator, SeedSequence

from .channel import sample_batch

# Fixed block size: results depend on it, so it is a module constant, never
# derived from n_samples or n_workers.
BLOCK_SIZE = 8192

# Wall seconds of block work a forked worker must take over to repay its
# fork: the copy-on-write faults on the heap it shares with the caller and
# its exit.  On a 2-vCPU host, a fork that took over 10 ms of the oracle
# suite's 16 blocks made the run 7 ms slower and added 2.3k minor faults,
# so one fork costs about 17 ms.
FORK_COST_S = 0.02


class NonFiniteSampleError(RuntimeError):
    """An integrand returned a non-finite value; carries the sample, the
    column (its row of the result) and its config's position in the grid."""

    scheme = None  # set by a caller that knows which scheme owns the column

    def __init__(self, index, column=0, config_index=0):
        super().__init__(f"integrand returned a non-finite value at sample index {index}")
        self.index = index
        self.column = column
        self.config_index = config_index

    def __reduce__(self):  # a worker process sends it to the caller pickled
        return type(self), (self.index, self.column, self.config_index)


@dataclass(frozen=True)
class McConfig:
    n_samples: int
    seed: int
    n_workers: int = 1

    def __post_init__(self):
        for name in ("n_samples", "seed", "n_workers"):  # before numpy or a fork sees them
            value = getattr(self, name)
            try:
                operator.index(value)
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {value!r}") from None
        if self.n_samples < 2:  # one sample has no standard error
            raise ValueError(f"n_samples must be at least 2, got {self.n_samples}")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        if self.n_workers < 1:
            raise ValueError(f"n_workers must be positive, got {self.n_workers}")


@dataclass(frozen=True)
class McEstimate:
    """Sample mean with its standard error, (k,) arrays with one entry per
    integrand column."""

    mean: np.ndarray
    std_error: np.ndarray
    n: int


def block_rng(seed, block):
    """One block's stream: SFC64 seeded by SeedSequence([seed, block]), whose
    hash gives every (seed, block) pair its own, independent, state."""
    return Generator(SFC64(SeedSequence([seed, block])))


def _run_block(f, cfg, grid, block):
    # Per config of the grid, in order: the block's sum and sum of squares.
    start = block * BLOCK_SIZE
    size = min(BLOCK_SIZE, cfg.n_samples - start)
    sums = []
    for i, batch in enumerate(sample_batch(block_rng(cfg.seed, block), grid, size)):
        vals = np.asarray(f(batch), dtype=float)
        if vals.shape[-1] != size:
            raise ValueError(
                f"integrand returned {vals.shape[-1]} values for a batch of {size} samples"
            )
        vals = vals.reshape(-1, size)  # an (m,) result is one row
        total = np.einsum("ij->i", vals)
        # A NaN or infinite value makes its row's sum non-finite, so only
        # then are the values searched; finite values whose sum overflows pass.
        if not np.isfinite(total).all():
            bad = ~np.isfinite(vals.T)
            if bad.any():
                bad_row, bad_col = np.argwhere(bad)[0]
                raise NonFiniteSampleError(start + int(bad_row), int(bad_col), i)
        sums.append((total, np.einsum("ij,ij->i", vals, vals)))
        del batch, vals  # the next config runs without this one's arrays
    return sums


def _reduce(block_sums, n):
    # One config's McEstimate from its per-block sums, combined in block order.
    total = np.sum(np.stack([s[0] for s in block_sums]), axis=0)
    total_sq = np.sum(np.stack([s[1] for s in block_sums]), axis=0)
    mean = total / n
    std_error = np.sqrt(np.maximum(total_sq - n * mean * mean, 0.0) / (n - 1) / n)
    return McEstimate(mean=mean, std_error=std_error, n=n)


def _keep_freed_heap():
    # Each block frees MiBs of temporaries that glibc would unmap and fault in again.
    with contextlib.suppress(OSError):  # not glibc: its defaults stay
        libc = ctypes.CDLL("libc.so.6")
        libc.mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD: block arrays use the heap
        libc.mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD: freed heap is kept


_keep_freed_heap()  # once per process, for estimates and the oracles' quadrature alike


def usable_cpus():
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _in_order(run, blocks):
    # (block, sums) pairs up to the first failing block, paired with its error.
    out = []
    for block in blocks:
        try:
            out.append((block, run(block)))
        except Exception as exc:
            out.append((block, exc))
            break
    return out


def _run_workers(run, n_blocks, n_workers):
    # The caller runs block 0 and times it, then keeps the largest worker
    # count, at most n_workers, that gives each worker at least FORK_COST_S
    # of the remaining blocks at that rate.  Worker k runs blocks k, k +
    # n_workers, ... in order; the caller is worker 0, forks the others and
    # runs the blocks of any fork that fails.  Every pipe is read before its
    # child is reaped, so no child waits on a full pipe, and on any exception
    # the children left are killed and reaped.
    start = time.perf_counter()
    first = _in_order(run, [0])
    block_s = time.perf_counter() - start
    if isinstance(first[0][1], Exception):  # nothing after the lowest failing block
        return first
    while n_workers > 1 and (n_blocks - 1) * block_s < n_workers * FORK_COST_S:
        n_workers -= 1
    own, children = set(range(1, n_blocks)), {}
    try:
        for k in range(1, n_workers):
            blocks = range(k, n_blocks, n_workers)
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                for fd in (r, w):
                    os.close(fd)
                break
            if pid == 0:  # the child never returns into the caller's code
                try:
                    with os.fdopen(w, "wb") as pipe:
                        pickle.dump(_in_order(run, blocks), pipe)
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(w)
            children[pid] = os.fdopen(r, "rb")
            own.difference_update(blocks)
        pairs = first + _in_order(run, sorted(own))
        for pid, data in [(pid, pipe.read()) for pid, pipe in children.items()]:
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            children.pop(pid).close()
            if status != 0:
                raise RuntimeError(f"Monte Carlo worker {pid} sent no results "
                                   f"(exit status {status})")
            pairs += pickle.loads(data)
    finally:
        for pid, pipe in children.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return sorted(pairs, key=lambda pair: pair[0])


def estimate(f, cfg, grid):
    """Monte Carlo expectations of a batch integrand over channel draws.

    ``f`` maps a ChannelBatch of size m to an array of per-sample values,
    shape (k, m) for k components evaluated jointly; an (m,) result is one
    row.  ``grid`` is a sequence of CsitConfigs, and the result a list
    of McEstimates, one per config, each of (k,) arrays.  Block keys do not depend on the config,
    so each block's uniforms are drawn once for the whole grid; ``f`` sees one
    batch per config, all sharing them, and ``batch.csit`` names it.  Each
    estimate is bitwise identical to that config's own one-element grid, and
    to itself for any ``n_workers``; the blocks run in at most min(n_workers,
    blocks, usable CPUs) processes, the caller and its forks, each fork taking
    at least ``FORK_COST_S`` of block work at block 0's rate, or in the caller
    alone where there is no ``os.fork`` or another Python thread, which a fork
    would not copy.  The lowest failing block's error is raised.
    """
    grid = list(grid)
    n = cfg.n_samples
    n_blocks = math.ceil(n / BLOCK_SIZE)
    n_workers = min(cfg.n_workers, n_blocks, usable_cpus())
    if threading.active_count() > 1 or not hasattr(os, "fork"):
        n_workers = 1
    pairs = _run_workers(lambda b: _run_block(f, cfg, grid, b), n_blocks, n_workers)
    for _, sums in pairs:
        if isinstance(sums, Exception):
            raise sums
    return [_reduce([sums[i] for _, sums in pairs], n) for i in range(len(grid))]
