import errno
import math
import os
import pickle
import re
import signal
import threading
import time

import numpy as np
import pytest

from misodof import mc
from misodof.channel import CsitConfig
from misodof.mc import (
    BLOCK_SIZE,
    McConfig,
    NonFiniteSampleError,
    estimate,
)
from reference import vectors

CFG = CsitConfig.from_sigma_sq(100.0, 0.25)
CFG2 = CsitConfig.from_sigma_sq(1000.0, 0.5)


def test_constant_integrand():
    [est] = estimate(lambda batch: np.full(batch.n, 3.5), McConfig(10_000, 1), [CFG])
    assert est.mean == 3.5
    assert est.std_error == 0.0
    assert est.n == 10_000


def test_channel_norm_mean_is_antenna_count():
    def f(batch):
        return np.sum(np.abs(vectors(batch).h) ** 2, axis=1)

    [est] = estimate(f, McConfig(1_000_000, 2), [CFG])
    assert abs(est.mean - 2.0) < 5 * est.std_error


def test_worker_invariance_bitwise():
    def f(batch):
        return np.log2(1.0 + np.sum(np.abs(vectors(batch).h) ** 2, axis=1))

    results = [estimate(f, McConfig(50_000, 3, n_workers=w), [CFG])[0] for w in (1, 2, 8)]
    assert results[0].mean == results[1].mean == results[2].mean
    assert results[0].std_error == results[1].std_error == results[2].std_error


def test_repeatable_across_runs():
    def f(batch):
        return np.sum(np.abs(vectors(batch).g) ** 2, axis=1)

    [a] = estimate(f, McConfig(30_000, 4), [CFG])
    [b] = estimate(f, McConfig(30_000, 4), [CFG])
    assert a.mean == b.mean


def test_seed_changes_result():
    def f(batch):
        return np.sum(np.abs(vectors(batch).g) ** 2, axis=1)

    [a] = estimate(f, McConfig(30_000, 4), [CFG])
    [b] = estimate(f, McConfig(30_000, 5), [CFG])
    assert a.mean != b.mean


def test_std_error_scaling():
    def f(batch):
        return np.log2(1.0 + np.sum(np.abs(vectors(batch).h) ** 2, axis=1))

    [small] = estimate(f, McConfig(100_000, 6), [CFG])
    [large] = estimate(f, McConfig(200_000, 6), [CFG])
    ratio = large.std_error / small.std_error
    assert abs(ratio - 1.0 / math.sqrt(2.0)) < 0.2 / math.sqrt(2.0)


def test_vector_integrand():
    # each user's power per antenna: the sampler puts h_hat along antenna 1,
    # so a single entry's power is not 1 on average
    def f(batch):
        v = vectors(batch)
        return np.stack([np.sum(np.abs(x) ** 2, axis=1) / 2.0 for x in (v.h, v.g)])

    [est] = estimate(f, McConfig(200_000, 7), [CFG])
    assert est.mean.shape == (2,)
    assert np.all(np.abs(est.mean - 1.0) < 5 * est.std_error)


def test_non_finite_value_reports_index():
    def f(batch):
        vals = np.ones(batch.n)
        if batch.n > 3:
            vals[3] = np.nan
        return vals

    with pytest.raises(NonFiniteSampleError) as err:
        estimate(f, McConfig(10_000, 8), [CFG])
    assert err.value.index == 3


def test_non_finite_reports_first_bad_column():
    def f(batch):
        vals = np.ones((3, batch.n))
        vals[0, 6] = vals[2, 4] = vals[1, 4] = np.inf
        return vals

    with pytest.raises(NonFiniteSampleError) as err:
        estimate(f, McConfig(100, 8), [CFG])
    assert (err.value.index, err.value.column) == (4, 1)


def test_non_finite_found_through_column_sums():
    # Values are searched only where a row's sum is non-finite.  +inf and
    # -inf in one row sum to NaN and still name the first bad sample;
    # finite values whose row sum overflows are not an error.
    def f(batch):
        vals = np.ones((3, batch.n))
        vals[1, 9], vals[1, 2] = np.inf, -np.inf
        return vals

    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteSampleError) as err:
            estimate(f, McConfig(100, 8), [CFG])
        [est] = estimate(lambda batch: np.full((2, batch.n), 1e308), McConfig(100, 8), [CFG])
    assert (err.value.index, err.value.column) == (2, 1)
    assert np.all(est.mean == np.inf)


def test_non_finite_names_its_config():
    other = CsitConfig.from_sigma_sq(1000.0, 0.25)

    def f(batch):
        vals = np.ones(batch.n)
        vals[5] = np.nan if batch.csit == other else 1.0
        return vals

    with pytest.raises(NonFiniteSampleError) as err:
        estimate(f, McConfig(BLOCK_SIZE + 10, 8), [CFG, other, CFG])
    assert (err.value.index, err.value.config_index) == (5, 1)


def test_grid_estimates_equal_per_config_estimates():
    grid = [CsitConfig.from_sigma_sq(p, 0.25) for p in (10.0, 100.0, 1e4)]

    def f(batch):
        return np.log2(1.0 + batch.csit.snr_p * np.sum(np.abs(vectors(batch).h) ** 2, axis=1))

    for workers in (1, 2):
        cfg = McConfig(2 * BLOCK_SIZE + 5, 10, n_workers=workers)
        assert estimate(f, cfg, grid) == [estimate(f, cfg, [c])[0] for c in grid]


def test_non_finite_in_later_block():
    target = BLOCK_SIZE + 17
    seen = {"block": -1}

    def f(batch):
        seen["block"] += 1
        vals = np.ones(batch.n)
        if seen["block"] == 1:
            vals[17] = np.nan
        return vals

    with pytest.raises(NonFiniteSampleError) as err:
        estimate(f, McConfig(BLOCK_SIZE * 2, 9), [CFG])
    assert err.value.index == target


def test_block_rng_is_a_pure_function_of_seed_and_block():
    # Each (seed, block) pair keys its own stream: the same pair draws the
    # same numbers again, distinct pairs draw distinct ones, and the largest
    # seed McConfig accepts is a valid key.
    top = 2 ** 64 - 1
    keys = [(0, 0), (0, 1), (1, 0), (5, 2), (top, 0), (top, 1), (top, 2 ** 32)]
    draws = {key: mc.block_rng(*key).random(4) for key in keys}
    assert all(np.array_equal(mc.block_rng(*key).random(4), v) for key, v in draws.items())
    assert len({v.tobytes() for v in draws.values()}) == len(keys)
    [est] = estimate(lambda batch: np.abs(vectors(batch).h[:, 0]) ** 2,
                     McConfig(BLOCK_SIZE + 5, top), [CFG])
    assert np.isfinite(est.mean).all()


def test_bad_config_rejected():
    with pytest.raises(ValueError):
        McConfig(0, 1)
    with pytest.raises(ValueError, match="n_samples must be at least 2, got 1"):
        McConfig(1, 1)  # one sample has no standard error
    with pytest.raises(ValueError):
        McConfig(10, -1)
    with pytest.raises(ValueError):
        McConfig(10, 1, n_workers=0)


@pytest.mark.parametrize("args, message", [
    ((1e4, 0), "n_samples must be an integer, got 10000.0"),
    ((10, 1.5), "seed must be an integer, got 1.5"),
    ((10, 1, 2.0), "n_workers must be an integer, got 2.0"),
], ids=["n_samples", "seed", "n_workers"])
def test_non_integer_config_rejected(args, message):
    # rejected with the field's name first, so the CLI can name the option,
    # before numpy or a forked worker sees the value
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        McConfig(*args)


@pytest.mark.parametrize("workers, cpus, blocks, processes", [
    (100_000, 3, 5, 3), (100_000, 64, 2, 2), (2, 64, 5, 2), (1, 64, 5, None), (4, 1, 5, None),
])
def test_pool_size_is_bounded(monkeypatch, workers, cpus, blocks, processes):
    # min(workers, blocks, usable CPUs) processes run the blocks: the caller
    # forks one fewer children, and none when that bound is one.
    forks = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(mc, "usable_cpus", lambda: cpus)
    cfg = McConfig((blocks - 1) * BLOCK_SIZE + 1, 12, n_workers=workers)
    assert estimate(lambda batch: np.ones(batch.n), cfg, [CFG])[0].mean == 1.0
    assert len(forks) == (0 if processes is None else processes - 1)


def _spread_values(batch, width):
    # Reproducible values per block size, rows on scales 1e-3..1e3.
    rng = np.random.default_rng(batch.n)
    shape = (batch.n,) if width is None else (width, batch.n)
    return rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 3, size=shape[:-1] + (1,))


@pytest.mark.parametrize("width", [1, 2, 6, 20])
def test_block_sums_bitwise(width):
    # Every integrand result is read as (k, m) rows and reduced by the
    # same two einsum calls, whatever k; a 1-D result is one row and
    # reduces bitwise like its one-row form.  Block 1 is a short last
    # block.
    cfg = McConfig(BLOCK_SIZE + 777, 11)
    for block, size in ((0, BLOCK_SIZE), (1, 777)):
        vals = _spread_values(type("Batch", (), {"n": size}), width)
        expected = (np.einsum("ij->i", vals).tobytes(),
                    np.einsum("ij,ij->i", vals, vals).tobytes())
        for shape in [width] if width > 1 else [1, None]:
            [(total, total_sq)] = mc._run_block(lambda b: _spread_values(b, shape), cfg, [CFG],
                                                block)
            assert total.shape == total_sq.shape == (width,)
            assert (total.tobytes(), total_sq.tobytes()) == expected


@pytest.mark.parametrize("bad, raised, ran", [
    ({1}, 1, {0, 1, 2}), ({1, 2}, 1, {0, 1, 2}), ({2, 3}, 2, {0, 1, 2, 3}), ({0, 3}, 0, {0, 1, 3}),
])
def test_lowest_failing_block_raises_from_any_process(monkeypatch, tmp_path, bad, raised, ran):
    # On 2 workers the caller runs blocks 0 and 2, its child 1 and 3.  Each
    # process stops at its first failing block, and the caller raises the
    # lowest failing block's error with its attributes, whichever process
    # ran it.  Blocks log themselves to a file, from either process.
    log = tmp_path / "blocks.log"
    real = mc._run_block

    def run_block(f, cfg, grid, block):
        def nan_in_bad_blocks(batch):  # at sample 17 of config 1's second row
            vals = np.ones((2, batch.n))
            if block in bad and batch.csit is grid[1]:
                vals[1, 17] = np.nan
            return vals

        with open(log, "a") as out:
            out.write(f"{block}\n")
        return real(nan_in_bad_blocks, cfg, grid, block)

    monkeypatch.setattr(mc, "_run_block", run_block)
    with pytest.raises(NonFiniteSampleError) as err:
        estimate(lambda batch: None, McConfig(4 * BLOCK_SIZE, 5, n_workers=2), [CFG, CFG2])
    assert (err.value.index, err.value.column, err.value.config_index) == (
        raised * BLOCK_SIZE + 17, 1, 1)
    assert {int(b) for b in log.read_text().split()} == ran
    copy = pickle.loads(pickle.dumps(err.value))
    assert (copy.index, copy.column, copy.config_index) == (err.value.index, 1, 1)
    assert str(copy) == str(err.value)


def test_killed_worker_raises_with_its_pid(monkeypatch):
    # A child that ends without sending its blocks' sums is an error naming
    # it, never a silent estimate over fewer blocks.
    caller, forks = os.getpid(), []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        forks.append(pid)
        return pid

    def f(batch):
        if os.getpid() != caller:
            os.kill(os.getpid(), signal.SIGKILL)
        return np.ones(batch.n)

    monkeypatch.setattr(os, "fork", fork)
    with pytest.raises(RuntimeError) as err:
        estimate(f, McConfig(3 * BLOCK_SIZE, 5, n_workers=2), [CFG])
    [child] = forks
    assert f"worker {child} " in str(err.value)
    assert f"exit status {-signal.SIGKILL}" in str(err.value)


@pytest.mark.parametrize("forked", [0, 1, 2])
def test_failed_fork_runs_the_blocks_in_the_caller(monkeypatch, forked):
    # Workers 4 over 7 blocks; the fork after ``forked`` children raises, and
    # the caller runs every block that no child took, bitwise as 1 worker.
    attempts = []
    real_fork = os.fork

    def fork():
        attempts.append(1)
        if len(attempts) > forked:
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
        return real_fork()

    def f(batch):
        return np.log2(1.0 + np.abs(vectors(batch).h[:, 0]) ** 2)

    expected = estimate(f, McConfig(7 * BLOCK_SIZE - 3, 4), [CFG, CFG2])
    monkeypatch.setattr(os, "fork", fork)
    got = estimate(f, McConfig(7 * BLOCK_SIZE - 3, 4, n_workers=4), [CFG, CFG2])
    assert len(attempts) == forked + 1
    for a, b in zip(got, expected):
        assert a.mean.tobytes() == b.mean.tobytes()
        assert a.std_error.tobytes() == b.std_error.tobytes()


def test_platform_without_fork_runs_the_blocks_in_the_caller(monkeypatch):
    def f(batch):
        return np.abs(vectors(batch).h[:, 0]) ** 2

    [expected] = estimate(f, McConfig(3 * BLOCK_SIZE, 6), [CFG])
    monkeypatch.delattr(os, "fork")
    [got] = estimate(f, McConfig(3 * BLOCK_SIZE, 6, n_workers=3), [CFG])
    assert got.mean.tobytes() == expected.mean.tobytes()


def test_threaded_caller_runs_blocks_in_its_own_thread(monkeypatch):
    # A forked child would hold only the forking thread, so a caller that
    # shares its process with another Python thread runs every block itself.
    threads = set()

    def f(batch):
        threads.add(threading.get_ident())
        return np.abs(vectors(batch).h[:, 0]) ** 2

    [expected] = estimate(f, McConfig(3 * BLOCK_SIZE, 6), [CFG])
    threads.clear()
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked beside another thread"))
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        [got] = estimate(f, McConfig(3 * BLOCK_SIZE, 6, n_workers=3), [CFG])
    finally:
        release.set()
        other.join(timeout=10)
    assert not other.is_alive()
    assert threads == {threading.get_ident()}
    assert got.mean.tobytes() == expected.mean.tobytes()


def test_interrupted_caller_kills_its_children(monkeypatch):
    # A KeyboardInterrupt in the caller's own block kills and reaps the
    # children at once, however long their blocks would take; the conftest
    # guard checks that none is left.
    caller = os.getpid()

    def f(batch):
        if os.getpid() != caller:
            time.sleep(60)
        raise KeyboardInterrupt

    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        estimate(f, McConfig(2 * BLOCK_SIZE, 7, n_workers=2), [CFG])
    assert time.monotonic() - start < 30
