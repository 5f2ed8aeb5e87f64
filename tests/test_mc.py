import math

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

CFG = CsitConfig.from_sigma_sq(100.0, 0.25)


def test_constant_integrand():
    [est] = estimate(lambda batch: np.full(batch.n, 3.5), McConfig(10_000, 1), [CFG])
    assert est.mean == 3.5
    assert est.std_error == 0.0
    assert est.n == 10_000


def test_channel_norm_mean_is_antenna_count():
    def f(batch):
        return np.sum(np.abs(batch.h) ** 2, axis=1)

    [est] = estimate(f, McConfig(1_000_000, 2), [CFG])
    assert abs(est.mean - 2.0) < 5 * est.std_error


def test_worker_invariance_bitwise():
    def f(batch):
        return np.log2(1.0 + np.sum(np.abs(batch.h) ** 2, axis=1))

    results = [estimate(f, McConfig(50_000, 3, n_workers=w), [CFG])[0] for w in (1, 2, 8)]
    assert results[0].mean == results[1].mean == results[2].mean
    assert results[0].std_error == results[1].std_error == results[2].std_error


def test_repeatable_across_runs():
    def f(batch):
        return np.sum(np.abs(batch.g) ** 2, axis=1)

    [a] = estimate(f, McConfig(30_000, 4), [CFG])
    [b] = estimate(f, McConfig(30_000, 4), [CFG])
    assert a.mean == b.mean


def test_seed_changes_result():
    def f(batch):
        return np.sum(np.abs(batch.g) ** 2, axis=1)

    [a] = estimate(f, McConfig(30_000, 4), [CFG])
    [b] = estimate(f, McConfig(30_000, 5), [CFG])
    assert a.mean != b.mean


def test_std_error_scaling():
    def f(batch):
        return np.log2(1.0 + np.sum(np.abs(batch.h) ** 2, axis=1))

    [small] = estimate(f, McConfig(100_000, 6), [CFG])
    [large] = estimate(f, McConfig(200_000, 6), [CFG])
    ratio = large.std_error / small.std_error
    assert abs(ratio - 1.0 / math.sqrt(2.0)) < 0.2 / math.sqrt(2.0)


def test_vector_integrand():
    # each user's power per antenna: the sampler puts h_hat along antenna 1,
    # so a single entry's power is not 1 on average
    def f(batch):
        return np.stack([np.sum(np.abs(x) ** 2, axis=1) / 2.0 for x in (batch.h, batch.g)])

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
        return np.log2(1.0 + batch.csit.snr_p * np.sum(np.abs(batch.h) ** 2, axis=1))

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
    [est] = estimate(lambda batch: np.abs(batch.h[:, 0]) ** 2, McConfig(BLOCK_SIZE + 5, top), [CFG])
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


@pytest.mark.parametrize("workers, cpus, blocks, threads", [
    (100_000, 3, 5, 3), (100_000, 64, 2, 2), (2, 64, 5, 2), (1, 64, 5, None), (4, 1, 5, None),
])
def test_pool_size_is_bounded(monkeypatch, workers, cpus, blocks, threads):
    # The pool runs min(workers, blocks, usable CPUs) threads, and none below two.
    sizes = []

    class Pool(mc.ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(mc, "ThreadPoolExecutor", Pool)
    monkeypatch.setattr(mc, "usable_cpus", lambda: cpus)
    cfg = McConfig((blocks - 1) * BLOCK_SIZE + 1, 12, n_workers=workers)
    assert estimate(lambda batch: np.ones(batch.n), cfg, [CFG])[0].mean == 1.0
    assert sizes == ([] if threads is None else [threads])


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
