import math

import numpy as np
import pytest

from misodof.channel import CsitConfig
from misodof.mc import (
    BLOCK_SIZE,
    McConfig,
    NonFiniteSampleError,
    estimate,
    per_sample,
)

CFG = CsitConfig.from_sigma_sq(100.0, 0.25)


def test_constant_integrand():
    est = estimate(lambda batch: np.full(batch.n, 3.5), McConfig(10_000, 1), CFG)
    assert est.mean == 3.5
    assert est.std_error == 0.0
    assert est.n == 10_000


def test_channel_norm_mean_is_antenna_count():
    def f(batch):
        return np.sum(np.abs(batch.h) ** 2, axis=1)

    est = estimate(f, McConfig(1_000_000, 2), CFG)
    assert abs(est.mean - 2.0) < 5 * est.std_error


def test_worker_invariance_bitwise():
    def f(batch):
        return np.log2(1.0 + np.sum(np.abs(batch.h) ** 2, axis=1))

    results = [estimate(f, McConfig(50_000, 3, n_workers=w), CFG) for w in (1, 2, 8)]
    assert results[0].mean == results[1].mean == results[2].mean
    assert results[0].std_error == results[1].std_error == results[2].std_error


def test_repeatable_across_runs():
    def f(batch):
        return np.sum(np.abs(batch.g) ** 2, axis=1)

    a = estimate(f, McConfig(30_000, 4), CFG)
    b = estimate(f, McConfig(30_000, 4), CFG)
    assert a.mean == b.mean


def test_seed_changes_result():
    def f(batch):
        return np.sum(np.abs(batch.g) ** 2, axis=1)

    a = estimate(f, McConfig(30_000, 4), CFG)
    b = estimate(f, McConfig(30_000, 5), CFG)
    assert a.mean != b.mean


def test_std_error_scaling():
    def f(batch):
        return np.log2(1.0 + np.sum(np.abs(batch.h) ** 2, axis=1))

    small = estimate(f, McConfig(100_000, 6), CFG)
    large = estimate(f, McConfig(200_000, 6), CFG)
    ratio = large.std_error / small.std_error
    assert abs(ratio - 1.0 / math.sqrt(2.0)) < 0.2 / math.sqrt(2.0)


def test_vector_integrand():
    def f(batch):
        mags = np.abs(batch.h) ** 2
        return np.stack([mags[:, 0], mags[:, 1]], axis=1)

    est = estimate(f, McConfig(200_000, 7), CFG)
    assert est.mean.shape == (2,)
    assert np.all(np.abs(est.mean - 1.0) < 5 * est.std_error)


def test_non_finite_value_reports_index():
    def f(batch):
        vals = np.ones(batch.n)
        if batch.n > 3:
            vals[3] = np.nan
        return vals

    with pytest.raises(NonFiniteSampleError) as err:
        estimate(f, McConfig(10_000, 8), CFG)
    assert err.value.index == 3


def test_non_finite_reports_first_bad_column():
    def f(batch):
        vals = np.ones((batch.n, 3))
        vals[6, 0] = vals[4, 2] = vals[4, 1] = np.inf
        return vals

    with pytest.raises(NonFiniteSampleError) as err:
        estimate(f, McConfig(100, 8), CFG)
    assert (err.value.index, err.value.column) == (4, 1)


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
        estimate(f, McConfig(BLOCK_SIZE * 2, 9), CFG)
    assert err.value.index == target


def test_per_sample_adapter_matches_batch():
    def scalar(sample):
        return float(np.sum(np.abs(sample.h) ** 2))

    def batched(batch):
        return np.sum(np.abs(batch.h) ** 2, axis=1)

    a = estimate(per_sample(scalar), McConfig(2_000, 10), CFG)
    b = estimate(batched, McConfig(2_000, 10), CFG)
    assert abs(a.mean - b.mean) < 1e-12


def test_bad_config_rejected():
    with pytest.raises(ValueError):
        McConfig(0, 1)
    with pytest.raises(ValueError):
        McConfig(10, -1)
    with pytest.raises(ValueError):
        McConfig(10, 1, n_workers=0)
