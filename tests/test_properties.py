"""Hypothesis property tests: grouped estimates, the alpha <-> sigma^2 map and
the DoF regions."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from misodof.channel import CsitConfig
from misodof.mc import BLOCK_SIZE, McConfig
from misodof.rates import rate_scheme
from misodof.regions import (
    Scheme,
    region_common_message,
    region_imperfect_delayed,
    region_main,
)

UNIT = st.floats(0.0, 1.0)
DOF = st.floats(0.0, 1.2)  # a DoF coordinate, inside or just outside every region
# the same examples on every run, and no example database left behind
FIXED = settings(derandomize=True, database=None, deadline=None)


@settings(FIXED, max_examples=20)
@given(schemes=st.permutations(list(Scheme)).flatmap(
           lambda order: st.integers(1, len(order)).map(lambda k: tuple(order[:k]))),
       alpha=UNIT,
       snr_db=st.floats(5.0, 80.0),
       samples=st.integers(1, 2 * BLOCK_SIZE + 100).filter(lambda n: n % BLOCK_SIZE),
       workers=st.sampled_from([1, 2]))
@example(schemes=tuple(Scheme), alpha=0.0, snr_db=30.0, samples=BLOCK_SIZE + 1, workers=2)
@example(schemes=tuple(reversed(Scheme)), alpha=1.0, snr_db=30.0, samples=BLOCK_SIZE + 1,
         workers=1)
def test_group_equals_each_scheme_alone(schemes, alpha, snr_db, samples, workers):
    # Whatever the schemes, their order and the CSIT quality, a group's
    # shared memo gives each scheme exactly its own result.
    cfg = CsitConfig.from_alpha(10.0 ** (snr_db / 10.0), alpha)
    mc_cfg = McConfig(samples, 31, workers)
    assert rate_scheme(schemes, cfg, mc_cfg) == tuple(rate_scheme(s, cfg, mc_cfg)
                                                      for s in schemes)


@FIXED
@given(snr_db=st.floats(0.5, 300.0), alpha=UNIT)
@example(snr_db=30.0, alpha=0.0)
@example(snr_db=30.0, alpha=1.0)
def test_alpha_to_sigma_sq_round_trip(snr_db, alpha):
    p = 10.0 ** (snr_db / 10.0)
    cfg = CsitConfig.from_alpha(p, alpha)
    back = CsitConfig.from_sigma_sq(p, cfg.sigma_sq)
    assert back.sigma_sq == cfg.sigma_sq
    assert back.alpha == pytest.approx(alpha, abs=1e-12 / math.log10(p))
    assert (back.sigma_hat_sq, back.alpha_hat) == (cfg.sigma_hat_sq, cfg.alpha_hat)


@FIXED
@given(snr_db=st.floats(0.5, 300.0), u=UNIT)
def test_sigma_sq_to_alpha_round_trip(snr_db, u):
    # sigma^2 anywhere in [1/P, 1], where alpha is not clipped at 1
    p = 10.0 ** (snr_db / 10.0)
    sigma_sq = p ** -u
    cfg = CsitConfig.from_sigma_sq(p, sigma_sq)
    back = CsitConfig.from_alpha(p, cfg.alpha)
    assert back.sigma_sq == pytest.approx(sigma_sq, rel=1e-12)
    assert back.alpha == cfg.alpha


def _regions(alpha, beta):
    return region_main(alpha), region_imperfect_delayed(alpha, beta)


@FIXED
@given(alpha=UNIT, beta=UNIT, d1=DOF, d2=DOF)
@example(alpha=0.5, beta=0.5, d1=1.0, d2=0.5)
def test_regions_symmetric_under_user_swap(alpha, beta, d1, d2):
    for region in _regions(alpha, beta):
        assert region.contains((d1, d2)) == region.contains((d2, d1))


@FIXED
@given(alphas=st.lists(UNIT, min_size=2, max_size=2).map(sorted),
       betas=st.lists(UNIT, min_size=2, max_size=2).map(sorted))
@example(alphas=[0.0, 1.0], betas=[0.0, 1.0])
def test_regions_grow_with_alpha_and_beta(alphas, betas):
    # every vertex of a region lies in the region of better CSIT, current or delayed
    (a1, a2), (b1, b2) = alphas, betas
    for small, large in ((region_main(a1), region_main(a2)),
                         (region_imperfect_delayed(a1, b1), region_imperfect_delayed(a2, b1)),
                         (region_imperfect_delayed(a1, b1), region_imperfect_delayed(a1, b2))):
        assert all(large.contains(v) for v in small.vertices)


@FIXED
@given(alpha=UNIT, d1=DOF, d2=DOF)
def test_common_message_region_without_common_dof_is_main_region(alpha, d1, d2):
    assert region_common_message(alpha).contains((0.0, d1, d2)) == \
        region_main(alpha).contains((d1, d2))
