"""Hypothesis property tests: grouped estimates and the alpha <-> sigma^2 map."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from misodof.channel import CsitConfig
from misodof.mc import BLOCK_SIZE, McConfig
from misodof.rates import rate_scheme
from misodof.regions import Scheme

UNIT = st.floats(0.0, 1.0)
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
