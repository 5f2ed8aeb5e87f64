"""Hypothesis property tests: grouped estimates, the alpha <-> sigma^2 map,
the default power policy, the DoF regions and the CLI's handling of numeric
input."""

import contextlib
import io
import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from misodof import cli
from misodof.channel import CsitConfig
from misodof.mc import BLOCK_SIZE, McConfig
from misodof.rates import _distortion, _power_split, quantization_rate, rate_scheme
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
       samples=st.integers(2, 2 * BLOCK_SIZE + 100).filter(lambda n: n % BLOCK_SIZE),
       workers=st.sampled_from([1, 2]))
@example(schemes=tuple(Scheme), alpha=0.0, snr_db=30.0, samples=BLOCK_SIZE + 1, workers=2)
@example(schemes=tuple(reversed(Scheme)), alpha=1.0, snr_db=30.0, samples=BLOCK_SIZE + 1,
         workers=1)
def test_group_equals_each_scheme_alone(schemes, alpha, snr_db, samples, workers):
    # Whatever the schemes, their order and the CSIT quality, a group's
    # shared memo gives each scheme exactly its own result.
    cfg = CsitConfig.from_alpha(10.0 ** (snr_db / 10.0), alpha)
    mc_cfg = McConfig(samples, 31, workers)
    assert rate_scheme(schemes, [cfg], mc_cfg) == [tuple(rate_scheme(s, [cfg], mc_cfg)[0]
                                                         for s in schemes)]


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
    assert _power_split(back) == pytest.approx(_power_split(cfg), rel=0.0, abs=1e-12 * p)


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


@FIXED
@given(snr_db=st.floats(0.5, 3082.5), alpha=UNIT,
       below=st.floats(2.0 ** -40, 1.0, exclude_max=True))
@example(snr_db=3082.5, alpha=0.0, below=0.5)
@example(snr_db=3082.5, alpha=1.0, below=0.5)
@example(snr_db=30.0, alpha=0.0, below=0.5)
@example(snr_db=30.0, alpha=1.0, below=0.5)
def test_default_policy_invariants(snr_db, alpha, below):
    # The closed-form policy spends within each phase's budget at every (P,
    # alpha) up to the largest finite P, is exact at both ends of the
    # bridge, and gives an error variance below the noise level the
    # perfect-CSIT policy.
    p = 10.0 ** (snr_db / 10.0)
    cfg = CsitConfig.from_alpha(p, alpha)
    _, p2, p_c, p_p = _power_split(cfg)
    d = _distortion(cfg)
    assert 0.0 <= p_p <= p and p_c >= 0.0 and 0.0 <= p2 <= p / 2.0
    assert d <= 1.0 and d * p >= 1.0 - 1e-15
    bits = (1.0 - alpha) * math.log2(p)
    assert abs(quantization_rate(d) - bits) <= 1e-15 * max(1.0, bits)
    if alpha == 1.0:
        assert (p_c, p2, p_p, d) == (0.0, 0.0, p, 1.0)
    if alpha == 0.0:
        assert (p_p, p_c, p2) == (0.0, p, p / 2.0)
    sigma_sq = below / p
    assume(Fraction(sigma_sq) * Fraction(p) < 1)  # rounding may lift it to 1/P
    perfect = CsitConfig.from_alpha(p, 1.0)
    below_noise = CsitConfig.from_sigma_sq(p, sigma_sq)
    assert (_power_split(below_noise), _distortion(below_noise)) == \
        (_power_split(perfect), _distortion(perfect))


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


@settings(FIXED, max_examples=200)
@given(start=st.floats(-400.0, 400.0), step=st.floats(1e-13, 100.0) | st.floats(1e-3, 10.0),
       steps=st.floats(0.0, 60.0) | st.integers(0, 60).map(float))
@example(start=10.0, step=1e-10, steps=0.0)
@example(start=40.0, step=1e-12, steps=0.0)
@example(start=40.0, step=0.1, steps=400.0)
def test_snr_grid_counts_whole_steps(start, step, steps):
    # Every rates grid rises strictly from round(start, 12), has
    # floor((stop - start) / step + 1e-9) + 1 points, and passes stop by no
    # more than rounding; or two of its points round to one value, and it
    # is a usage error.
    stop = start + steps * step
    text = f"{start!r}:{step!r}:{stop!r}"
    n = math.floor((stop - start) / step + 1e-9) + 1
    try:
        grid = cli._parse_snr_grid(text)
    except cli._Exit as exc:
        assert exc.code == 2 and "round alike" in str(exc)
        assert len(set(cli._grid(start, step, n))) < n
        return
    assert len(grid) == n and grid[0] == round(start, 12)
    assert all(a < b for a, b in zip(grid, grid[1:]))
    assert grid[-1] <= stop + 1e-9 * step + 1e-12 + 4.0 * math.ulp(400.0)


# SNRs in dB and exponents or variances, each valid about half the time; a
# step below 1e-3 dB may not move a large start, and at most 49 steps keep
# every grid within 50 points
SNR_DB = st.floats(0.5, 400.0) | st.floats(-400.0, 400.0) | st.sampled_from(
    [0.0, 1e-13, 1e9, math.nan, math.inf, -math.inf])
STEP_DB = st.floats(1e-3, 100.0) | st.floats(1e-300, 1e-3) | st.sampled_from(
    [0.0, -1.0, math.nan, math.inf])
ANY = st.floats(0.0, 2.0) | st.floats() | st.sampled_from(
    [0.0, 1.0, 2.0, math.nan, math.inf, -math.inf])


@st.composite
def _numeric_argv(draw):
    start, step = draw(SNR_DB), draw(STEP_DB)
    if draw(st.booleans()):
        stop = start + draw(st.integers(0, 49)) * step
        return ["rates", "--scheme", draw(st.sampled_from(["zf", "proposed", "all"])),
                draw(st.sampled_from(["--alpha", "--sigma-sq"])) + f"={draw(ANY)!r}",
                f"--snr-db={start!r}:{step!r}:{stop!r}"]
    return ["slopes", "--scheme", draw(st.sampled_from(["zf", "proposed"])),
            f"--alpha={draw(ANY)!r}", f"--snr-db-range={start!r}:{start + step!r}",
            f"--points={draw(st.integers(-2, 50))}"]


@settings(FIXED, max_examples=100)
@given(argv=_numeric_argv())
@example(argv=["rates", "--scheme", "all", "--alpha=2.0", "--snr-db=0:1:1"])
@example(argv=["slopes", "--scheme", "zf", "--alpha=0.5", "--snr-db-range=40:40.0000000000001",
               "--points=9"])
@example(argv=["slopes", "--scheme", "zf", "--alpha=0.5", "--snr-db-range=-1e308:1e308",
               "--points=9"])
@example(argv=["rates", "--scheme", "zf", "--alpha=0.5", "--snr-db=1e20:1:1e20"])
@example(argv=["slopes", "--scheme", "zf", "--alpha=0.5", "--snr-db-range=40:80",
               "--points=1000000000000000"])
@example(argv=["slopes", "--scheme", "zf", "--alpha=0.5", "--snr-db-range=3000:1e300",
               "--points=9"])
def test_cli_numeric_input_never_raises(argv, tmp_path_factory):
    # Any number gives a result, a usage error or a non-finite result, and a
    # usage error is one line: no traceback, and no warning ahead of it.
    out = tmp_path_factory.mktemp("fuzz") / "out"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(argv + ["--samples", "64", "--workers", "1", "--seed", "0",
                                "--out", str(out)])
    assert code in (0, 2, 3)
    if code == 2 and not err.getvalue().startswith("usage:"):
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
