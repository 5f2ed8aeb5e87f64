import math

import numpy as np
import pytest
from scipy import stats

from misodof import oracles
from misodof.channel import CsitConfig, sample_batch
from misodof.mc import McConfig, block_rng, estimate
from misodof.oracles import (
    conditional_log_bounds_check,
    exp_log_mean,
    exp_log_mean_monte_carlo,
    mean_log2_quadratic,
    rotation_mean_log_closed_form,
    rotation_mean_log_quadrature,
)
from reference import vectors

# Exact value of the exponential-log constant: -EulerGamma / ln 2.
GAMMA_EXACT = -0.832746177276867


class TestRotationIdentity:
    def test_closed_form_values(self):
        assert rotation_mean_log_closed_form(2.0, 1.0) == pytest.approx(2.0)
        assert rotation_mean_log_closed_form(3.0, 3.0) == pytest.approx(math.log2(9.0))
        assert rotation_mean_log_closed_form(0.0, 5.0) == pytest.approx(math.log2(25.0))

    def test_closed_form_domain(self):
        with pytest.raises(ValueError):
            rotation_mean_log_closed_form(0.0, 0.0)
        with pytest.raises(ValueError):
            rotation_mean_log_closed_form(-1.0, 2.0)

    def test_quadrature_reference_pairs(self, monkeypatch):
        monkeypatch.setattr(oracles, "_TOLERANCE", 1e-9)
        vals = rotation_mean_log_quadrature([2.0, 0.3], [1.0, 7.0])
        assert vals == pytest.approx([2.0, math.log2(49.0)], abs=1e-9)

    def test_quadrature_singular_case(self):
        val = rotation_mean_log_quadrature(1.0, 1.0)
        assert abs(val) < 1e-6

    def test_quadrature_random_pairs(self):
        pairs = np.random.default_rng(31).uniform(0.05, 10.0, size=(100, 2))
        vals = rotation_mean_log_quadrature(pairs[:, 0], pairs[:, 1])
        exact = [rotation_mean_log_closed_form(a, b) for a, b in pairs]
        assert np.max(np.abs(vals - exact)) < 1e-6


def _batch_pairs():
    # the oracles command's 1000 pairs at seed 0, then a == b and a ratio of 1e-3
    rng = block_rng(0, 0)
    extra = [(1.0, 1.0), (3.7, 3.7), (0.01, 10.0), (10.0, 0.01), (0.0, 2.0)]
    return np.vstack([rng.uniform(0.05, 10.0, size=(1000, 2)), extra])


def _rotation_reference(a, b):
    # the midpoint rule one pair at a time, summed in chunks of _CHUNK nodes;
    # NaN where the panel budget runs out
    n, prev = 64, None
    while n <= oracles._MAX_PANELS:
        total = 0.0
        for lo in range(0, n, oracles._CHUNK):
            t = (np.arange(lo, min(lo + oracles._CHUNK, n), dtype=float) + 0.5) / n
            arg = (a * a + b * b) + (2.0 * a * b) * np.cos(2.0 * math.pi * t)
            total += float(np.sum(np.log2(np.maximum(arg, 1e-300))))
        val = total / n
        if prev is not None and abs(val - prev) <= 0.5 * oracles._TOLERANCE:
            return val
        prev, n = val, 2 * n
    return math.nan


class TestBatchedRotation:
    @pytest.mark.parametrize("max_panels, tolerance", [
        (1 << 24, 1e-6),
        (1 << 20, 1e-7),
        (128, 1e-6),
    ], ids=["default", "strict", "starved"])
    def test_array_call_bitwise_equals_scalar_calls(self, max_panels, tolerance, monkeypatch):
        # each entry, NaN included, is that of the pair's own one-pair call
        monkeypatch.setattr(oracles, "_MAX_PANELS", max_panels)
        monkeypatch.setattr(oracles, "_TOLERANCE", tolerance)
        pairs = _batch_pairs()
        batched = rotation_mean_log_quadrature(pairs[:, 0], pairs[:, 1])
        scalar = np.array([rotation_mean_log_quadrature(a, b) for a, b in pairs])
        assert batched.shape == (len(pairs),)
        assert np.array_equal(batched, scalar, equal_nan=True)
        some = np.r_[0:40, len(pairs) - 5:len(pairs)]
        reference = [_rotation_reference(a, b) for a, b in pairs[some]]
        assert np.array_equal(batched[some], reference, equal_nan=True)
        if max_panels == 128:
            # the budget splits the pairs: some converge, some run out
            assert 0 < np.isnan(batched).sum() < len(pairs)

    def test_broadcast_shape_and_domain(self):
        vals = rotation_mean_log_quadrature(np.array([[1.0], [2.0]]), np.array([0.5, 3.0]))
        assert vals.shape == (2, 2)
        assert rotation_mean_log_quadrature(2.0, 1.0).shape == ()  # an array, never a float
        assert vals[1, 0] == pytest.approx(2.0, abs=1e-6)
        with pytest.raises(ValueError):
            rotation_mean_log_quadrature(np.array([1.0, -1.0]), 2.0)
        with pytest.raises(ValueError):
            rotation_mean_log_quadrature(np.array([1.0, 0.0]), np.array([1.0, 0.0]))

    def test_integrand_calls_stay_within_chunk(self, monkeypatch):
        # every call holds at most _CHUNK values, however many rows and panels;
        # rows 0-2 (t^-1/2, slow to converge) refine up to the 2^18-panel budget
        sizes = []

        def fn(t, rows):
            sizes.append(len(rows) * len(t))
            return np.where(rows[:, None] < 3, t ** -0.5, 1.0)

        monkeypatch.setattr(oracles, "_MAX_PANELS", 1 << 18)
        vals = oracles._midpoint_dyadic(fn, 3000)
        assert np.isnan(vals[:3]).all() and np.array_equal(vals[3:], np.ones(2997))
        assert max(sizes) == oracles._CHUNK


class TestExpLogConstant:
    def test_quadrature_value(self):
        # the constant is exact; criterion 7 checks it against the integral
        assert exp_log_mean() == -np.euler_gamma / math.log(2.0)
        assert exp_log_mean() == pytest.approx(GAMMA_EXACT, abs=1e-15)

    def test_matches_monte_carlo(self):
        est = exp_log_mean_monte_carlo(McConfig(1_000_000, 32))
        assert est.n == 125_000
        assert abs(exp_log_mean() - est.mean) < 5.0 * est.std_error

    def test_log_scaling(self):
        # E log2(|2 X|^2 / s^2) = gamma + 2 for X with per-entry variance s^2
        cfg = CsitConfig.from_sigma_sq(100.0, 0.25)

        def f(batch):
            scaled = 2.0 * vectors(batch).g_tilde[:, 0]
            mag_sq = scaled.real ** 2 + scaled.imag ** 2
            return np.log2(mag_sq / cfg.sigma_sq)

        [est] = estimate(f, McConfig(1_000_000, 33), [cfg])
        assert abs(est.mean - (GAMMA_EXACT + 2.0)) < 5.0 * est.std_error

    @pytest.mark.parametrize("cfg", [oracles._EXP_LOG_CSIT, CsitConfig.from_sigma_sq(1000.0, 0.1)],
                             ids=["exp_log_csit", "sigma_sq_0.1"])
    def test_integrand_matches_explicit_vectors(self, cfg):
        # The integrand reads the canonical frame; its explicit-vector form,
        # each entry's |x|^2 over its variance and h_hat's two through their
        # sum, gives the same bits.
        [batch] = sample_batch(block_rng(42, 0), [cfg], 4096)
        v, s2 = vectors(batch), cfg.sigma_sq

        def scaled_abs2(x, var):
            sq = x.real ** 2
            sq += x.imag ** 2
            sq /= var
            return sq

        want = 2.0 * (np.log2(scaled_abs2(v.h_hat, 1.0 - s2).sum(axis=1)) - 1.0 / math.log(2.0))
        for x, var in ((v.g_hat, 1.0 - s2), (v.h_tilde, s2), (v.g_tilde, s2)):
            sq = scaled_abs2(x, var)
            want += np.log2(sq, out=sq).sum(axis=1)
        assert np.array_equal(oracles._exp_log_integrand(batch), want / 8.0)


class TestConditionalLogBounds:
    def test_reference_configuration_passes(self):
        cfg = CsitConfig.from_sigma_sq(1000.0, 0.1)
        report = conditional_log_bounds_check(
            (cfg.snr_p, 0.0), cfg, McConfig(100_000, 34), n_batches=100,
            gamma=exp_log_mean())
        assert report.passed
        assert report.upper_margins.min() > 0.0
        assert report.lower_margins.min() > 0.0

    def test_no_csit_jensen_case(self):
        # sigma^2 = 1 zeroes the estimates, so the Jensen bound reads
        # E log2(1 + ||h||^2) <= log2(1 + 2)
        cfg = CsitConfig.from_sigma_sq(100.0, 1.0)
        report = conditional_log_bounds_check(
            (1.0, 1.0), cfg, McConfig(50_000, 35), n_batches=10, gamma=exp_log_mean())
        assert report.passed

        def f(batch):
            return np.log2(1.0 + np.sum(np.abs(vectors(batch).h) ** 2, axis=1))

        [est] = estimate(f, McConfig(200_000, 36), [cfg])
        assert est.mean < math.log2(3.0)

    def test_jensen_bound_tight_for_tiny_error(self):
        # with a near-deterministic channel the bound collapses onto the
        # estimate; only tightness is checkable (the true gap sits below
        # the Monte Carlo noise floor)
        cfg = CsitConfig.from_alpha(2.0 ** 40, 1.0)
        report = conditional_log_bounds_check(
            (100.0, 10.0), cfg, McConfig(20_000, 37), n_batches=20, gamma=exp_log_mean())
        assert np.max(np.abs(report.upper_margins)) < 1e-3
        assert report.lower_margins.min() > 0.0

    def test_exact_jensen_margin_nonnegative_for_tiny_error(self):
        # the Jensen gap is about Var(Q) / (2 ln2 (1 + E Q)^2), here 1e-13 to
        # 4e-12; its sign is resolvable only from an exact left side
        cfg = CsitConfig.from_alpha(2.0 ** 40, 1.0)
        report = conditional_log_bounds_check(
            (100.0, 10.0), cfg, McConfig(20_000, 37), n_batches=20, gamma=exp_log_mean())
        assert report.passed
        assert np.max(np.abs(report.upper_margins)) < 1e-9

    def test_given_gamma_is_used(self):
        cfg = CsitConfig.from_sigma_sq(1000.0, 0.1)
        k_eigs, mc_cfg = (cfg.snr_p, 0.0), McConfig(100, 39)
        given = conditional_log_bounds_check(k_eigs, cfg, mc_cfg, n_batches=10,
                                             gamma=exp_log_mean())
        # the lower bound's right side is gamma + log2(sigma^2 lambda1) here
        shifted = conditional_log_bounds_check(k_eigs, cfg, mc_cfg, n_batches=10,
                                               gamma=exp_log_mean() - 0.5)
        assert np.allclose(shifted.lower_margins, given.lower_margins + 0.5, atol=1e-12)
        assert np.array_equal(shifted.upper_margins, given.upper_margins)

    def test_reads_the_shared_sampler(self):
        # The estimate pairs are the rows of one sample_batch draw, keyed by
        # (seed, 2^32); the sample and worker counts do not enter.
        cfg = CsitConfig.from_sigma_sq(1000.0, 0.1)
        lam1, s2, n_batches = cfg.snr_p, cfg.sigma_sq, 30
        [batch] = sample_batch(block_rng(40, 2 ** 32), [cfg], n_batches)
        v = vectors(batch)
        h_hat_sq, g_hat_sq = np.abs(v.h_hat) ** 2, np.abs(v.g_hat) ** 2
        upper = (np.log2(1.0 + lam1 * np.sum(h_hat_sq, axis=1) + 2.0 * s2 * lam1)
                 - mean_log2_quadratic((lam1, lam1), h_hat_sq, s2))
        lower = (mean_log2_quadratic((lam1, 0.0), g_hat_sq, s2)
                 - max(exp_log_mean() + math.log2(s2 * lam1), 0.0))
        for mc_cfg in (McConfig(100, 40), McConfig(1_000_000, 40, n_workers=2)):
            report = conditional_log_bounds_check((lam1, 0.0), cfg, mc_cfg, n_batches=n_batches,
                                                  gamma=exp_log_mean())
            assert np.array_equal(report.upper_margins, upper)
            assert np.array_equal(report.lower_margins, lower)

    def test_eigenvalue_validation(self):
        cfg = CsitConfig.from_sigma_sq(100.0, 0.25)
        with pytest.raises(ValueError):
            conditional_log_bounds_check((0.0, 0.0), cfg, McConfig(100, 38),
                                         gamma=exp_log_mean())
        with pytest.raises(ValueError):
            conditional_log_bounds_check((1.0, 2.0), cfg, McConfig(100, 38),
                                         gamma=exp_log_mean())


class TestMeanLog2Quadratic:
    @pytest.mark.parametrize("sigma_sq", [1.0, 0.1, 1e-6])
    @pytest.mark.parametrize("lam", [1.0, 1e3])
    @pytest.mark.parametrize("df", [4, 2])
    def test_matches_noncentral_chi2(self, sigma_sq, lam, df):
        # 2 sum_i |x_i|^2 / sigma^2 is chi^2 with df = 2 * (number of weighted
        # entries) and noncentrality 2 sum_i |mu_i|^2 / sigma^2
        mean_sq = np.array([0.7, 1.3]) * (1.0 - sigma_sq)
        weights = (lam, lam) if df == 4 else (lam, 0.0)
        nc = 2.0 * (mean_sq.sum() if df == 4 else mean_sq[0]) / sigma_sq
        ref = stats.ncx2(df, nc).expect(
            lambda x: np.log2(1.0 + lam * sigma_sq / 2.0 * x), epsabs=1e-13, epsrel=1e-13)
        assert abs(mean_log2_quadratic(weights, mean_sq, sigma_sq) - ref) < 1e-10

    def test_matches_direct_draw_for_unequal_weights(self):
        rng = np.random.default_rng(41)
        sigma_sq, weights = 0.1, np.array([100.0, 10.0])
        mu = np.array([0.8 - 0.3j, -0.5 + 1.1j])
        n = 400_000
        x = mu + (rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))) \
            * math.sqrt(sigma_sq / 2.0)
        vals = np.log2(1.0 + (x.real ** 2 + x.imag ** 2) @ weights)
        got = mean_log2_quadratic(weights, np.abs(mu) ** 2, sigma_sq)
        assert abs(got - vals.mean()) < 5.0 * vals.std(ddof=1) / math.sqrt(n)

    @pytest.mark.parametrize("c", [0.0, 0.7])
    def test_scalar_mean_sq_broadcasts(self, c):
        weights = np.array([100.0, 10.0, 1.0])
        assert mean_log2_quadratic(weights, c, 0.1) == \
            mean_log2_quadratic(weights, np.full(3, c), 0.1)

    def test_stable_under_step_halving(self, monkeypatch):
        mean_sq = np.array([[0.0, 0.0], [0.3, 1.7], [2.5, 0.01]])
        cases = [((1e3, 1e3), 0.1), ((100.0, 10.0), 1e-6), ((1.0, 0.0), 1.0), ((1e3, 0.0), 0.1)]
        coarse = [mean_log2_quadratic(w, mean_sq, s2) for w, s2 in cases]
        monkeypatch.setattr(oracles, "_STEP", oracles._STEP / 2.0)
        fine = [mean_log2_quadratic(w, mean_sq, s2) for w, s2 in cases]
        assert coarse[0].shape == (3,)
        assert np.max(np.abs(np.array(coarse) - np.array(fine))) < 1e-12
