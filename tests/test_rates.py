import math

import numpy as np
import pytest
from numpy.random import Generator, Philox

from misodof.channel import CsitConfig, sample_batch, sample_channel
from misodof.mc import McConfig, estimate
from misodof.rates import (
    PowerPolicy,
    RateResult,
    _policy_components,
    default_phase2_policy,
    default_policy,
    interference_power,
    mimo_rate,
    quantization_rate,
    rate_baseline,
    rate_common_message,
    rate_proposed,
    rate_scheme,
)

# Frozen by a straight-line determinant evaluation done ahead of the
# implementation: h=(1,0), g=(0,1), Q_u=diag(4,1), Q_v=diag(1,4), D=0.5.
MIMO_FIXED_SAMPLE_RATE = 2.874469117916141


def _rng(seed=0):
    return Generator(Philox(key=np.array([seed, 0], dtype=np.uint64)))


def _fixed_sample():
    from misodof.channel import ChannelSample

    h = np.array([1.0 + 0j, 0.0 + 0j])
    g = np.array([0.0 + 0j, 1.0 + 0j])
    zero = np.zeros(2, dtype=complex)
    return ChannelSample(h=h, g=g, h_hat=h, g_hat=g, h_tilde=zero, g_tilde=zero)


def _manual_policy(q_u, q_v, d1=1.0, d2=1.0):
    zero = np.zeros((2, 2), dtype=complex)
    return PowerPolicy(q_u=q_u, q_v=q_v, q_c=zero, q_p1=zero, q_p2=zero,
                       p1=0.0, p2=0.0, p_c=0.0, p_p=0.0,
                       d1_tilde=d1, d2_tilde=d2)


class TestDefaultPolicy:
    def test_no_csit_split(self):
        cfg = CsitConfig.from_sigma_sq(1e4, 1.0)
        sample = sample_channel(_rng(1), cfg)
        pol = default_policy(cfg, sample)
        p = cfg.snr_p
        assert pol.p_p == 0.0
        assert pol.p_c == pytest.approx(p)
        assert pol.p1 == pytest.approx(p / 2.0)
        assert pol.p2 == pytest.approx(p / 2.0)
        # isotropic phase-1 covariances in the no-CSIT regime
        assert np.allclose(pol.q_u, (p / 4.0) * np.eye(2), rtol=1e-12)

    def test_perfect_csit_split(self):
        cfg = CsitConfig.from_sigma_sq(1e4, 1e-4)
        sample = sample_channel(_rng(2), cfg)
        pol = default_policy(cfg, sample)
        assert pol.p_p == pytest.approx(cfg.snr_p, rel=1e-9)
        assert pol.p_c == pytest.approx(0.0, abs=1e-6)
        assert pol.p2 == pytest.approx(0.0, abs=1e-9)
        assert pol.p1 == pytest.approx(cfg.snr_p, rel=1e-9)
        assert pol.d1_tilde == 1.0

    def test_traces_meet_power_budget_exactly(self):
        cfg = CsitConfig.from_alpha(10 ** 4.7, 0.3)
        batch = sample_batch(_rng(3), cfg, 512)
        pol = default_policy(cfg, batch)
        tr1 = np.real(np.trace(pol.q_u, axis1=-2, axis2=-1)
                      + np.trace(pol.q_v, axis1=-2, axis2=-1))
        tr2 = np.real(np.trace(pol.q_c) + np.trace(pol.q_p1, axis1=-2, axis2=-1)
                      + np.trace(pol.q_p2, axis1=-2, axis2=-1))
        assert np.max(np.abs(tr1 - cfg.snr_p)) < 1e-9 * cfg.snr_p
        assert np.max(np.abs(tr2 - cfg.snr_p)) < 1e-9 * cfg.snr_p
        pol_single = default_policy(cfg, batch.sample(0))
        pol_single.validate(cfg.snr_p)

    def test_distortion_clamped(self):
        cfg = CsitConfig.from_alpha(2.0 ** 10, 0.5)
        sample = sample_channel(_rng(4), cfg)
        pol = default_policy(cfg, sample)
        assert pol.d1_tilde == pytest.approx(2.0 ** -5)

    def test_validate_rejects_over_budget(self):
        cfg = CsitConfig.from_alpha(100.0, 0.5)
        sample = sample_channel(_rng(5), cfg)
        pol = default_policy(cfg, sample)
        with pytest.raises(ValueError):
            pol.validate(cfg.snr_p / 10.0)


class TestInterferencePower:
    def test_identity_covariance(self):
        h = np.array([1.0, 0.0], dtype=complex)
        assert interference_power(h, np.eye(2, dtype=complex)) == pytest.approx(1.0)

    def test_estimate_sees_only_aligned_power(self):
        cfg = CsitConfig.from_alpha(1e4, 0.5)
        batch = sample_batch(_rng(6), cfg, 256)
        pol = default_policy(cfg, batch)
        got = interference_power(batch.h_hat, pol.q_v)
        expected = (pol.p2 / 2.0) * np.sum(np.abs(batch.h_hat) ** 2, axis=1)
        assert np.allclose(got, expected, rtol=1e-9, atol=1e-9)

    def test_mean_scaling_with_power(self):
        # quick version of the averaged-interference scaling law
        alpha = 0.5
        xs, ys = [], []
        for log2p in (12, 18, 24):
            cfg = CsitConfig.from_alpha(2.0 ** log2p, alpha)

            def f(batch):
                comps = _policy_components(cfg, batch.h_hat, batch.g_hat)
                return np.maximum(
                    sum(c * np.abs(np.sum(np.conj(batch.h) * w, axis=-1)) ** 2
                        for c, w in comps["q_v"]), 0.0)

            est = estimate(f, McConfig(50_000, 7), cfg)
            xs.append(log2p)
            ys.append(math.log2(est.mean))
        slope = np.polyfit(xs, ys, 1)[0]
        assert abs(slope - (1.0 - alpha)) < 0.05


class TestQuantizationRate:
    def test_values(self):
        assert quantization_rate(1.0) == 0.0
        assert math.copysign(1.0, quantization_rate(1.0)) == 1.0   # never -0.0
        assert quantization_rate(0.25) == pytest.approx(2.0)
        cfg = CsitConfig.from_alpha(2.0 ** 10, 0.5)
        from misodof.rates import _distortion
        assert quantization_rate(_distortion(cfg)) == pytest.approx(5.0)

    @pytest.mark.parametrize("bad", [0.0, -0.1, 1.5])
    def test_domain(self, bad):
        with pytest.raises(ValueError):
            quantization_rate(bad)


class TestMimoRate:
    def test_zero_covariance_gives_zero(self):
        sample = _fixed_sample()
        pol = _manual_policy(np.zeros((2, 2), complex), np.zeros((2, 2), complex), 0.5, 0.5)
        assert mimo_rate(sample, pol, 1) == 0.0

    def test_unit_distortion_reduces_to_sinr(self):
        cfg = CsitConfig.from_alpha(1e3, 0.5)
        sample = sample_channel(_rng(8), cfg)
        q_u = np.array([[2.0, 0.3 + 0.1j], [0.3 - 0.1j, 1.0]], dtype=complex)
        q_v = np.array([[1.0, -0.2j], [0.2j, 3.0]], dtype=complex)
        pol = _manual_policy(q_u, q_v, d1=1.0, d2=1.0)
        sig = interference_power(sample.h, q_u)
        noise = interference_power(sample.h, q_v)
        expected = math.log2(1.0 + sig / (1.0 + noise))
        assert mimo_rate(sample, pol, 1) == pytest.approx(expected, rel=1e-12)

    def test_frozen_fixed_sample_value(self):
        sample = _fixed_sample()
        pol = _manual_policy(np.diag([4.0, 1.0]).astype(complex),
                             np.diag([1.0, 4.0]).astype(complex), 0.5, 0.5)
        assert mimo_rate(sample, pol, 1) == pytest.approx(MIMO_FIXED_SAMPLE_RATE, rel=1e-12)
        assert mimo_rate(sample, pol, 2) == pytest.approx(MIMO_FIXED_SAMPLE_RATE, rel=1e-12)

    def test_rejects_non_psd(self):
        sample = _fixed_sample()
        pol = _manual_policy(np.diag([1.0, -0.5]).astype(complex),
                             np.eye(2, dtype=complex), 0.5, 0.5)
        with pytest.raises(ValueError):
            mimo_rate(sample, pol, 1)

    def test_rejects_bad_user(self):
        sample = _fixed_sample()
        pol = _manual_policy(np.eye(2, dtype=complex), np.eye(2, dtype=complex))
        with pytest.raises(ValueError):
            mimo_rate(sample, pol, 3)


class TestCommonMessage:
    def test_zero_powers_give_zero_rates(self):
        cfg = CsitConfig.from_alpha(1e3, 0.5)

        def zero_map(cfg_, h_hat, g_hat):
            z = np.zeros((2, 2), dtype=complex)
            return z, z, z

        cm = rate_common_message(cfg, zero_map, McConfig(5_000, 10))
        assert cm.r_c == 0.0 and cm.r_p1 == 0.0 and cm.r_p2 == 0.0

    def test_nulling_limit_recovers_single_user_rate(self):
        # with a near-perfect estimate the cross term h^H q_p2 h vanishes,
        # so the private rate collapses to the interference-free value
        cfg = CsitConfig.from_alpha(2.0 ** 40, 1.0)

        def fixed_power_map(cfg_, h_hat, g_hat):
            from misodof.rates import _perp_unit, _E1, _E2
            from misodof.channel import projector
            q_p1 = 5.0 * projector(_perp_unit(g_hat, _E1))
            q_p2 = 5.0 * projector(_perp_unit(h_hat, _E2))
            return np.zeros((2, 2), dtype=complex), q_p1, q_p2

        mc_cfg = McConfig(20_000, 11)
        cm = rate_common_message(cfg, fixed_power_map, mc_cfg)

        def clean(batch):
            from misodof.rates import _perp_unit, _E1
            w = _perp_unit(batch.g_hat, _E1)
            sig = 5.0 * np.abs(np.sum(np.conj(batch.h) * w, axis=-1)) ** 2
            return np.log2(1.0 + sig)

        ref = estimate(clean, mc_cfg, cfg)
        assert cm.r_p1 == pytest.approx(ref.mean, abs=1e-8)

    def test_accepts_power_policy_return(self):
        cfg = CsitConfig.from_alpha(1e3, 0.5)

        def policy_map(cfg_, h_hat, g_hat):
            return default_policy(cfg_, type("E", (), {"h_hat": h_hat, "g_hat": g_hat})())

        cm_a = rate_common_message(cfg, policy_map, McConfig(5_000, 12))
        cm_b = rate_common_message(cfg, default_phase2_policy, McConfig(5_000, 12))
        assert cm_a.r_c == pytest.approx(cm_b.r_c, rel=1e-12)
        assert cm_a.r_p1 == pytest.approx(cm_b.r_p1, rel=1e-12)


class TestProposedScheme:
    def test_perfect_csit_degenerates_to_single_phase(self):
        cfg = CsitConfig.from_alpha(1e4, 1.0)
        res = rate_proposed(cfg, McConfig(20_000, 13))
        assert res.r_eta1 == 0.0 and res.r_eta2 == 0.0
        assert res.r1 == res.r_mimo1
        assert res.r2 == res.r_mimo2

    def test_no_csit_has_no_private_messages(self):
        cfg = CsitConfig.from_alpha(1e4, 0.0)
        res = rate_proposed(cfg, McConfig(20_000, 14))
        assert res.r_p1 == 0.0 and res.r_p2 == 0.0
        r_eta = res.r_eta1 + res.r_eta2
        assert res.r_eta1 == pytest.approx(math.log2(1e4))
        assert res.r1 == pytest.approx(res.r_c * res.r_mimo1 / (res.r_c + r_eta), rel=1e-12)

    def test_user_symmetry(self):
        cfg = CsitConfig.from_alpha(1e4, 0.5)
        res = rate_proposed(cfg, McConfig(100_000, 15))
        combined = math.hypot(res.se_r1, res.se_r2)
        assert abs(res.r1 - res.r2) < 3.0 * combined

    def test_monotone_in_alpha(self):
        mc_cfg = McConfig(30_000, 16)
        sums, errs = [], []
        for alpha in np.linspace(0.0, 1.0, 6):
            cfg = CsitConfig.from_alpha(2.0 ** 40, alpha)
            res = rate_proposed(cfg, mc_cfg)
            sums.append(res.r1 + res.r2)
            errs.append(math.hypot(res.se_r1, res.se_r2))
        for k in range(len(sums) - 1):
            slack = 3.0 * math.hypot(errs[k], errs[k + 1])
            assert sums[k + 1] >= sums[k] - slack

    def test_all_components_nonnegative(self):
        cfg = CsitConfig.from_alpha(1e3, 0.3)
        res = rate_proposed(cfg, McConfig(10_000, 17))
        for field in ("r1", "r2", "r_c", "r_p1", "r_p2", "r_mimo1", "r_mimo2",
                      "r_eta1", "r_eta2"):
            assert getattr(res, field) >= 0.0
        assert math.isfinite(res.r1) and math.isfinite(res.r2)

    def test_quantization_rate_bound(self):
        # E[log2 interference powers] stays below 2(1-alpha) log2 P + C with
        # C calibrated at the lowest power
        alpha = 0.5
        mc_cfg = McConfig(50_000, 18)
        measured = {}
        for log2p in (20, 30, 40):
            cfg = CsitConfig.from_alpha(2.0 ** log2p, alpha)

            def f(batch):
                comps = _policy_components(cfg, batch.h_hat, batch.g_hat)
                s1 = np.maximum(
                    sum(c * np.abs(np.sum(np.conj(batch.h) * w, axis=-1)) ** 2
                        for c, w in comps["q_v"]), 1e-300)
                s2 = np.maximum(
                    sum(c * np.abs(np.sum(np.conj(batch.g) * w, axis=-1)) ** 2
                        for c, w in comps["q_u"]), 1e-300)
                return np.log2(s1) + np.log2(s2)

            est = estimate(f, mc_cfg, cfg)
            measured[log2p] = (est.mean, est.std_error)
        c_fit = measured[20][0] - 2.0 * (1.0 - alpha) * 20
        for log2p in (30, 40):
            bound = 2.0 * (1.0 - alpha) * log2p + c_fit
            mean, se = measured[log2p]
            assert mean <= bound + 3.0 * se + 0.15


class TestBaselines:
    def test_mat_matches_forced_policy(self):
        cfg = CsitConfig.from_alpha(1e4, 0.6)
        mc_cfg = McConfig(20_000, 19)
        mat = rate_baseline("mat", cfg, mc_cfg)
        forced = rate_proposed(cfg, mc_cfg,
                               policy_cfg=CsitConfig.from_sigma_sq(cfg.snr_p, 1.0))
        assert mat.r1 == forced.r1 and mat.r2 == forced.r2
        assert mat.r_eta1 == pytest.approx(math.log2(cfg.snr_p))
        assert mat.r_p1 == 0.0

    def test_rs_zf_time_sharing_identity(self):
        cfg = CsitConfig.from_alpha(1e4, 0.5)
        res = rate_baseline("rszf", cfg, McConfig(20_000, 20))
        assert res.r1 == pytest.approx(0.5 * res.r_c + res.r_p1, rel=1e-12)
        assert res.r2 == pytest.approx(0.5 * res.r_c + res.r_p2, rel=1e-12)

    def test_tdma_half_time_share(self):
        cfg = CsitConfig.from_alpha(1e4, 0.5)

        def full_slot(batch):
            from misodof.rates import _unit_or, _E1
            beam = _unit_or(batch.h_hat, _E1)
            sig = cfg.snr_p * np.abs(np.sum(np.conj(batch.h) * beam, axis=-1)) ** 2
            return np.log2(1.0 + sig)

        mc_cfg = McConfig(20_000, 21)
        res = rate_baseline("tdma", cfg, mc_cfg)
        ref = estimate(full_slot, mc_cfg, cfg)
        assert res.r1 == pytest.approx(0.5 * ref.mean, rel=1e-12)

    def test_zf_perfect_nulling_of_estimates(self):
        # the beam serving user 2 carries no power toward user 1's estimate
        cfg = CsitConfig.from_alpha(1e4, 0.5)
        batch = sample_batch(_rng(22), cfg, 1024)
        from misodof.rates import _perp_unit, _E2
        w2 = _perp_unit(batch.h_hat, _E2)
        leak = np.abs(np.sum(np.conj(batch.h_hat) * w2, axis=-1)) ** 2
        assert leak.max() < 1e-20

    def test_positive_rates_all_schemes(self):
        cfg = CsitConfig.from_alpha(1e3, 0.5)
        mc_cfg = McConfig(5_000, 23)
        for scheme in ("tdma", "zf", "mat", "rszf", "proposed"):
            res = rate_scheme(scheme, cfg, mc_cfg)
            assert res.r1 > 0 and res.r2 > 0
            assert res.se_r1 >= 0 and res.se_r2 >= 0

    def test_proposed_not_a_baseline(self):
        cfg = CsitConfig.from_alpha(1e3, 0.5)
        with pytest.raises(ValueError):
            rate_baseline("proposed", cfg, McConfig(1_000, 24))


def test_rate_result_dataclass_defaults():
    res = RateResult(r1=1.0, r2=2.0, se_r1=0.1, se_r2=0.1)
    assert res.r_c == 0.0 and res.r_eta2 == 0.0
